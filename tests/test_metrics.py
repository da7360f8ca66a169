"""Metric profiles, comparison functions, and curvature."""

import math

import mpmath
import numpy as np
import pytest

from nitsche_lab import (
    CATALOG,
    CurvatureBound,
    DomainError,
    GeodesicAnnulus,
    catalog_surface,
    constant_curvature_metric,
    gaussian_curvature,
    h_c,
    infer_bound,
    load_metric,
    metric_from_profile,
    psi_big,
    psi_sharp,
    psi_small,
    surface_metric,
)

NEG = CurvatureBound.negative(1.0)
POS = CurvatureBound.positive(1.0)
FLAT = CurvatureBound.zero()


def test_curvature_bound_validation():
    with pytest.raises(DomainError):
        CurvatureBound("negative")  # missing kappa
    with pytest.raises(DomainError):
        CurvatureBound("positive", -2.0)
    with pytest.raises(DomainError):
        CurvatureBound("sideways", 1.0)
    assert CurvatureBound.zero().kappa is None
    # a given kappa is read for every sign, then dropped by the zero bound
    assert CurvatureBound("zero", "1.0").kappa is None
    for kappa in ("garbage", -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="kappa must be a positive finite real"):
            CurvatureBound("zero", kappa)
    assert CurvatureBound.negative(2.0).value == -4.0
    assert CurvatureBound.positive(2.0).cap == pytest.approx(math.pi / 4)


def test_h_c_values():
    assert h_c(FLAT, 2.0) == pytest.approx(0.5)
    assert h_c(POS, math.pi / 4) == pytest.approx(1.0)
    # coth tends to 1 from above for large radii
    assert h_c(NEG, 50.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        h_c(POS, math.pi)  # cot pole
    with pytest.raises(DomainError):
        h_c(FLAT, 0.0)


def test_psi_values():
    assert psi_small(FLAT, 0.3) == pytest.approx(0.3)
    assert psi_small(NEG, 1.0) == pytest.approx(1.1752011936438014)
    assert psi_small(POS, math.pi / 2) == pytest.approx(1.0)
    assert psi_big(FLAT, 0.123) == pytest.approx(0.5)
    assert psi_big(NEG, 1.0) == pytest.approx(0.5876005968219007)
    # sin(x)/x -> 1 so psi_big -> 1/2 at small radii
    assert psi_big(POS, 1e-6) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(DomainError):
        psi_small(POS, 2.0)  # beyond the cap
    # sinh overflow is an infinity without a RuntimeWarning
    huge = CurvatureBound.negative(1e300)
    assert psi_small(huge, 0.5) == psi_sharp(huge, 0.5) == psi_big(huge, 0.5) == math.inf
    # 2 rho1 overflows, psi_big does not; psi_sharp refuses a 2 kappa rho that overflows
    assert psi_big(FLAT, 9e307) == 0.5
    with pytest.raises(DomainError, match="2 kappa rho finite"):
        psi_sharp(FLAT, 9e307)


def test_sign_table_matches_closed_forms():
    # each model's comparison functions and G, G' equal the plain numpy formulas exactly
    for bound, sn, cs, tn in (
        (FLAT, lambda x: x, np.ones_like, lambda x: x),
        (CurvatureBound.negative(1.3), np.sinh, np.cosh, np.tanh),
        (CurvatureBound.positive(0.7), np.sin, np.cos, np.tan),
    ):
        k = bound.kappa or 1.0
        top = min(bound.cap, 3.0)
        rho = np.linspace(0.0, top, 101)
        r = rho[1:]
        assert np.array_equal(psi_small(bound, rho), sn(k * rho) / k)
        assert np.array_equal(psi_sharp(bound, 2 * rho), sn(2 * k * (2 * rho)) / (2 * k))
        assert np.array_equal(h_c(bound, 1.9 * r), k / tn(k * (1.9 * r)))
        m = constant_curvature_metric(bound)
        assert np.array_equal(m.G(r), sn(k * r) / k)
        assert np.array_equal(m.G_prime(r), cs(k * r))
    s = np.linspace(0.0, 0.99, 50)
    hyp, sph = constant_curvature_metric(NEG), constant_curvature_metric(POS)
    assert np.array_equal(hyp.density(s), 2.0 / (1.0 - s**2))
    assert np.array_equal(sph.density(s), 2.0 / (1.0 + s**2))
    assert np.array_equal(hyp.density_prime(s), 4.0 * s / (1.0 - s**2) ** 2)
    assert np.array_equal(sph.density_prime(s), -4.0 * s / (1.0 + s**2) ** 2)
    # the radius gates read the cap: psi_small up to cap, psi_sharp up to 2 cap
    pos = CurvatureBound.positive(0.7)
    for psi, limit in ((psi_small, pos.cap + 1e-15), (psi_sharp, 2 * pos.cap + 1e-15)):
        psi(pos, limit)
        with pytest.raises(DomainError, match="cap"):
            psi(pos, np.nextafter(limit, math.inf))
    assert psi_small(NEG, 1e6) == math.inf and psi_sharp(FLAT, 1e6) == 1e6


def test_psi_consistency_and_ordering():
    rho = np.linspace(0.01, 1.5, 200)
    for bound in (NEG, FLAT):
        assert np.allclose(psi_big(bound, rho) * 2 * rho, psi_small(bound, rho), rtol=1e-14)
    rho_pos = np.linspace(0.01, math.pi / 2, 200)
    assert np.allclose(psi_big(POS, rho_pos) * 2 * rho_pos, psi_small(POS, rho_pos), rtol=1e-14)
    # sinh x >= x >= sin x
    assert np.all(psi_small(NEG, rho_pos) >= psi_small(FLAT, rho_pos))
    assert np.all(psi_small(FLAT, rho_pos) >= psi_small(POS, rho_pos))
    # nondecreasing on the valid domain, positive case up to the cap included
    for bound, r in ((NEG, rho), (FLAT, rho), (POS, rho_pos)):
        assert np.all(np.diff(psi_small(bound, r)) >= -1e-15)


def test_psi_sharp_is_model_laplacian():
    # 4th-order FD Laplacian of the model distance functions, radial chart
    def lap_radial(fun, r, h=1e-5):
        d1 = (-fun(r + 2 * h) + 8 * fun(r + h) - 8 * fun(r - h) + fun(r - 2 * h)) / (12 * h)
        d2 = (-fun(r + 2 * h) + 16 * fun(r + h) - 30 * fun(r) + 16 * fun(r - h)
              - fun(r - 2 * h)) / (12 * h * h)
        return d2 + d1 / r

    for bound, dist in (
        (NEG, lambda r: 2 * np.arctanh(r)),
        (POS, lambda r: 2 * np.arctan(r)),
    ):
        for r in (0.3, 0.5, 0.7):
            rho = float(dist(np.asarray(r)))
            lap = lap_radial(dist, r)
            assert lap * r**2 == pytest.approx(psi_sharp(bound, rho), abs=1e-5)
    assert psi_sharp(FLAT, 0.4) == pytest.approx(0.4)


def test_metric_G_examples():
    flat = constant_curvature_metric(FLAT)
    assert flat.G(0.7) == pytest.approx(0.7)
    hyp = constant_curvature_metric(NEG)
    assert hyp.G(1.0) == pytest.approx(1.1752011936438014, abs=1e-12)
    with pytest.raises(DomainError):
        constant_curvature_metric(POS).G(4.0)  # outside distance range


def test_constant_metric_distances():
    hyp = constant_curvature_metric(NEG)
    assert float(hyp.distance(0.5)) == pytest.approx(1.0986122886681096)
    flat = constant_curvature_metric(FLAT)
    assert float(flat.distance(0.37)) == pytest.approx(0.37)
    sph2 = constant_curvature_metric(CurvatureBound.positive(2.0))
    # distance of the full chart radius 1 sits exactly at the cap pi/(2 kappa)
    assert float(sph2.distance(1.0)) == pytest.approx(math.pi / 4)
    assert sph2.bound.cap == pytest.approx(math.pi / 4)


def test_hat_G_reproduced_on_20_radii():
    for bound, ghat in (
        (NEG, lambda r: np.sinh(r)),
        (FLAT, lambda r: r),
        (POS, lambda r: np.sin(r)),
    ):
        m = constant_curvature_metric(bound)
        top = 0.95 * min(m.rho_max, 2.5)
        rho = np.linspace(top / 20, top, 20)
        assert np.max(np.abs(np.asarray(m.G(rho)) - ghat(rho))) < 1e-8


def test_constant_metric_curvature_20_radii():
    for bound in (NEG, FLAT, POS, CurvatureBound.negative(1.7), CurvatureBound.positive(0.8)):
        m = constant_curvature_metric(bound)
        hi = 0.9 if math.isfinite(m.domain_radius) else 2.0
        s = np.linspace(0.05, hi, 20)
        K = gaussian_curvature(m, s)
        assert np.max(np.abs(K - bound.value)) < 1e-5


def test_curvature_examples():
    hyp = constant_curvature_metric(NEG)
    assert gaussian_curvature(hyp, 0.3) == -1.0
    assert gaussian_curvature(hyp, 1e-9) == -1.0  # the metric's own K, right up to 0
    flat = constant_curvature_metric(FLAT)
    assert gaussian_curvature(flat, 0.5) == 0.0 and gaussian_curvature(flat, 1e300) == 0.0
    # the gate is the open chart 0 < s < s_max
    for bad in (0.0, -0.1, 1.0, 1.5, math.nan, [0.5, 1.0]):
        with pytest.raises(DomainError, match="chart radius outside"):
            gaussian_curvature(hyp, bad)
    with pytest.raises(DomainError, match="chart radius outside"):
        gaussian_curvature(flat, math.inf)


def _mp_curvature(density, s):
    """-((log h)'' + (log h)'/s) / h^2 by mpmath differentiation at 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(s)
        f = lambda y: mpmath.log(density(y))  # noqa: E731
        return float(-(mpmath.diff(f, x, 2) + mpmath.diff(f, x) / x) / density(x) ** 2)


def test_curvature_matches_mpmath_on_retyped_densities():
    # the densities are typed again here, not read from the metrics
    cases = [(constant_curvature_metric(FLAT), lambda s: mpmath.mpf(1), 3.0)]
    for sigma, kappas in ((-1, (0.3, 1.0, 2.5)), (1, (0.4, 1.0, 1.7))):
        for k in kappas:
            bound = CurvatureBound.negative(k) if sigma < 0 else CurvatureBound.positive(k)
            cases.append((constant_curvature_metric(bound),
                          lambda s, k=k, sigma=sigma: 2 / (k * (1 + sigma * s**2)), 3.0))
    for name, (a, b, k) in {"planar": (1, 0, 2), "enneper": (1, 1, 2), "enneper2": (1, 1, 4),
                            "enneper_scaled": (2, 2, 2), "enneper_rotated": (1, 1, 2)}.items():
        cases.append((surface_metric(CATALOG[name]), lambda s, a=a, b=b, k=k: a + b * s**k, 1.0))
    assert len(cases) == 12
    for m, density, top in cases:
        s = np.array([0.02, 0.1, 0.35, 0.6, 0.85, 0.97]) * min(top, m.domain_radius)
        got = np.asarray(gaussian_curvature(m, s))
        want = np.array([_mp_curvature(density, x) for x in s])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), m.label


def _stencil_curvature(m, s):
    """The centred 5-point stencil on log h, step max(1e-4, 1e-4 s), of earlier versions."""
    step = np.maximum(1e-4, 1e-4 * s)
    lh = [np.log(m.density(s + k * step)) for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    d1 = (lh[0] - 8 * lh[1] + 8 * lh[3] - lh[4]) / (12 * step)
    d2 = (-lh[0] + 16 * lh[1] - 30 * lh[2] + 16 * lh[3] - lh[4]) / (12 * step**2)
    return -(d2 + d1 / s) / m.density(s) ** 2


def test_profile_curvature_matches_the_stencil_at_knot_midpoints():
    # a stencil inside one knot interval sees one cubic; at a knot it would
    # straddle the jump in the PCHIP h''
    for s_max, n, density in ((0.9, 1000, lambda s: 2.0 / (1.0 - s**2)),
                              (0.99, 200, lambda s: 2.0 / (1.0 - s**2)),
                              (2.0, 1000, lambda s: 2.0 / (1.0 + s**2)),
                              (0.999, 600, lambda s: 1 + s**2)):
        s = np.linspace(0.0, s_max, n)
        m = metric_from_profile(np.column_stack([s, density(s)]))
        mid = 0.5 * (s[1:-2] + s[2:-1])
        assert np.max(np.abs(gaussian_curvature(m, mid) - _stencil_curvature(m, mid))) <= 1e-6


def test_profile_metric_tables():
    # Enneper-like analytic profile fed through the table path
    s = np.linspace(0.0, 0.999, 600)
    m = metric_from_profile(np.column_stack([s, 1 + s**2]))
    # round trip g(d(s)) = s on a log-spaced sample
    probe = np.geomspace(1e-3, 0.95, 40)
    back = np.asarray(m.inverse_distance(m.distance(probe)))
    assert np.max(np.abs(back - probe)) < 1e-8
    # 1 = g'(rho) h(g(rho)) at table knots: finite-difference g'
    rho = np.linspace(0.05, 1.2, 50)
    eps = 1e-6
    gp = (np.asarray(m.inverse_distance(rho + eps)) - np.asarray(m.inverse_distance(rho - eps))) / (2 * eps)
    assert np.max(np.abs(gp * m.density(m.inverse_distance(rho)) - 1)) < 1e-6
    # distance matches the closed form s + s^3/3
    assert float(m.distance(0.5)) == pytest.approx(0.5416666666666666, abs=1e-9)
    # G at rho ~ d(1) approaches 2
    assert m.G(1.3) == pytest.approx(1.9336142298927694, abs=1e-6)


def test_profile_rejects_bad_samples():
    s = np.linspace(0, 1, 50)
    with pytest.raises(DomainError):
        metric_from_profile(np.column_stack([s, 1 - s]))  # hits zero
    with pytest.raises(DomainError):
        metric_from_profile(np.column_stack([s[::-1], 1 + s]))  # decreasing radii
    with pytest.raises(DomainError):
        metric_from_profile([[0.0, 1.0], [0.5, -1.0], [0.7, 1.0], [1.0, 1.0]])


def test_geodesic_annulus_cap():
    GeodesicAnnulus(0.2, 0.7, POS)
    with pytest.raises(DomainError):
        GeodesicAnnulus(0.2, 1.8, POS)  # past pi/2
    with pytest.raises(DomainError):
        GeodesicAnnulus(0.7, 0.2, FLAT)
    GeodesicAnnulus(0.2, 5.0, NEG)  # no cap for nonpositive bounds


def test_load_metric_kinds(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"kind": "constant", "sign": "negative", "kappa": 1.0}')
    m = load_metric(str(p))
    assert m.label.startswith("hyperbolic")
    m2 = load_metric({"kind": "profile", "samples": [[0, 1], [0.3, 1.09], [0.6, 1.36], [0.9, 1.81]]})
    assert m2.rho_max > 0
    m3 = load_metric({"kind": "weierstrass", "surface": "enneper"})
    assert m3.label == "weierstrass:enneper"
    with pytest.raises(DomainError):
        load_metric({"kind": "nope"})


def test_infer_bound_signs():
    assert infer_bound(constant_curvature_metric(NEG)).sign == "negative"
    assert infer_bound(constant_curvature_metric(FLAT)).sign == "zero"
    assert infer_bound(constant_curvature_metric(POS)).sign == "positive"


def test_infer_bound_from_sampled_model_densities():
    # profile metrics carry no bound: infer_bound reads it off the FD curvature
    for sign, s_max, density, curvature in (
        ("negative", 0.9, lambda s: 2.0 / (1.0 - s**2), -1.0),
        ("positive", 2.0, lambda s: 2.0 / (1.0 + s**2), 1.0),
        ("zero", 2.0, np.ones_like, 0.0),
    ):
        s = np.linspace(0.0, s_max, 1000)
        bound = infer_bound(metric_from_profile(np.column_stack([s, density(s)])))
        assert bound.sign == sign
        assert bound.value >= curvature


def test_infer_bound_skips_the_last_profile_interval():
    # the PCHIP density's last knot interval reads positive curvature on a hyperbolic profile
    s = np.linspace(0.0, 0.99, 200)
    bound = infer_bound(metric_from_profile(np.c_[s, 2 / (1 - s**2)]))
    assert bound.sign == "negative"
    assert bound.kappa == pytest.approx(1.0, rel=1e-2)


@pytest.mark.parametrize("bound", [FLAT, NEG, CurvatureBound.negative(0.3),
                                   CurvatureBound.negative(2.5), POS,
                                   CurvatureBound.positive(0.4), CurvatureBound.positive(1.7)])
def test_model_d2G2_closed_form(bound):
    import sympy

    m = constant_curvature_metric(bound)
    rho = np.array([0.05, 0.3, 0.7, 0.95]) * min(bound.cap, 2.0)
    kappa = bound.kappa or 1.0
    # sympy's second derivative of G^2 = sn(kappa rho)^2 / kappa^2
    r, k = sympy.symbols("r k", positive=True)
    sn = {"negative": sympy.sinh, "zero": lambda x: x, "positive": sympy.sin}[bound.sign]
    exact = sympy.lambdify((r, k), sympy.diff(sn(k * r) ** 2 / k**2, r, 2), "mpmath")
    want = np.array([float(exact(sympy.Float(x, 30), sympy.Float(kappa, 30))) for x in rho])
    assert np.allclose(m.d2G2(rho), want, rtol=1e-13, atol=0)


def test_catalog_d2G2_matches_sympy():
    # G = s h(s) at s = g(rho) and d/drho = (1/h) d/ds, on Enneper of order 4
    import sympy

    m = surface_metric(catalog_surface("enneper2"))
    x = sympy.symbols("x", positive=True)
    h = 1 + x**4
    second = sympy.diff(sympy.diff((x * h) ** 2, x) / h, x) / h
    exact = sympy.lambdify(x, second, "mpmath")
    rho = np.asarray(m.distance(np.array([0.02, 0.2, 0.5, 0.8, 0.95, 0.999])))
    s = np.asarray(m.inverse_distance(rho))  # the chart radii the metric itself reads
    want = np.array([float(exact(sympy.Float(v, 30))) for v in s])
    assert np.allclose(m.d2G2(rho), want, rtol=1e-12, atol=0)


def test_load_metric_rejects_malformed_descriptions():
    for bad in ("3", "[]", "null", '"constant"', "{}", '{"kind": ["constant"]}',
                '{"kind": "cone"}', '{"kind": "constant"}', '{"kind": "profile"}',
                '{"kind": "weierstrass"}', '{"kind": "weierstrass", "surface": []}',
                '{"kind": "constant", "sign": "negative", "kappa": "abc"}',
                '{"kind": "constant", "sign": "negative", "kappa": [1.0]}',
                '{"kind": "constant", "sign": "positive", "kappa": Infinity}',
                '{"kind": "profile", "samples": "abc"}',
                '{"kind": "profile", "samples": [[0, 1], [1, "x"], [2, 1], [3, 1]]}',
                '{"kind": "profile", "samples": [[0, 1], [1, NaN], [2, 1], [3, 1]]}'):
        with pytest.raises(DomainError):
            load_metric(bad)
    # numeric text is a number, as on the command line
    assert load_metric({"kind": "constant", "sign": "negative", "kappa": "2"}).bound.kappa == 2.0


def test_invalid_input_errors_share_one_family():
    from nitsche_lab import MaskError

    assert issubclass(MaskError, DomainError)
