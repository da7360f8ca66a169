"""Metric profiles, comparison functions, and curvature."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    CurvatureBound,
    DomainError,
    GeodesicAnnulus,
    constant_curvature_metric,
    gaussian_curvature,
    h_c,
    infer_bound,
    load_metric,
    metric_from_profile,
    psi_big,
    psi_sharp,
    psi_small,
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
    assert gaussian_curvature(hyp, 0.3) == pytest.approx(-1.0, abs=1e-6)
    flat = constant_curvature_metric(FLAT)
    assert gaussian_curvature(flat, 0.5) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        gaussian_curvature(hyp, 1e-9)  # stencil falls off the chart


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
    from nitsche_lab import MaskError, UnsupportedDataError

    assert issubclass(MaskError, DomainError) and issubclass(UnsupportedDataError, DomainError)
