"""The radial layer solved from its first integral, against independent oracles.

The radial equation conserves rho'^2 - G(rho)^2, so the modulus reached from
(rho1, v0) is T(v0) = int d rho / sqrt(v0^2 + G^2 - G(rho1)^2).  These tests
check that quadrature against mpmath at 30 digits, the flat closed form, and
RK4 shooting, check the profiles that solve_bvp samples from it, and check
the domain gate and the import footprint.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nitsche_lab as nl
from nitsche_lab import radial
from nitsche_lab.cli import main

FLAT = nl.constant_curvature_metric(nl.CurvatureBound.zero())
HYP = nl.constant_curvature_metric(nl.CurvatureBound.negative(1.0))
SPH = nl.constant_curvature_metric(nl.CurvatureBound.positive(1.0))
ENNEPER = nl.surface_metric(nl.catalog_surface("enneper"))
EPS = float(np.finfo(float).eps)
# G^2 - G(rho1)^2 as D(k (rho + rho1)) D(k (rho - rho1)) / k^2 on the unit models
MODEL_RADICAND = {"flat": lambda r, r1: (r + r1) * (r - r1),
                  HYP.label: lambda r, r1: np.sinh(r + r1) * np.sinh(r - r1),
                  SPH.label: lambda r, r1: np.sin(r + r1) * np.sin(r - r1)}
PROFILE_CASES = [(FLAT, 0.8, 1.0), (HYP, 0.5, 1.4), (SPH, 0.3, 1.2), (ENNEPER, 0.4, 1.1)]
BETAS = [1.0, 1.0 - 1e-9, 0.9, 0.35, 0.05]  # Mod as a fraction of T(0)


def _critical_modulus_mp(sign, kappa, rho1, rho2):
    """T(0) by mpmath.quad at 30 digits, after rho = rho1 + (rho2 - rho1) s^2.

    G^2 - G1^2 is written as D(k (rho + rho1)) D(k (rho - rho1)) / k^2 with
    D = sinh, identity or sin, so no digits cancel near rho1.
    """
    with mpmath.workdps(30):
        r1, delta = mpmath.mpf(rho1), mpmath.mpf(rho2) - mpmath.mpf(rho1)
        k = mpmath.mpf(kappa)
        D = {"zero": lambda x: x, "negative": mpmath.sinh, "positive": mpmath.sin}[sign]

        def integrand(s):
            u = delta * s * s
            q = D(k * (2 * r1 + u)) * D(k * u) / (k * k * s * s)
            return 2 * delta / mpmath.sqrt(q)

        return float(mpmath.quad(integrand, [0, 1]))


def _flat_modulus(rho1, rho2, v0):
    """Closed form of T(v0) for the flat metric, at 40 digits."""
    with mpmath.workdps(40):
        a, b, v = mpmath.mpf(rho1), mpmath.mpf(rho2), mpmath.mpf(v0)
        return float(mpmath.log((b + mpmath.sqrt(b * b - a * a + v * v)) / (a + v)))


@pytest.mark.parametrize("sign", ["zero", "negative", "positive"])
def test_critical_modulus_matches_mpmath(sign):
    rng = np.random.default_rng(23)
    for _ in range(8):
        kappa = 1.0 if sign == "zero" else float(rng.uniform(0.6, 1.4))
        bound = nl.CurvatureBound(sign, None if sign == "zero" else kappa)
        m = nl.constant_curvature_metric(bound)
        cap = bound.cap if math.isfinite(bound.cap) else 2.2
        rho2 = float(rng.uniform(0.05, 1.0)) * cap
        rho1 = float(rng.uniform(0.02, 0.98)) * rho2
        want = _critical_modulus_mp(sign, kappa, rho1, rho2)
        assert nl.critical_modulus(m, rho1, rho2) == pytest.approx(want, abs=1e-12)


def test_critical_modulus_up_to_the_spherical_cap():
    cap = math.pi / 2
    want = _critical_modulus_mp("positive", 1.0, 0.4, cap)
    assert nl.critical_modulus(SPH, 0.4, cap) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("rho1, rho2", [(0.8, 1.0), (0.4, 1.1), (1.0, 2.0), (0.1, 2.0),
                                        (0.5, 0.51), (1.0, 1.0 + 1e-6), (1e-3, 2.0), (1.0, 1e20)])
def test_critical_modulus_flat_closed_form(rho1, rho2):
    assert nl.critical_modulus(FLAT, rho1, rho2) == pytest.approx(math.acosh(rho2 / rho1),
                                                                  abs=1e-13)


@pytest.mark.parametrize("ratio", [16.0, 1e3, 1e17, 1e20, 1e50, 1e150])
def test_graded_quadrature_matches_the_flat_closed_form(ratio):
    # one octave of panels per radius ratio of about 16 settles at any ratio
    for v0 in (0.0, 1e-6, 0.5, 10.0):
        want = _flat_modulus(1.0, ratio, v0)
        assert nl.modulus_of_slope(FLAT, 1.0, ratio, v0) == pytest.approx(want, rel=1e-14, abs=0)


def _segment_sum(m, rho1, rho2, v0):
    """T(v0) as a sum over radius segments of ratio 15, each on one ungraded panel run:
    T(v0; rho1, b) = T(v0; rho1, a) + T(v_a; a, b), v_a^2 = v0^2 + G(a)^2 - G(rho1)^2."""
    g1, t, a = float(m.G(rho1)), 0.0, rho1
    while a < rho2:
        b = min(15.0 * a, rho2)
        t += nl.modulus_of_slope(m, a, b, math.sqrt(v0 * v0 + float(m.G(a)) ** 2 - g1 * g1))
        a = b
    return t


@pytest.mark.parametrize("m, rho1, rho2", [(HYP, 1e-6, 20.0), (SPH, 1e-8, 1.5),
                                           (ENNEPER, 1e-6, 1.3)],
                         ids=lambda x: getattr(x, "label", str(x)))
def test_graded_quadrature_matches_a_sum_of_segments(m, rho1, rho2):
    for v0 in (0.0, 1e-7, 0.3, 5.0):
        want = _segment_sum(m, rho1, rho2, v0)
        assert nl.modulus_of_slope(m, rho1, rho2, v0) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("v0", [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 2.0])
def test_solve_bvp_slope_matches_flat_closed_form(v0):
    # small slopes sit in the layer that a plain s^2 substitution cannot resolve
    for rho1, rho2 in ((0.8, 1.0), (0.3, 1.7)):
        T = _flat_modulus(rho1, rho2, v0)
        assert nl.modulus_of_slope(FLAT, rho1, rho2, v0) == pytest.approx(T, abs=1e-13)
        sol = nl.solve_bvp(FLAT, rho1, rho2, T, n_steps=64)
        assert not isinstance(sol, nl.NoSolution)
        assert sol.slope0 == pytest.approx(v0, abs=1e-12)


def test_no_solution_exactly_past_the_critical_modulus():
    for m, rho1, rho2 in ((FLAT, 0.8, 1.0), (HYP, 0.5, 1.4), (SPH, 0.3, 1.2)):
        t0 = nl.critical_modulus(m, rho1, rho2)
        assert isinstance(nl.solve_bvp(m, rho1, rho2, t0 + 1e-9, n_steps=64), nl.NoSolution)
        sol = nl.solve_bvp(m, rho1, rho2, t0 - 1e-9, n_steps=64)
        assert not isinstance(sol, nl.NoSolution)
        assert 0 < sol.slope0 < 1e-8
        assert nl.solve_bvp(m, rho1, rho2, t0, n_steps=64).slope0 == 0.0


def test_no_solution_on_the_sphere_names_t0_and_the_turned_trajectory():
    # the zero-slope shot from 0.5 passes G' = 0 at pi/2 and turns back, so
    # where it ends at Mod (0.83 at Mod 10, 2.21 past the cap at Mod 3) is no
    # outer radius; nonexistence itself holds because T(0) = 2.11 < Mod
    t0 = nl.critical_modulus(SPH, 0.5, 1.5)
    assert t0 == pytest.approx(2.1135, abs=1e-4)
    for mod in (10.0, 3.0):
        out = nl.solve_bvp(SPH, 0.5, 1.5, mod)
        assert isinstance(out, nl.NoSolution)
        assert out.critical_outer == math.inf
        assert f"T(0) = {t0:.10g}" in out.reason and f"Mod = {mod:.10g}" in out.reason
        with pytest.raises(nl.DomainError, match="G' <= 0"):
            nl.critical_outer(SPH, 0.5, mod)
    assert nl.critical_outer(SPH, 0.5, 2.0) < math.pi / 2
    # a trajectory that never reaches G' <= 0 keeps its finite end
    out = nl.solve_bvp(SPH, 0.3, 0.4, 1.0)
    assert isinstance(out, nl.NoSolution)
    assert out.critical_outer == pytest.approx(nl.critical_outer(SPH, 0.3, 1.0), abs=1e-12)
    # the zero-slope trajectory leaves Enneper's range at t = 1.2289 < Mod
    enneper = nl.surface_metric(nl.catalog_surface("enneper"))
    assert nl.shoot(enneper, 0.5, 0.0, 1.25, n_steps=8, richardson=False).rho2 > enneper.rho_max
    assert nl.solve_bvp(enneper, 0.5, 1.0, 1.25, n_steps=8).critical_outer == math.inf


def test_enneper_critical_modulus_lands_zero_slope_shot_on_rho2():
    m = nl.surface_metric(nl.catalog_surface("enneper"))
    T = nl.critical_modulus(m, 0.4, 1.1)
    prof = nl.shoot(m, 0.4, 0.0, T, n_steps=2048, richardson=False)
    assert abs(prof.rho2 - 1.1) <= 1e-9


def test_solve_bvp_never_shoots(monkeypatch):
    calls = []
    for name in ("shoot", "rk4"):
        def counting(*args, real=getattr(radial, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(radial, name, counting)
    t0 = nl.critical_modulus(HYP, 0.5, 1.4)
    for mod in (0.5, t0):
        sol = nl.solve_bvp(HYP, 0.5, 1.4, mod, n_steps=256)
        assert sol.boundary_error < 1e-12
    # nor does a NoSolution: its critical_outer walks the first integral, finite,
    # past the range, or past the sphere's cap
    outers = [nl.solve_bvp(m, rho1, rho2, mod, n_steps=256).critical_outer
              for m, rho1, rho2, mod in ((HYP, 0.5, 1.4, 1.2 * t0), (HYP, 0.5, 1.4, 10.0),
                                         (ENNEPER, 0.5, 1.0, 1.25), (SPH, 0.5, 1.5, 3.0),
                                         (FLAT, 0.9, 1.0, math.log(2)))]
    assert outers[0] < HYP.rho_max and outers[1:4] == [math.inf] * 3
    assert outers[4] == pytest.approx(0.9 * math.cosh(math.log(2)), rel=1e-14)
    assert not calls


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("m, rho1, rho2", PROFILE_CASES, ids=lambda x: getattr(x, "label", ""))
def test_solve_bvp_profile_matches_rk4_and_the_first_integral(m, rho1, rho2, beta):
    T = beta * nl.critical_modulus(m, rho1, rho2)
    sol = nl.solve_bvp(m, rho1, rho2, T)
    assert sol.t_grid[-1] == T and len(sol.rho) == radial.DEFAULT_STEPS + 1
    ref = nl.shoot(m, rho1, sol.slope0, T, radial.DEFAULT_STEPS, richardson=False)
    assert not ref.exited
    assert np.max(np.abs(sol.rho - ref.rho)) <= 1e-9
    assert sol.boundary_error <= 1e-12 and sol.residual <= 1e-12 and sol.is_monotone
    if m is ENNEPER:  # squared, as no closed form of G^2 - G1^2 is at hand
        g, g1 = np.asarray(m.G(sol.rho)), float(m.G(rho1))
        want = sol.slope0**2 + (g - g1) * (g + g1)
        assert np.max(np.abs(sol.slope**2 - want)) <= 1e-12
    else:
        want = np.sqrt(sol.slope0**2 + MODEL_RADICAND[m.label](sol.rho, rho1))
        assert np.max(np.abs(sol.slope - want)) <= 1e-12
    if beta < 1.0:
        from scipy.optimize import brentq

        root = brentq(lambda v: nl.modulus_of_slope(m, rho1, rho2, v) - T, 0.0,
                      (rho2 - rho1) / T, xtol=EPS, rtol=4 * EPS)
        assert abs(sol.slope0 - root) <= max(4 * EPS * root, 1e-15)


@pytest.mark.parametrize("beta", BETAS)
def test_flat_profile_is_the_closed_form(beta):
    for rho1, rho2 in ((0.8, 1.0), (0.3, 1.7)):
        T = beta * math.acosh(rho2 / rho1)
        sol = nl.solve_bvp(FLAT, rho1, rho2, T, n_steps=512)
        t, v0 = sol.t_grid, sol.slope0
        assert np.max(np.abs(sol.rho - (rho1 * np.cosh(t) + v0 * np.sinh(t)))) <= 1e-13
        assert np.max(np.abs(sol.slope - (rho1 * np.sinh(t) + v0 * np.cosh(t)))) <= 1e-12
        # the spline through the new nodes, and its embedding on a grid
        ts = np.linspace(0.0, T, 37)
        exact = rho1 * np.cosh(ts) + v0 * np.sinh(ts)
        assert np.max(np.abs(sol.rho_at(ts) - exact)) <= 1e-10
        grid = nl.AnnulusGrid(1.0, math.exp(T), 17, 32)
        f = nl.embed_radial_profile(grid, sol)
        t_grid = grid.t - math.log(grid.r1)
        assert np.max(np.abs(f.rho - (rho1 * np.cosh(t_grid) + v0 * np.sinh(t_grid))[:, None])) \
            <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    sign=st.sampled_from(["zero", "negative", "positive"]),
    kappa=st.floats(0.6, 1.4),
    outer=st.floats(0.05, 0.99),
    inner=st.floats(0.02, 0.98),
    beta=st.floats(0.05, 1.0),
)
def test_solve_bvp_slope_reaches_the_modulus(sign, kappa, outer, inner, beta):
    bound = nl.CurvatureBound(sign, None if sign == "zero" else kappa)
    m = nl.constant_curvature_metric(bound)
    rho2 = outer * (bound.cap if math.isfinite(bound.cap) else 2.2)
    rho1 = inner * rho2
    T = beta * nl.critical_modulus(m, rho1, rho2)
    sol = nl.solve_bvp(m, rho1, rho2, T, n_steps=16)
    assert nl.modulus_of_slope(m, rho1, rho2, sol.slope0) == pytest.approx(T, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(log_rho1=st.floats(-50.0, 50.0), log_ratio=st.floats(math.log10(1.02), 16.0),
       frac=st.floats(0.3, 0.999))
def test_solve_bvp_slope_has_no_absolute_scale(log_rho1, log_ratio, frac):
    # the flat map is rho1 cosh t + v0 sinh t with v0 = (rho2 - rho1 cosh T)/sinh T,
    # at every scale of rho1
    rho1 = 10.0**log_rho1
    rho2 = rho1 * 10.0**log_ratio
    T = frac * math.acosh(rho2 / rho1)
    sol = nl.solve_bvp(FLAT, rho1, rho2, T, n_steps=2)
    v0 = (rho2 - rho1 * math.cosh(T)) / math.sinh(T)
    assert sol.slope0 == pytest.approx(v0, rel=1e-9, abs=0)
    assert sol.rho[1] == pytest.approx(rho1 * math.cosh(T / 2) + v0 * math.sinh(T / 2),
                                     rel=1e-9, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    sign=st.sampled_from(["zero", "negative", "positive"]),
    kappa=st.floats(0.6, 1.4),
    outer=st.floats(0.05, 0.99),
    inner=st.floats(0.02, 0.98),
    v0=st.floats(0.0, 10.0),
    dv=st.floats(1e-6, 10.0),
)
def test_modulus_of_slope_strictly_decreasing(sign, kappa, outer, inner, v0, dv):
    bound = nl.CurvatureBound(sign, None if sign == "zero" else kappa)
    m = nl.constant_curvature_metric(bound)
    rho2 = outer * (bound.cap if math.isfinite(bound.cap) else 2.2)
    rho1 = inner * rho2
    t_lo = nl.modulus_of_slope(m, rho1, rho2, v0)
    t_hi = nl.modulus_of_slope(m, rho1, rho2, v0 + dv)
    assert t_lo > t_hi
    assert t_hi < (rho2 - rho1) / (v0 + dv)


def test_domain_gate_on_radial_entry_points():
    with pytest.raises(nl.DomainError, match="cap"):
        nl.critical_modulus(SPH, 0.5, 3.0)
    with pytest.raises(nl.DomainError, match="cap"):
        nl.solve_bvp(SPH, 0.5, 3.0, 0.5)
    unbounded = nl.constant_curvature_metric(nl.CurvatureBound.positive(1.0))
    unbounded.bound = None
    with pytest.raises(nl.DomainError, match="G'"):
        nl.critical_modulus(unbounded, 1.7, 2.0)  # G decreasing from rho1
    with pytest.raises(nl.DomainError, match=r"G\(.*\) <= G\(rho1\)"):
        nl.critical_modulus(unbounded, 0.5, 2.8)  # sin(2.8) < sin(0.5): T(0) turns back
    # slopes above v_min = sqrt(sin(0.5)^2 - sin(2.8)^2) reach 2.8, and solve_bvp takes one
    sol = nl.solve_bvp(unbounded, 0.5, 2.8, 0.5)
    v_min = math.sqrt(math.sin(0.5) ** 2 - math.sin(2.8) ** 2)
    assert sol.is_monotone and sol.slope0 > v_min
    assert nl.modulus_of_slope(unbounded, 0.5, 2.8, sol.slope0) == pytest.approx(0.5, rel=1e-12)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(nl.DomainError):
            nl.solve_bvp(FLAT, 0.5, 1.0, bad)


def test_cli_rejects_past_cap_and_infinite_modulus():
    sphere = '{"kind": "constant", "sign": "positive", "kappa": 1.0}'
    assert main(["solve-radial", "--metric", sphere, "--rho1", "0.5", "--rho2", "3.0",
                 "--mod", "0.5", "--quiet"]) == 4
    assert main(["check-bound", "--sign", "negative", "--kappa", "1.0", "--rho1", "1.0",
                 "--rho2", "2.0", "--mod", "inf", "--quiet"]) == 4


def test_import_leaves_scipy_solvers_unloaded():
    # and so does a solve-radial run, which needs neither a root finder nor a spline,
    # and a minimal-surface run, whose distance and inverse are closed forms
    code = ("import sys, nitsche_lab; "
            "print([m for m in ('scipy.interpolate', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules]); "
            "from nitsche_lab.cli import main; "
            "code = main(['solve-radial', '--metric', '{\"kind\": \"constant\", "
            "\"sign\": \"negative\", \"kappa\": 1.0}', '--rho1', '0.5', '--rho2', '1.4', "
            "'--mod', '0.5', '--quiet']); "
            "print(code, [m for m in ('scipy.interpolate', 'scipy.optimize') "
            "if m in sys.modules]); "
            "code = main(['minimal', '--surface', 'enneper', '--rho1', '0.54', '--rho2', '1.2', "
            "'--n', '16', '--quiet']); "
            "print(code, [m for m in ('scipy.interpolate', 'scipy.integrate') "
            "if m in sys.modules])")
    assert _fresh_python(code).stdout.splitlines() == ["[]", "0 []", "0 []"]


def test_bench_tracing_instruments_the_package():
    # as the traced cli child does: every traced name and SciPy's cg is wrapped, then restored
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from nitsche_lab import cli; from tracing import Tracer, instrument; "
            "instrument(Tracer())()")
    _fresh_python(code, str(Path(__file__).resolve().parents[1] / "bench"))


def _fresh_python(code, *args):
    """``python -c code args`` in a new interpreter that imports this package; raises on failure."""
    src = str(Path(nl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env=env)


def test_modulus_of_slope_past_a_maximum_of_G():
    # G = s/(1 + s^2)^2 peaks at s = 1/sqrt(3) and falls below G(0.2) before
    # rho = 0.74: no zero-slope map reaches 0.74, but every v0 whose radicand
    # v0^2 + G^2 - G(rho1)^2 stays positive does
    s = np.linspace(0.0, 3.0, 200)
    m = nl.metric_from_profile(np.c_[s, (1.0 + s**2) ** -2])
    with pytest.raises(nl.DomainError, match="turns back"):
        nl.critical_modulus(m, 0.2, 0.74)
    for v0 in (0.5, 1.0, 1.79, 3.0):
        T = nl.modulus_of_slope(m, 0.2, 0.74, v0)
        prof = nl.shoot(m, 0.2, v0, T, richardson=False)
        assert prof.is_monotone and not prof.exited
        # the shot's miss at rho2 as a time: (rho(T) - rho2) / rho'(T)
        assert abs((prof.rho2 - 0.74) / prof.slope[-1]) < 1e-8
