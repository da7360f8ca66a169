"""The radial layer solved from its first integral, against independent oracles.

The radial equation conserves rho'^2 - G(rho)^2, so the modulus reached from
(rho1, v0) is T(v0) = int d rho / sqrt(v0^2 + G^2 - G(rho1)^2).  These tests
check that quadrature against mpmath at 30 digits, the flat closed form, and
RK4 shooting, and check the domain gate and the import footprint.
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
                                        (0.5, 0.51), (1.0, 1.0 + 1e-6), (1e-3, 2.0)])
def test_critical_modulus_flat_closed_form(rho1, rho2):
    assert nl.critical_modulus(FLAT, rho1, rho2) == pytest.approx(math.acosh(rho2 / rho1),
                                                                  abs=1e-13)


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
    # a last RK4 step that leaves the metric range is an exit too
    enneper = nl.surface_metric(nl.catalog_surface("enneper"))
    assert nl.shoot(enneper, 0.5, 0.0, 1.25, n_steps=8, richardson=False).rho2 > enneper.rho_max
    assert nl.solve_bvp(enneper, 0.5, 1.0, 1.25, n_steps=8).critical_outer == math.inf


def test_enneper_critical_modulus_lands_zero_slope_shot_on_rho2():
    m = nl.surface_metric(nl.catalog_surface("enneper"))
    T = nl.critical_modulus(m, 0.4, 1.1)
    prof = nl.shoot(m, 0.4, 0.0, T, n_steps=2048, richardson=False)
    assert abs(prof.rho2 - 1.1) <= 1e-9


def test_solve_bvp_shoots_once_and_critical_modulus_never(monkeypatch):
    calls = []
    real = radial.shoot

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "shoot", counting)
    nl.critical_modulus(HYP, 0.5, 1.4)
    assert not calls
    sol = nl.solve_bvp(HYP, 0.5, 1.4, 0.5, n_steps=256)
    assert len(calls) == 1
    assert sol.boundary_error < 1e-9


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
        nl.solve_bvp(unbounded, 0.5, 2.8, 0.5)  # sin(2.8) < sin(0.5)
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
    code = ("import sys, nitsche_lab; "
            "print([m for m in ('scipy.interpolate', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    src = str(Path(nl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


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
