"""Radial shooting, boundary-value solving, and the classical closed forms."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    CurvatureBound,
    DomainError,
    NoSolution,
    metric_from_profile,
    modulus_of_slope,
    catalog_surface,
    constant_curvature_metric,
    critical_modulus,
    critical_outer,
    nitsche_euclidean,
    nitsche_ndim,
    ode_rhs,
    radial_map_ndim,
    shoot,
    solve_bvp,
    surface_metric,
)
from nitsche_lab import radial

FLAT = constant_curvature_metric(CurvatureBound.zero())
HYP = constant_curvature_metric(CurvatureBound.negative(1.0))
SPH = constant_curvature_metric(CurvatureBound.positive(1.0))


def test_ode_rhs_values():
    assert ode_rhs(FLAT, 0.4) == pytest.approx(0.4)
    assert ode_rhs(HYP, 0.5) == pytest.approx(math.sinh(1.0) / 2, abs=1e-12)
    assert ode_rhs(SPH, math.pi / 4) == pytest.approx(0.5, abs=1e-12)


def test_rhs_matches_derivative_of_G_squared():
    # cross-check against a finite difference of G^2 for a non-model metric
    from nitsche_lab import surface_metric, catalog_surface

    m = surface_metric(catalog_surface("enneper"))
    rho = np.linspace(0.1, 1.2, 25)
    h = 1e-6
    fd = (np.asarray(m.G(rho + h)) ** 2 - np.asarray(m.G(rho - h)) ** 2) / (2 * h)
    assert np.max(np.abs(np.asarray(ode_rhs(m, rho)) - fd / 2)) < 1e-7


def test_shoot_flat_conformal_exact():
    prof = shoot(FLAT, 0.5, 0.5, 1.0)
    assert np.max(np.abs(prof.rho - 0.5 * np.exp(prof.t_grid))) < 1e-10
    assert prof.residual < 1e-10


def test_shoot_flat_critical_closed_form():
    prof = shoot(FLAT, 0.8, 0.0, math.log(2))
    assert prof.rho2 == pytest.approx(1.0, abs=1e-12)
    exact = 0.4 * (np.exp(prof.t_grid) + np.exp(-prof.t_grid))
    assert np.max(np.abs(prof.rho - exact)) < 1e-12


def test_shoot_cross_integrator_hyperbolic():
    prof = shoot(HYP, 1.0, 0.0, 1.0)
    assert prof.residual < 1e-8  # full-step vs half-step agreement
    assert prof.is_monotone


def test_shoot_range_exit_flagged():
    prof = shoot(SPH, 3.0, 2.0, 2.0)  # blows past the antipode distance pi
    assert prof.exited
    assert prof.exit_time is not None and prof.exit_time < 2.0


def test_shoot_flags_a_last_step_past_the_range():
    # Enneper (rho_max 1.3333): eight steps from rho 0.5 end at 1.3746
    enneper = surface_metric(catalog_surface("enneper"))
    prof = shoot(enneper, 0.5, 0.0, 1.25, n_steps=8, richardson=False)
    assert prof.exited and prof.exit_time == pytest.approx(1.25)
    assert prof.rho2 > enneper.rho_max and len(prof.rho) == 9
    # the zero-slope trajectory itself leaves at t = 1.2289
    with pytest.raises(DomainError, match="left the metric range at t = 1.2289"):
        critical_outer(enneper, 0.5, 1.25)
    assert critical_outer(enneper, 0.5, 1.2) < enneper.rho_max


def test_runaway_shots_exit_at_the_float_range():
    # on the unbounded models the range ends where G, G' and their squares
    # stop being finite floats, so a runaway shot exits there without overflow
    assert FLAT.rho_max == math.sqrt(np.finfo(float).max)
    assert HYP.rho_max == pytest.approx(355.2379, abs=1e-4)
    for m in (FLAT, HYP):
        prof = shoot(m, 1.0, 1.0, 1000.0)
        assert prof.exited and prof.rho[-2] < m.rho_max <= prof.rho[-1]
    # the sphere ends at its antipode, or earlier where G^2 = sin^2/kappa^2 overflows
    assert SPH.rho_max == math.pi
    tiny = constant_curvature_metric(CurvatureBound.positive(1e-160))
    assert tiny.rho_max == pytest.approx(math.sqrt(np.finfo(float).max), rel=1e-12)
    rho = np.nextafter(tiny.rho_max, 0.0)
    with np.errstate(all="raise"):
        assert np.isfinite([tiny.G(rho) ** 2, tiny.G_prime(rho) ** 2, tiny.dG2(rho)]).all()


def test_solve_bvp_critical_pair():
    sol = solve_bvp(FLAT, 0.8, 1.0, math.log(2))
    assert not isinstance(sol, NoSolution)
    assert sol.slope0 == pytest.approx(0.0, abs=1e-9)
    assert abs(sol.rho2 - 1.0) <= 1e-9


def test_solve_bvp_no_solution():
    out = solve_bvp(FLAT, 0.9, 1.0, math.log(2))
    assert isinstance(out, NoSolution)
    assert out.critical_outer == pytest.approx(0.9 * math.cosh(math.log(2)), abs=1e-9)


def test_solve_bvp_no_solution_brute_force_scan():
    # no admissible slope reaches the target: scan a slope grid directly
    ends = []
    for slope in np.linspace(0.0, 5.0, 60):
        prof = shoot(FLAT, 0.9, slope, math.log(2), n_steps=512, richardson=False)
        ends.append(prof.rho2)
    assert min(ends) > 1.0 + 1e-6  # every candidate overshoots


def test_flat_scale_invariance():
    sol1 = solve_bvp(FLAT, 0.4, 0.5, 0.5)
    sol2 = solve_bvp(FLAT, 0.8, 1.0, 0.5)
    assert np.max(np.abs(2 * sol1.rho - sol2.rho)) < 1e-8


def test_critical_outer_flat_small_modulus_expansion():
    for T in (0.05, 0.1, 0.2):
        val = critical_outer(FLAT, 1.0, T)
        assert val == pytest.approx(math.cosh(T), abs=1e-11)
        # asymptotically 1 + T^2/2 up to the quartic term
        assert abs(val - 1 - T**2 / 2) < T**4


def test_critical_outer_monotone_in_modulus_and_inner_radius():
    for m in (FLAT, HYP, SPH):
        vals_T = [critical_outer(m, 0.4, T) for T in np.linspace(0.1, 0.9, 7)]
        assert np.all(np.diff(vals_T) > 0)
        vals_r = [critical_outer(m, r, 0.5) for r in np.linspace(0.2, 0.8, 7)]
        assert np.all(np.diff(vals_r) > 0)


def test_critical_outer_two_integrators_agree_spherical():
    a = critical_outer(SPH, 0.2, 0.5)
    b = shoot(SPH, 0.2, 0.0, 0.5, n_steps=8192, richardson=False).rho2
    assert abs(a - b) < 1e-12
    # bracketed by the flat analogue from below (positive curvature slows growth)
    assert a < critical_outer(FLAT, 0.2, 0.5)


HYP14 = constant_curvature_metric(CurvatureBound.negative(1.4))
ENNEPER = surface_metric(catalog_surface("enneper"))


@pytest.mark.parametrize("m, rho1, T", [
    (FLAT, 1.0, 0.3), (FLAT, 0.2, 5.0), (HYP, 0.5, 0.7), (HYP, 0.05, 3.5), (HYP14, 0.4, 1.0),
    (HYP14, 0.01, 4.0), (SPH, 0.5, 2.0), (SPH, 1e-3, 6.0), (ENNEPER, 0.5, 1.228),
    (ENNEPER, 0.01, 4.0)], ids=lambda x: getattr(x, "label", str(x)))
def test_critical_outer_matches_an_8192_step_shot(m, rho1, T):
    got = critical_outer(m, rho1, T)
    ref = shoot(m, rho1, 0.0, T, n_steps=8192, richardson=False)
    assert not ref.exited and abs(got - ref.rho2) <= 1e-9 * ref.rho2


def test_critical_outer_is_one_quadrature_to_the_range_end(monkeypatch):
    calls = []

    def counting(*args, real=radial._quadrature, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "_quadrature", counting)
    # past a radius ratio of 16 the quadrature grades its panels on octaves
    for m, rho1, T in ((FLAT, 0.2, 5.0), (HYP, 0.05, 3.5), (SPH, 1e-3, 6.0)):
        assert critical_outer(m, rho1, T) > 16 * rho1
    # an RK4 shot of 8192 steps is 6e-10 off here
    assert critical_outer(FLAT, 1.0, 50.0) == pytest.approx(math.cosh(50.0), rel=1e-12)
    assert len(calls) == 4
    # the flat trajectory cosh(t) leaves at acosh(rho_max) = 355.585
    exit_time = f"{math.acosh(FLAT.rho_max):.6g}"
    with pytest.raises(DomainError, match=f"left the metric range at t = {exit_time}"):
        critical_outer(FLAT, 1.0, 400.0)
    with pytest.raises(DomainError, match="left the metric range"):
        critical_outer(HYP, 1.0, 10.0)
    # T is a positive finite modulus, and rho1 an inner radius in the range
    for rho1, T in ((1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (0.0, 1.0),
                    (math.nan, 1.0), (2.0, 1.0)):
        with pytest.raises(DomainError):
            critical_outer(SPH, rho1, T)
    # radii whose G(rho1)^2 is below the smallest normal float are refused, not
    # divided by, and not said to turn back
    for rho1 in (1e-155, 1e-160, 1e-200):
        with pytest.raises(DomainError, match="underflows"):
            critical_outer(FLAT, rho1, 1.0)
        with pytest.raises(DomainError, match="underflows"):
            modulus_of_slope(FLAT, rho1, 2 * rho1, 0.0)


def _profile(s_max, density):
    s = np.linspace(0.0, s_max, 200)
    return metric_from_profile(np.c_[s, density(s)])


# G peaks and falls below G(0.2) before the range end (G' = 0 at t = 1.86999), and
# G peaks and stays above G(0.5) up to the range end (G' = 0 at t = 2.19426)
BUMP = _profile(3.0, lambda s: (1.0 + s**2) ** -2)
SPHERICAL_PROFILE = _profile(2.0, lambda s: 2.0 / (1.0 + s**2))


@pytest.mark.parametrize("m, rho1", [(BUMP, 0.2), (SPHERICAL_PROFILE, 0.5)])
def test_critical_outer_stops_where_G_prime_first_falls_to_zero(m, rho1):
    shot = shoot(m, rho1, 0.0, 3.0, n_steps=8192, richardson=False)
    turn = int(np.argmax(np.asarray(m.G_prime(shot.rho)) <= 0))  # first node past G' = 0
    for j in (turn // 20, turn // 2, turn - turn // 20):
        T = float(shot.t_grid[j])
        got = critical_outer(m, rho1, T)
        assert modulus_of_slope(m, rho1, got, 0.0) == pytest.approx(T, abs=1e-12)
        # a profile's G' (from h and h') and the derivative of its G (through the
        # tabulated inverse distance) differ by about 1e-7, and the shot reads G'
        assert abs(got - shot.rho[j]) <= 1e-7 * shot.rho[j]
    # past the maximum of G the trajectory meets G' = 0 between the shot's nodes
    with pytest.raises(DomainError, match="met G' <= 0 at t = ") as info:
        critical_outer(m, rho1, 3.0)
    t_turn = float(str(info.value).rsplit("= ", 1)[1])
    assert shot.t_grid[turn - 1] - 1e-5 <= t_turn <= shot.t_grid[turn] + 1e-5
    assert solve_bvp(m, rho1, 1.01 * rho1, 3.0).critical_outer == math.inf


def _sphere_zero_slope(rho1, t):
    """cap - rho = asin(k cd(t | k^2)), k = cos(rho1): rho'' = sin(rho) cos(rho), in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k = mpmath.sin(mpmath.pi / 2 - mpmath.mpf(rho1))
        return float(mpmath.pi / 2 - mpmath.asin(k * mpmath.ellipfun("cd", t, m=k * k)))


def test_critical_outer_next_to_the_cap_is_the_linearised_oscillator():
    # from within 1e-6 of the sphere's cap the quadrature cannot settle; there
    # cap - rho = (cap - rho1) cos t to rounding, and the cap is met at t = pi/2
    cap = SPH.bound.cap
    for gap in (1e-9, 1e-7, 9e-7, 2e-6, 1e-5):
        for T in (0.5, 1.0, 1.5):
            exact = _sphere_zero_slope(cap - gap, T)
            assert critical_outer(SPH, cap - gap, T) == pytest.approx(exact, abs=4e-16)
    for gap in (1e-9, 1e-7):
        with pytest.raises(DomainError, match="met G' <= 0 at t = 1.5708"):
            critical_outer(SPH, cap - gap, 2.0)
    out = solve_bvp(SPH, cap - 1e-7, cap - 1e-9, 2.0)
    assert isinstance(out, NoSolution) and out.critical_outer == math.inf


def test_critical_modulus_matches_flat_closed_form():
    T = critical_modulus(FLAT, 0.8, 1.0)
    assert T == pytest.approx(math.acosh(1.25), abs=1e-8)


def test_nitsche_euclidean_values():
    assert nitsche_euclidean(0.5) == pytest.approx(0.8)
    assert nitsche_euclidean(0.1) == pytest.approx(0.19801980198019803)
    assert nitsche_euclidean(1 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError):
        nitsche_euclidean(1.5)


def test_nitsche_ndim_values():
    assert nitsche_ndim(0.5, 2) == pytest.approx(nitsche_euclidean(0.5))
    assert nitsche_ndim(0.5, 3) == pytest.approx(0.7058823529411765)
    assert nitsche_ndim(1 - 1e-9, 3) == pytest.approx(1.0, abs=1e-8)


def test_radial_map_boundary_radii_exact():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        sphere = rng.normal(size=(20, n))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        outer = radial_map_ndim(sphere, 0.5, 0.8, n)
        assert np.max(np.abs(np.linalg.norm(outer, axis=1) - 1)) < 1e-12
        assert np.max(np.abs(outer - sphere)) < 1e-12  # identity on the unit sphere
        inner = radial_map_ndim(0.5 * sphere, 0.5, 0.8, n)
        assert np.max(np.abs(np.linalg.norm(inner, axis=1) - 0.8)) < 1e-12


def _fd_laplacian(fun, x, h=0.005):
    # componentwise 4th-order Laplacian
    n = len(x)
    total = np.zeros_like(fun(x))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        total += (
            -fun(x + 2 * h * e) + 16 * fun(x + h * e) - 30 * fun(x)
            + 16 * fun(x - h * e) - fun(x - 2 * h * e)
        ) / (12 * h * h)
    return total


def test_radial_map_harmonic_componentwise():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        rho = nitsche_ndim(0.5, n)
        fun = lambda x: radial_map_ndim(x, 0.5, rho, n)
        for _ in range(50):
            x = rng.normal(size=n)
            x *= rng.uniform(0.55, 0.95) / np.linalg.norm(x)
            assert np.max(np.abs(_fd_laplacian(fun, x))) < 1e-6


def test_radial_map_matches_critical_profile_n2():
    r = 0.5
    rho1 = nitsche_euclidean(r)
    sol = solve_bvp(FLAT, rho1, 1.0, math.log(1 / r))
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(100, 2))
    pts *= rng.uniform(r, 1.0, 100)[:, None] / np.linalg.norm(pts, axis=1, keepdims=True)
    mapped = radial_map_ndim(pts, r, rho1, 2)
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(np.linalg.norm(mapped, axis=1)
                         - sol.rho_at(np.log(radii / r)))) < 1e-6


def test_main_inequality_for_solved_radial_bvp_nonpositive_bounds():
    # every solved case satisfies lhs >= Psi T^2 + 1 for flat/hyperbolic data
    from nitsche_lab import psi_big

    rng = np.random.default_rng(19)
    for m in (FLAT, HYP):
        for _ in range(10):
            rho1 = rng.uniform(0.3, 1.0)
            rho2 = rho1 * rng.uniform(1.05, 1.8)
            t_max = critical_modulus(m, rho1, rho2, tol=1e-6)
            T = rng.uniform(0.3, 1.0) * t_max
            sol = solve_bvp(m, rho1, rho2, T, n_steps=1024)
            assert not isinstance(sol, NoSolution)
            assert rho2 / rho1 >= float(psi_big(m.bound, rho1)) * T**2 + 1 - 1e-12


def test_flat_near_critical_gap_shrinks():
    # relative slack of the bound vanishes as the modulus does
    gaps = []
    for T in (0.3, 0.2, 0.1):
        rho2 = critical_outer(FLAT, 1.0, T)
        gap = (rho2 - 1 - T**2 / 2) / (T**2 / 2)
        gaps.append(gap)
        assert gap <= 1e-2
    assert gaps[0] > gaps[1] > gaps[2]
