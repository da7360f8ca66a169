"""Grid maps: residuals, solver, Hopf differential, Laplacian bound, Green chain."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusGrid,
    AnnulusMap,
    CurvatureBound,
    DomainError,
    NoSolution,
    angular_energy,
    catalog_surface,
    check_bound,
    constant_curvature_metric,
    critical_modulus,
    embed_radial_profile,
    green_chain,
    harmonicity_residual,
    hopf_dbar_norm,
    hopf_differential,
    laplacian_bound_check,
    modulus_of_slope,
    residual_norm,
    shoot,
    solve_bvp,
    solve_dirichlet,
    surface_metric,
)
from nitsche_lab.cli import main
from nitsche_lab.grid import d_first, d_second, wrap_pad
from nitsche_lab.metrics import metric_from_profile, psi_sharp
from nitsche_lab.modulus import _cell_density
from nitsche_lab.pde import _lap5, _system_residual, green_stations
from nitsche_lab.report import verify_end_to_end

FLAT = constant_curvature_metric(CurvatureBound.zero())
HYP = constant_curvature_metric(CurvatureBound.negative(1.0))
SPH = constant_curvature_metric(CurvatureBound.positive(1.0))
ENNEPER = surface_metric(catalog_surface("enneper"))
_S = np.linspace(0.0, 0.9, 200)
PROFILE = metric_from_profile(np.column_stack([_S, 2 / (1 - _S**2)]))  # the hyperbolic disk


def _critical_flat_map(n_r, n_theta, r1=0.5, r2=1.0):
    prof = shoot(FLAT, 0.8, 0.0, math.log(r2 / r1), richardson=False)
    return embed_radial_profile(AnnulusGrid(r1, r2, n_r, n_theta), prof)


def test_grid_validation():
    with pytest.raises(DomainError):
        AnnulusGrid(1.0, 0.5, 64, 64)
    with pytest.raises(DomainError):
        AnnulusGrid(0.5, 1.0, 8, 64)
    with pytest.raises(DomainError, match="finite"):  # r2/r1 overflows
        AnnulusGrid(0.5, 1e308, 16, 32)
    with pytest.raises(DomainError, match="distinct circles"):  # log r1 swallows the steps
        AnnulusGrid(1e300, 1e300 * (1 + 1e-13), 16, 32)
    g = AnnulusGrid(0.5, 1.0, 64, 64)
    assert g.modulus == pytest.approx(math.log(2))
    assert g.eps_grid == pytest.approx(10 * g.spacing**2)
    # a map admits only finite fields: NaN fails the range test, inf the angle
    T, PHI = g.mesh()
    rho = 0.8 + 0.1 * (T - T[0, 0])
    with pytest.raises(DomainError, match="distance range"):
        AnnulusMap(grid=g, rho=np.where((T == T[5, 0]) & (PHI == 0), np.nan, rho),
                   theta=PHI.copy(), metric=FLAT)
    with pytest.raises(DomainError, match="theta"):
        AnnulusMap(grid=g, rho=rho, theta=np.where(PHI == 0, np.inf, PHI), metric=FLAT)


def test_identity_conformal_map_residual_refines_at_second_order_or_better():
    # rho(z) = d(|z|), theta = arg z is an isometric (hence harmonic) chart map
    norms = []
    for n in (64, 128, 256):
        grid = AnnulusGrid(0.4, 0.9, n, n)
        T, PHI = grid.mesh()
        rho = np.asarray(HYP.distance(np.exp(T)))
        f = AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=HYP)
        norms.append(residual_norm(f))
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert np.all(orders >= 1.8)


def test_embedded_critical_map_residual_small_on_256_grid():
    f = _critical_flat_map(256, 256)
    assert residual_norm(f) <= 1e-5


def test_perturbed_map_residual_detected():
    f = _critical_flat_map(128, 128)
    rho_p = f.rho + 0.01 * np.sin(f.grid.mesh()[1])
    fp = AnnulusMap(grid=f.grid, rho=rho_p, theta=f.theta.copy(), metric=FLAT)
    assert residual_norm(fp) > 1e-3


def test_radial_embedding_harmonic_for_random_data():
    # radial shots embed to harmonic grid maps for any metric/slope mixture
    rng = np.random.default_rng(42)
    metrics = [FLAT, HYP, SPH, surface_metric(catalog_surface("enneper"))]
    worst = 0.0
    for k in range(30):
        m = metrics[k % 4]
        cap = min(m.rho_max, 1.6)
        rho1 = rng.uniform(0.2, 0.5 * cap)
        slope0 = rng.uniform(0.0, 0.8)
        prof = shoot(m, rho1, slope0, 0.5, n_steps=1024, richardson=False)
        assert not prof.exited
        grid = AnnulusGrid(1.0, math.exp(0.5), 160, 768)
        f = embed_radial_profile(grid, prof)
        worst = max(worst, residual_norm(f))
    assert worst <= 1e-5


def test_solve_recovers_radial_map_flat():
    grid = AnnulusGrid(0.5, 1.0, 128, 64)
    f = solve_dirichlet(grid, FLAT, 0.8, 1.0)
    exact = 0.8 * np.cosh(grid.t - math.log(0.5))
    assert np.max(np.abs(f.rho - exact[:, None])) <= 1e-14


def _discrete_line(m, rho1, rho2, t):
    """The 2nd-order discrete line D_tt rho = (1/2)(G^2)'(rho) with rho's end values, by
    dense Newton from the straight line: the radial solution of the 5-point system."""
    h, n = t[1] - t[0], len(t)
    rho = rho1 + (rho2 - rho1) * (t - t[0]) / (t[-1] - t[0])
    off = np.full(n - 3, 1 / h**2)
    for _ in range(50):
        F = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / h**2 - 0.5 * np.asarray(m.dG2(rho[1:-1]))
        J = np.diag(off, 1) + np.diag(off, -1) + np.diag(-2 / h**2 - 0.5 * m.d2G2(rho[1:-1]))
        step = np.linalg.solve(J, -F)
        rho[1:-1] += step
        if np.max(np.abs(step)) <= 1e-14:
            return rho
    raise AssertionError("the discrete line did not converge")


SYMMETRIC_CASES = [(FLAT, 0.8, 1.0, math.log(2)), (HYP, 0.5, 1.0, 0.6), (SPH, 0.5, 1.2, 0.5),
                   (ENNEPER, 0.4, 0.9, 0.5), (PROFILE, 0.5, 1.0, 0.4)]


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("m, rho1, rho2, T", SYMMETRIC_CASES)
def test_symmetric_grid_map_is_the_first_integral_profile(n, m, rho1, rho2, T):
    # the rows are solve_bvp's nodes: the map is its profile, read with no interpolation;
    # at a phi-independent rho with u = 0 the angular equation F2 balances exactly, and
    # F1, the 5-point system's radial residual, is the profile's truncation error, O(h^2).
    # A PCHIP density's second derivative jumps at its knots, and so does the third
    # derivative of rho: F1 falls at first order on the rows next to a knot.
    F1_max = []
    for k in (n, 2 * n):
        grid = AnnulusGrid(1.0, math.exp(T), k, k)
        f = solve_dirichlet(grid, m, rho1, rho2)
        prof = solve_bvp(m, rho1, rho2, grid.modulus, n_steps=k - 1)
        assert f.profile.slope0 == prof.slope0
        assert np.array_equal(f.rho, np.repeat(prof.rho[:, None], k, axis=1))
        assert np.array_equal(f.theta, np.broadcast_to(grid.phi, f.theta.shape))
        F1, F2 = _system_residual(grid, m, f.rho, f.theta - grid.phi)
        assert not np.any(F2)
        F1_max.append(np.max(np.abs(F1)))
    assert math.log2(F1_max[0] / F1_max[1]) >= (1.0 if m is PROFILE else 1.9)


@pytest.mark.parametrize("m, rho1, rho2, T", SYMMETRIC_CASES)
def test_grid_map_is_the_discrete_line_to_second_order(m, rho1, rho2, T):
    # the 5-point system's own radial solution differs from the map by O(h^2)
    gaps = []
    for n in (64, 128):
        grid = AnnulusGrid(1.0, math.exp(T), n, 32)
        f = solve_dirichlet(grid, m, rho1, rho2)
        gaps.append(np.max(np.abs(f.rho[:, 0] - _discrete_line(m, rho1, rho2, grid.t))))
    assert gaps[0] <= 1e-3 and math.log2(gaps[0] / gaps[1]) >= 1.9


def test_grid_map_where_G_dips_below_its_inner_value():
    # G = s/(1 + s^2)^2 peaks at s = 1/sqrt(3) and falls below G(0.2) before rho = 0.74:
    # T(0) is undefined, but slopes above v_min = max sqrt(G(0.2)^2 - G^2) reach 0.74
    s = np.linspace(0.0, 3.0, 301)
    m = metric_from_profile(np.c_[s, (1.0 + s**2) ** -2])
    with pytest.raises(DomainError, match="turns back"):
        critical_modulus(m, 0.2, 0.74)
    prof = solve_bvp(m, 0.2, 0.74, 0.3)
    assert prof.is_monotone and prof.residual <= 1e-12 and prof.boundary_error <= 1e-12
    assert modulus_of_slope(m, 0.2, 0.74, prof.slope0) == pytest.approx(0.3, rel=1e-12)
    gaps = []
    for n in (64, 128):
        grid = AnnulusGrid(1.0, math.exp(0.3), n, 32)
        f = solve_dirichlet(grid, m, 0.2, 0.74)
        assert f.diagnostics()["min_drho_dt"] > 0
        gaps.append(np.max(np.abs(f.rho[:, 0] - _discrete_line(m, 0.2, 0.74, grid.t))))
    assert math.log2(gaps[0] / gaps[1]) >= 1.9


# hyperbolic kappa 1.4 at T(0): the discrete line's O(h^2) error failed both at 128^2
ITEM_2_CASES = [(0.7, 2.07), (0.725, 1.99)]


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("rho1, rho2", ITEM_2_CASES)
def test_critical_steep_hyperbolic_maps_pass_verify(rho1, rho2, n):
    m = constant_curvature_metric(CurvatureBound.negative(1.4))
    T = critical_modulus(m, rho1, rho2)
    report = verify_end_to_end(m, 1.0, math.exp(T), rho1, rho2, n_r=n, n_theta=n)
    assert report.passed and all(block["ok"] for block in report.subchecks.values())
    assert report.provenance["slope0"] == 0.0 and report.provenance["boundary_error"] <= 1e-12


@pytest.mark.parametrize("rho1, rho2", ITEM_2_CASES)
def test_laplacian_margin_min_converges_at_fourth_order(rho1, rho2):
    # the margin is the 4th-order second difference's error, -h^4 rho^(6)/90 + O(h^6), and
    # its minimum sits two rows from the outer circle, where rho^(6) is largest: the order
    # climbs to 4 from 3.0 (64 -> 128), through 3.44 and 3.52 (128 -> 256)
    m = constant_curvature_metric(CurvatureBound.negative(1.4))
    T = critical_modulus(m, rho1, rho2)
    lap = [np.nanmin(laplacian_bound_check(solve_dirichlet(AnnulusGrid(1.0, math.exp(T), n, 32),
                                                           m, rho1, rho2)))
           for n in (64, 128, 256, 512)]
    orders = np.log2(np.array(lap[:-1]) / np.array(lap[1:]))
    assert np.all(np.diff(orders) > 0) and orders[1] >= 3.4 and orders[2] >= 3.5


@pytest.mark.parametrize("beta", [1.2, 2.0])
def test_past_the_critical_modulus_verify_fails(beta, capsys):
    # no monotone radial map exists: solve-map and verify exit 2, and verify's report is
    # the arithmetic one, failed on its radial_solution sub-check
    T = beta * critical_modulus(HYP, 0.5, 1.0)
    grid = AnnulusGrid(1.0, math.exp(T), 128, 128)
    out = solve_dirichlet(grid, HYP, 0.5, 1.0)
    assert isinstance(out, NoSolution) and out == solve_bvp(HYP, 0.5, 1.0, grid.modulus)
    data = ["--metric", '{"kind": "constant", "sign": "negative", "kappa": 1.0}',
            "--r1", "1.0", "--r2", repr(math.exp(T)), "--rho1", "0.5", "--rho2", "1.0"]
    capsys.readouterr()
    assert main(["solve-map", *data]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "no_solution"
    assert main(["verify", *data]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and list(report["subchecks"]) == ["radial_solution"]
    block = report["subchecks"]["radial_solution"]
    assert not block["ok"] and block["critical_outer"] == out.critical_outer
    assert block["reason"].startswith("critical modulus T(0)")
    assert report["margin"] == check_bound(HYP.bound, 0.5, 1.0, grid.modulus).margin


def _roll_d_phi(F, h):
    return (-np.roll(F, -2, axis=1) + 8 * np.roll(F, -1, axis=1)
            - 8 * np.roll(F, 1, axis=1) + np.roll(F, 2, axis=1)) / (12 * h)


def _roll_d_phi2(F, h):
    return (-np.roll(F, -2, axis=1) + 16 * np.roll(F, -1, axis=1) - 30 * F
            + 16 * np.roll(F, 1, axis=1) - np.roll(F, 2, axis=1)) / (12 * h**2)


def test_wrap_padded_stencils_match_np_roll():
    rng = np.random.default_rng(3)
    grid = AnnulusGrid(0.5, 1.0, 20, 48)
    h = grid.h_phi
    fields = [rng.normal(size=(20, 48)),
              rng.normal(size=(20, 48)) + 1j * rng.normal(size=(20, 48)),
              rng.integers(-1000, 1000, size=(20, 48))]
    for F in fields:
        B = wrap_pad(F, 2)  # the d_phi stencils read the centre rows of the block
        for new, old in ((d_first(B, h, 1), _roll_d_phi(F, h)[2:-2]),
                         (d_second(B, h, 1), _roll_d_phi2(F, h)[2:-2])):
            assert new.dtype == old.dtype
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
        c, east, west = F[1:-1], np.roll(F, -1, axis=1)[1:-1], np.roll(F, 1, axis=1)[1:-1]
        lap = (F[2:] - 2 * c + F[:-2]) / grid.h_t**2 + (east - 2 * c + west) / grid.h_phi**2
        assert np.array_equal(_lap5(grid, F), lap)


# The whole-grid bodies of the three per-node checks before they ran on row
# strips, kept as oracles for the strips and their halos.
def _pad(F, k):
    return np.concatenate([F[:, -k:], F, F[:, :k]], axis=1)


def _d_phi(F, h):
    P = _pad(F, 2)
    return (8 * (P[:, 3:-1] - P[:, 1:-3]) - (P[:, 4:] - P[:, :-4])) * (1 / (12 * h))


def _d_phi2(F, h):
    P = _pad(F, 2)
    return (16 * (P[:, 3:-1] + P[:, 1:-3]) - (P[:, 4:] + P[:, :-4]) - 30 * F) * (1 / (12 * h**2))


def _d_t(F, h):
    out = np.full(F.shape, np.nan, np.result_type(F, float))
    out[2:-2] = (8 * (F[3:-1] - F[1:-3]) - (F[4:] - F[:-4])) * (1 / (12 * h))
    return out


def _d_t2(F, h):
    out = np.full(F.shape, np.nan, np.result_type(F, float))
    out[2:-2] = (16 * (F[3:-1] + F[1:-3]) - (F[4:] + F[:-4]) - 30 * F[2:-2]) * (1 / (12 * h**2))
    return out


def _whole_grid_defect(f):
    g, m = f.grid, f.metric
    F = f.chart_field()
    f_t, f_p, s = _d_t(F, g.h_t), _d_phi(F, g.h_phi), np.abs(F)
    with np.errstate(invalid="ignore", divide="ignore"):
        L = np.conj(F) * np.where(s > 0, m.density_prime(s) / (m.density(s) * s), 0.0)
    defect = _d_t2(F, g.h_t)
    defect += _d_phi2(F, g.h_phi)
    defect += L * (f_t * f_t + f_p * f_p)
    defect *= 0.25 * np.exp(-2 * g.t)[:, None]
    return defect


def _whole_grid_margin(f, bound):
    g = f.grid
    lap_rho = _d_t2(f.rho, g.h_t) + _d_phi2(f.rho, g.h_phi)
    u = f.theta - g.phi
    grad_theta_sq = _d_t(u, g.h_t) ** 2 + (1.0 + _d_phi(u, g.h_phi)) ** 2
    return lap_rho - psi_sharp(bound, f.rho) * grad_theta_sq


def _whole_grid_system(g, m, rho, u):
    ht, hp = g.h_t, g.h_phi
    a = np.asarray(m.G(rho)) ** 2
    a_p, u_p, rho_p = _pad(a[1:-1], 1), _pad(u[1:-1], 1), _pad(rho[1:-1], 1)
    lap = ((rho[2:] - 2 * rho[1:-1] + rho[:-2]) / ht**2
           + (rho_p[:, 2:] - 2 * rho[1:-1] + rho_p[:, :-2]) / hp**2)
    u_t = (u[2:] - u[:-2]) / (2 * ht)
    theta_p = 1.0 + (u_p[:, 2:] - u_p[:, :-2]) / (2 * hp)
    q_t = 0.5 * (a[:-1] + a[1:]) * ((u[1:] - u[:-1]) / ht)
    q_p = 0.5 * (a_p[:, :-1] + a_p[:, 1:]) * (1.0 + (u_p[:, 1:] - u_p[:, :-1]) / hp)
    return np.stack([lap - 0.5 * np.asarray(m.dG2(rho))[1:-1] * (u_t**2 + theta_p**2),
                     (q_t[1:] - q_t[:-1]) / ht + (q_p[:, 1:] - q_p[:, :-1]) / hp])


@pytest.mark.parametrize("n_theta", [32, 48])
@pytest.mark.parametrize("n_r", [16, 67, 69, 128, 129])  # 67 and 69 leave one-row strips
def test_row_strips_match_the_whole_grid_formulas(n_r, n_theta):
    rng = np.random.default_rng([n_r, n_theta])
    grid = AnnulusGrid(1.0, math.exp(0.6), n_r, n_theta)
    rho = rng.uniform(0.4, 1.0, (n_r, n_theta))
    u = 0.3 * rng.normal(size=(n_r, n_theta))
    f = AnnulusMap(grid=grid, rho=rho, theta=grid.phi + u, metric=HYP)
    pairs = [(harmonicity_residual(f), _whole_grid_defect(f)),
             (laplacian_bound_check(f), _whole_grid_margin(f, HYP.bound)),
             (_system_residual(grid, HYP, rho, u), _whole_grid_system(grid, HYP, rho, u))]
    for new, old in pairs:
        assert new.shape == old.shape and new.dtype == old.dtype
        assert np.array_equal(np.isnan(new), np.isnan(old))
        assert np.nanmax(np.abs(new - old)) <= 1e-12 * np.nanmax(np.abs(old))
    assert residual_norm(f) == pytest.approx(np.nanmax(np.abs(pairs[0][1])), rel=1e-12)
    cells = _cell_density(f.theta, grid.h_t, grid.h_phi, 2 * np.pi) * grid.h_t * grid.h_phi
    assert angular_energy(f) == pytest.approx(cells.sum(), rel=1e-13)
    diag, drho = f.diagnostics(), np.diff(f.rho, axis=0)
    assert diag["min_drho_dt"] == drho.min() and not diag["degenerate"]
    assert diag["min_dtheta_dphi"] == np.diff(f.theta, axis=1).min()
    assert diag["winding_ok"] == bool(np.all(f.winding_numbers() == 1))
    # phi-independent rho with u = 0: the angular equation balances exactly in every strip
    sym = np.repeat(rho[:, :1], n_theta, axis=1)
    assert not np.any(_system_residual(grid, HYP, sym, np.zeros_like(sym))[1])


def test_verify_pass_keeps_no_grid_sized_temporaries():
    # at 128^2 the whole-grid checks peaked at 2.7 MB of traced allocations
    T = 0.7 * critical_modulus(HYP, 0.5, 1.0)
    verify_end_to_end(HYP, 1.0, math.exp(T), 0.5, 1.0)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        report = verify_end_to_end(HYP, 1.0, math.exp(T), 0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.5e6


@pytest.mark.parametrize("winding", [0, 1, 2])
@pytest.mark.parametrize("jump", [np.pi, -np.pi, np.pi - 1e-12, -(np.pi - 1e-12)])
def test_winding_numbers_with_a_half_turn_increment(winding, jump):
    grid = AnnulusGrid(0.5, 1.0, 16, 64)
    steps = np.full(grid.n_theta, (2 * np.pi * winding - jump) / (grid.n_theta - 1))
    steps[0] = jump  # theta[1] - theta[0] is exactly the jump
    row = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    theta = np.repeat(row[None, :], grid.n_r, axis=0)
    f = AnnulusMap(grid=grid, rho=np.full_like(theta, 0.7), theta=theta, metric=FLAT)
    assert np.all(f.winding_numbers() == winding)
    d = np.diff(theta, axis=1, append=theta[:, :1])
    reference = np.rint(np.angle(np.exp(1j * d)).sum(axis=1) / (2 * np.pi)).astype(int)
    assert np.array_equal(f.winding_numbers(), reference)


def test_constant_boundary_circle_map_satisfies_discrete_equation():
    # degenerate data: the whole annulus maps onto one geodesic circle
    grid = AnnulusGrid(0.5, 1.0, 64, 64)
    rho = np.full((64, 64), 0.7)
    theta = grid.mesh()[1].copy()
    F1, F2 = _system_residual(grid, FLAT, rho, theta - grid.mesh()[1])
    assert np.max(np.abs(F1 - (-0.5 * np.asarray(FLAT.dG2(rho[1:-1]))))) < 1e-12  # pure source
    # the angular part is exactly balanced
    assert np.max(np.abs(F2)) < 1e-12
    f = AnnulusMap(grid=grid, rho=rho, theta=theta, metric=FLAT)
    assert f.diagnostics()["degenerate"]


def test_winding_violation_detected():
    grid = AnnulusGrid(0.5, 1.0, 64, 64)
    T, PHI = grid.mesh()
    f = AnnulusMap(grid=grid, rho=np.full_like(T, 0.7) + 0.1 * (T - T.min()),
                   theta=2.0 * PHI, metric=FLAT)
    assert not f.diagnostics()["winding_ok"]


def test_hopf_vanishes_for_conformal_map():
    # the anti-holomorphic derivative factor kills the field; discretely it
    # survives only at stencil-truncation size and dies out under refinement
    vals = []
    for n in (64, 256):
        grid = AnnulusGrid(0.5, 1.0, n, n)
        T, PHI = grid.mesh()
        rho = np.asarray(FLAT.distance(np.exp(T)))
        f = AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=FLAT)
        vals.append(np.nanmax(np.abs(hopf_differential(f))))
    assert vals[0] < 1e-5
    assert vals[1] < 1e-8


def test_hopf_constant_for_radial_harmonic_map():
    # the Hopf field of a radial harmonic map is (rho_t^2 - G^2)/4 z^-2
    prof = shoot(HYP, 0.6, 0.3, 0.5, richardson=False)
    grid = AnnulusGrid(1.0, math.exp(0.5), 96, 96)
    f = embed_radial_profile(grid, prof)
    P = hopf_differential(f)
    T, PHI = grid.mesh()
    z2 = np.exp(2 * (T + 1j * PHI))
    const = P * z2
    vals = const[~np.isnan(const)]
    expected = 0.25 * (0.3**2 - float(HYP.G(0.6)) ** 2)
    assert np.max(np.abs(vals - expected)) < 1e-6


def test_hopf_dbar_refines_and_detects_nonharmonic():
    norms = []
    for n in (64, 128, 256):
        norms.append(hopf_dbar_norm(_critical_flat_map(n, n)))
    orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert np.all(orders >= 1.8)
    for n in (64, 128, 256):
        f = _critical_flat_map(n, n)
        rho_p = f.rho + 0.01 * np.sin(f.grid.mesh()[1])
        fp = AnnulusMap(grid=f.grid, rho=rho_p, theta=f.theta.copy(), metric=FLAT)
        assert hopf_dbar_norm(fp) > 1e-3


def test_laplacian_margin_zero_for_model_radial_maps():
    # per-node equality on a 256-node radial grid for each model metric
    for m, rho1, T in ((FLAT, 0.8, math.log(2)), (HYP, 0.6, 0.7), (SPH, 0.5, 0.6)):
        prof = shoot(m, rho1, 0.0, T, richardson=False)
        grid = AnnulusGrid(1.0, math.exp(T), 256, 48)
        f = embed_radial_profile(grid, prof)
        margins = laplacian_bound_check(f)
        assert np.nanmax(np.abs(margins)) <= 1e-6


def test_laplacian_margin_nonnegative_for_solved_maps():
    grid = AnnulusGrid(0.5, 1.0, 96, 96)
    f = solve_dirichlet(grid, FLAT, 0.8, 1.0)
    assert np.nanmin(laplacian_bound_check(f)) >= -grid.eps_grid
    enn = surface_metric(catalog_surface("enneper"))
    grid2 = AnnulusGrid(1.0, math.exp(0.5), 96, 96)
    f2 = solve_dirichlet(grid2, enn, 0.4, 0.9)
    assert np.nanmin(laplacian_bound_check(f2, CurvatureBound.zero())) >= -grid2.eps_grid


def test_green_chain_flat_critical_closed_form():
    # flux = 2 pi t-derivative of 0.4 (e^t + e^-t); fine radial grid for 1e-8
    prof = shoot(FLAT, 0.8, 0.0, math.log(2), richardson=False)
    grid = AnnulusGrid(0.5, 1.0, 8193, 32)
    f = embed_radial_profile(grid, prof)
    with pytest.warns(UserWarning, match="snapped"):
        gc = green_chain(f, 0.75)
    t = math.log(gc.sigma / 0.5)
    assert gc.flux == pytest.approx(2 * math.pi * 0.4 * (math.exp(t) - math.exp(-t)), abs=1e-8)


def test_green_identity_exact_for_any_field():
    rng = np.random.default_rng(9)
    grid = AnnulusGrid(0.5, 1.0, 64, 64)
    T, PHI = grid.mesh()
    rho = 0.8 + 0.2 * (T - T.min()) + 0.01 * np.sin(3 * PHI) * np.sin(T)
    f = AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=FLAT)
    for sigma in rng.uniform(0.52, 0.98, 5):
        with pytest.warns(UserWarning):
            gc = green_chain(f, sigma)
        assert gc.flux - gc.inner_flux - gc.area == pytest.approx(0.0, abs=1e-10)


def test_green_chain_lower_bound_for_solved_maps():
    grid = AnnulusGrid(1.0, math.exp(0.6), 128, 128)
    f = solve_dirichlet(grid, HYP, 0.5, 1.0)
    import warnings

    for sigma in np.exp(np.linspace(0.05, 0.55, 6)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gc = green_chain(f, sigma)
        # flux dominates 2 pi psi(rho1) log(sigma/r1) along the annulus
        assert gc.flux >= 2 * math.pi * math.sinh(0.5) * math.log(gc.sigma) - grid.eps_grid


def test_green_chain_domain_errors():
    f = _critical_flat_map(64, 64)
    with pytest.raises(DomainError):
        green_chain(f, 0.2)


def test_green_stations_read_only_the_stencil_laplacian(monkeypatch):
    grid = AnnulusGrid(1.0, math.exp(0.6), 32, 32)
    f = solve_dirichlet(grid, HYP, 0.5, 1.0)
    lap = _lap5(grid, f.rho)

    def metric_call(*args):
        raise AssertionError("green_stations evaluated the metric")

    monkeypatch.setattr(HYP, "G", metric_call)
    monkeypatch.setattr(HYP, "dG2", metric_call)
    _, _, area, _ = green_stations(f, [grid.r2])
    assert area[0] == pytest.approx(np.sum(lap) * grid.h_t * grid.h_phi, rel=1e-12)
