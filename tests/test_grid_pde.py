"""Grid maps: residuals, solver, Hopf differential, Laplacian bound, Green chain."""

import math

import numpy as np
import pytest

from nitsche_lab import (
    AnnulusGrid,
    AnnulusMap,
    CurvatureBound,
    DomainError,
    catalog_surface,
    constant_curvature_metric,
    embed_radial_profile,
    green_chain,
    hopf_dbar_norm,
    hopf_differential,
    laplacian_bound_check,
    residual_norm,
    shoot,
    solve_dirichlet,
    surface_metric,
)
from nitsche_lab.grid import d_phi, d_phi2
from nitsche_lab.metrics import metric_from_profile
from nitsche_lab.pde import (
    NEWTON_TOL, _lap5, _neighbours, _radial_discrete_profile, _system_residual, green_stations,
)
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
    assert np.max(np.abs(f.rho - exact[:, None])) <= 1e-6


def _halving_profile(m, rho1, rho2, t):
    """The 1-D warm start as a plain loop: 30 halvings per search, stop at a failed one."""
    h, n = t[1] - t[0], len(t)
    rho = rho1 + (rho2 - rho1) * (t - t[0]) / (t[-1] - t[0])

    def residual(r):
        return (r[2:] - 2 * r[1:-1] + r[:-2]) / h**2 - 0.5 * np.asarray(m.dG2(r[1:-1]))

    for _ in range(80):
        F = residual(rho)
        if np.max(np.abs(F)) <= 1e-12:
            break
        A = np.diag(np.full(n - 3, 1 / h**2), 1) + np.diag(np.full(n - 3, 1 / h**2), -1)
        A += np.diag(-2 / h**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1])))
        step = np.linalg.solve(A, -F)
        for k in range(30):
            trial = rho.copy()
            trial[1:-1] += 0.5**k * step
            if np.all(trial > 0) and np.all(trial < m.rho_max) and \
                    np.max(np.abs(residual(trial))) < np.max(np.abs(F)):
                rho = trial
                break
        else:
            break
    return rho


def test_inadmissible_newton_start_is_a_failed_solve(monkeypatch):
    # an all-NaN warm start has no residual: a DivergenceError, not a TypeError
    from nitsche_lab import DivergenceError, pde

    monkeypatch.setattr(pde, "_radial_discrete_profile",
                        lambda m, r1, r2, t: (np.full_like(t, np.nan), [math.inf]))
    with pytest.raises(DivergenceError, match="inf"):
        solve_dirichlet(AnnulusGrid(0.5, 1.0, 16, 32), FLAT, 0.8, 1.0)


def _spy_banded_newton(monkeypatch):
    """Record (residual, steps taken) of every damped-Newton run, steps counted from its iterates."""
    from nitsche_lab import pde

    runs = []
    damped_newton = pde._damped_newton

    def spy(residual, newton_step, x, tol, max_iter):
        iterates = [x]

        def step(y, F):
            iterates.append(y)
            return newton_step(y, F)

        out = damped_newton(residual, step, x, tol, max_iter)
        runs.append((residual, len({y.tobytes() for y in (*iterates, out[0])}) - 1))
        return out

    monkeypatch.setattr(pde, "_damped_newton", spy)
    return runs


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("m, rho1, rho2, T", [
    (FLAT, 0.8, 1.0, math.log(2)), (HYP, 0.5, 1.0, 0.6), (SPH, 0.5, 1.2, 0.5),
    (ENNEPER, 0.4, 0.9, 0.5), (PROFILE, 0.5, 1.0, 0.4)])
def test_symmetric_grid_system_is_the_radial_line(monkeypatch, n, m, rho1, rho2, T):
    # at a phi-independent rho with u = 0, F2 vanishes exactly and F1 is the 1-D
    # residual on every row, so the solve is the banded line plus one 2-D check
    runs = _spy_banded_newton(monkeypatch)
    grid = AnnulusGrid(1.0, math.exp(T), n, n)
    f = solve_dirichlet(grid, m, rho1, rho2)
    (residual_1d, steps), = runs
    assert f.info.iterations == steps >= 1
    assert f.info.residual_history[-1] <= NEWTON_TOL
    assert np.array_equal(f.theta, np.broadcast_to(grid.phi, f.theta.shape))
    s = (grid.t - grid.t[0]) / grid.modulus
    for line in (rho1 + (rho2 - rho1) * s, f.rho[:, 0] + 0.1 * (rho2 - rho1) * np.sin(np.pi * s)):
        rho = np.repeat(line[:, None], n, axis=1)
        F1, F2 = _system_residual(grid, m, rho, np.zeros_like(rho))
        assert not np.any(F2)
        F = residual_1d(line)
        assert np.max(np.abs(F1 - F[:, None])) <= 1e-12 * np.max(np.abs(F))


@pytest.mark.parametrize("m, rho1, rho2, T", [(FLAT, 0.8, 1.0, math.log(2)),
                                              (HYP, 0.5, 1.0, 0.6), (SPH, 0.5, 1.2, 0.5)])
def test_warm_start_profile_ends_without_a_long_failed_search(monkeypatch, m, rho1, rho2, T):
    t = AnnulusGrid(1.0, math.exp(T), 128, 128).t
    reference = _halving_profile(m, rho1, rho2, t)
    calls = []
    dG2 = m.dG2
    monkeypatch.setattr(m, "dG2", lambda r: calls.append(1) or dG2(r))
    profile, _ = _radial_discrete_profile(m, rho1, rho2, t)
    assert np.max(np.abs(profile - reference)) <= 1e-12
    # a full 30-halving search that fails costs 30 dG2 calls on its own
    assert len(calls) < 30


def _roll_d_phi(F, h):
    return (-np.roll(F, -2, axis=1) + 8 * np.roll(F, -1, axis=1)
            - 8 * np.roll(F, 1, axis=1) + np.roll(F, 2, axis=1)) / (12 * h)


def _roll_d_phi2(F, h):
    return (-np.roll(F, -2, axis=1) + 16 * np.roll(F, -1, axis=1) - 30 * F
            + 16 * np.roll(F, 1, axis=1) - np.roll(F, 2, axis=1)) / (12 * h**2)


def test_wrap_padded_stencils_match_np_roll():
    rng = np.random.default_rng(3)
    h = 2 * np.pi / 48
    fields = [rng.normal(size=(20, 48)),
              rng.normal(size=(20, 48)) + 1j * rng.normal(size=(20, 48)),
              rng.integers(-1000, 1000, size=(20, 48))]
    for F in fields:
        for new, old in ((d_phi(F, h), _roll_d_phi(F, h)), (d_phi2(F, h), _roll_d_phi2(F, h))):
            assert new.dtype == old.dtype
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
        rolled = (F[2:], F[:-2], np.roll(F, -1, axis=1)[1:-1], np.roll(F, 1, axis=1)[1:-1])
        for new, old in zip(_neighbours(F), rolled):
            assert new.dtype == old.dtype and np.array_equal(new, old)


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


def test_warm_verify_reaches_no_sparse_factorisation(monkeypatch):
    import scipy.sparse
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built or factorised on the warm path")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", refuse)
    monkeypatch.setattr(scipy.sparse, "diags", refuse)
    runs = _spy_banded_newton(monkeypatch)
    for m, rho1, rho2, T in ((FLAT, 0.8, 1.0, math.log(2)), (HYP, 0.5, 1.0, 0.6),
                             (SPH, 0.5, 1.2, 0.5)):
        report = verify_end_to_end(m, 1.0, math.exp(T), rho1, rho2, n_r=64, n_theta=64)
        assert report.provenance["newton_iterations"] == runs[-1][1] >= 1
        assert report.provenance["final_system_residual"] <= NEWTON_TOL
        assert all(block["ok"] for block in report.subchecks.values())


@pytest.mark.parametrize("m, rho1, rho2, T", [(FLAT, 0.8, 1.0, math.log(2)),
                                              (HYP, 0.5, 1.0, 0.6), (SPH, 0.5, 1.2, 0.5)])
def test_banded_warm_start_step_matches_a_dense_solve(monkeypatch, m, rho1, rho2, T):
    from nitsche_lab import pde

    steps = []
    damped_newton = pde._damped_newton

    def spy(residual, newton_step, x, tol, max_iter):
        def checked_step(rho, F):  # the 1-D step against the dense tridiagonal solve
            h, off = grid.h_t, np.full(len(rho) - 3, 1 / grid.h_t**2)
            A = np.diag(off, 1) + np.diag(off, -1)
            A += np.diag(-2 / h**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1])))
            step = newton_step(rho, F)
            steps.append((rho, step[1:-1], np.linalg.solve(A, -F)))
            return step
        return damped_newton(residual, checked_step, x, tol, max_iter)

    monkeypatch.setattr(pde, "_damped_newton", spy)
    for n in (64, 128):
        grid = AnnulusGrid(1.0, math.exp(T), n, n)
        first = len(steps)
        f = solve_dirichlet(grid, m, rho1, rho2)
        # the iterates stepped from, and the end: one more than the steps taken
        iterates = {rho.tobytes() for rho, _, _ in steps[first:]} | {f.rho[:, 0].tobytes()}
        assert f.info.iterations == len(iterates) - 1 >= 1
        assert f.info.residual_history[-1] <= NEWTON_TOL
    assert steps
    for _, banded, dense in steps:
        assert np.max(np.abs(banded - dense)) <= 1e-13


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
