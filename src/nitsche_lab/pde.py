"""
Discrete harmonic-map machinery on annulus grids
================================================

Everything here works in the conformal coordinate ``zeta = log z``: the map
equation splits into the coupled real system::

    rho_tt + rho_pp = (1/2) d(G^2)/d rho * (theta_t^2 + theta_p^2)
    d/dt (G^2 theta_t) + d/dp (G^2 theta_p) = 0

which is solved by a damped Newton iteration on the 2nd-order stencil, while
the complex-form defect ``f_{z zbar} + (log p^2)_w f_z f_zbar`` is evaluated
independently (4th-order stencils) as a cross-check, together with the Hopf
differential, the pointwise Laplacian lower bound, and the Green's-formula
flux/area chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, DomainError
from .grid import AnnulusGrid, AnnulusMap, SolveInfo, d_phi, d_phi2, d_t, d_t2
from .metrics import CurvatureBound, GeodesicAnnulus, RotMetric, psi_sharp


def _log_density_sq_w(m: RotMetric, w: np.ndarray) -> np.ndarray:
    """d/dw of log h(|w|)^2 = h'(|w|) conj(w) / (h(|w|) |w|)."""
    s = np.abs(w)
    if m.density_prime is not None:
        hp = m.density_prime(s)
    else:
        eps = 1e-6
        hp = (m.density(s + eps) - m.density(np.clip(s - eps, 0, None))) / (2 * eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = hp * np.conj(w) / (m.density(s) * s)
    return np.where(s > 0, out, 0.0)


def harmonicity_residual(f: AnnulusMap) -> np.ndarray:
    """Per-node complex defect of the map equation, in the z chart.

    Computed from the chart field g(rho) e^{i theta} with 4th-order centered
    differences in (log r, theta); the two rows nearest each radial boundary
    are NaN (no centered stencil there).
    """
    g = f.grid
    F = f.chart_field()
    f_t, f_p = d_t(F, g.h_t), d_phi(F, g.h_phi)
    f_zeta = 0.5 * (f_t - 1j * f_p)
    f_zetabar = 0.5 * (f_t + 1j * f_p)
    lap = d_t2(F, g.h_t) + d_phi2(F, g.h_phi)
    defect_zeta = 0.25 * lap + _log_density_sq_w(f.metric, F) * f_zeta * f_zetabar
    T, _ = g.mesh()
    return np.exp(-2 * T) * defect_zeta


def residual_norm(f: AnnulusMap) -> float:
    """Max |harmonicity residual| over the interior rows."""
    return float(np.nanmax(np.abs(harmonicity_residual(f))))


def hopf_differential(f: AnnulusMap) -> np.ndarray:
    """Discrete Hopf differential field h^2(|f|) f_z conj(f_zbar) (z chart)."""
    g = f.grid
    F = f.chart_field()
    f_t, f_p = d_t(F, g.h_t), d_phi(F, g.h_phi)
    f_zeta = 0.5 * (f_t - 1j * f_p)
    f_zetabar = 0.5 * (f_t + 1j * f_p)
    T, PHI = g.mesh()
    z2 = np.exp(2 * (T + 1j * PHI))
    return f.metric.density(np.abs(F)) ** 2 * f_zeta * np.conj(f_zetabar) / z2


def hopf_dbar_norm(f: AnnulusMap) -> float:
    """Max |dbar of the Hopf differential| (log-chart coefficient), interior rows.

    Zero (to truncation order) iff the map is harmonic: holomorphy of the
    Hopf differential characterises harmonicity.
    """
    g = f.grid
    F = f.chart_field()
    f_t, f_p = d_t(F, g.h_t), d_phi(F, g.h_phi)
    P = f.metric.density(np.abs(F)) ** 2 * (0.5 * (f_t - 1j * f_p)) * np.conj(
        0.5 * (f_t + 1j * f_p)
    )
    dbar = 0.5 * (d_t(P, g.h_t) + 1j * d_phi(P, g.h_phi))
    return float(np.nanmax(np.abs(dbar)))


def laplacian_bound_check(f: AnnulusMap, bound: CurvatureBound | None = None) -> np.ndarray:
    """Per-node margin lap(rho) - psi_sharp(rho) |grad theta|^2, log-chart units.

    ``psi_sharp`` is the model-space coefficient h_c * Ghat^2 (equal to
    sinh(2 k rho)/(2k), rho, sin(2 k rho)/(2k)); the margin vanishes
    identically for constant-curvature metrics and is nonnegative, up to
    discretisation error, whenever the metric's curvature stays below the
    bound.  NaN on the edge rows.
    """
    if bound is None:
        bound = f.metric.bound
    if bound is None:
        raise DomainError("no curvature bound attached to the metric; pass one explicitly")
    g = f.grid
    lap_rho = d_t2(f.rho, g.h_t) + d_phi2(f.rho, g.h_phi)
    # differentiate the periodic part of the lift: theta = phi + u
    u = f.theta - g.mesh()[1]
    grad_theta_sq = d_t(u, g.h_t) ** 2 + (1.0 + d_phi(u, g.h_phi)) ** 2
    return lap_rho - psi_sharp(bound, f.rho) * grad_theta_sq


@dataclass
class GreenChain:
    """Flux/area pair of the Green identity on {r1 <= |z| <= sigma}."""

    flux: float
    area: float
    inner_flux: float
    sigma: float

    def __iter__(self):
        return iter((self.flux, self.area))


def green_chain(f: AnnulusMap, sigma: float) -> GreenChain:
    """Circle flux of d rho/d sigma and the area integral of lap(rho).

    Fluxes live on radial half-nodes (forward differences), which makes the
    discrete identity flux(sigma) - flux(r1+) = area exact up to roundoff.
    Off-half-node sigma is snapped to the nearest one with a warning.
    """
    g = f.grid
    if not g.r1 <= sigma <= g.r2:
        raise DomainError("sigma must lie inside the annulus")
    t = g.t
    t_half = 0.5 * (t[:-1] + t[1:])
    k = int(np.argmin(np.abs(t_half - math.log(sigma))))
    if abs(t_half[k] - math.log(sigma)) > 1e-12:
        warnings.warn(
            f"sigma = {sigma:.6g} snapped to the half-node circle "
            f"|z| = {math.exp(t_half[k]):.6g}",
            stacklevel=2,
        )
    fluxes = (f.rho[1:] - f.rho[:-1]).sum(axis=1) * g.h_phi / g.h_t
    lap = (f.rho[2:] - 2 * f.rho[1:-1] + f.rho[:-2]) / g.h_t**2 + (
        np.roll(f.rho, -1, axis=1) - 2 * f.rho + np.roll(f.rho, 1, axis=1)
    )[1:-1] / g.h_phi**2
    area = float(lap[:k].sum() * g.h_t * g.h_phi)
    return GreenChain(
        flux=float(fluxes[k]),
        area=area,
        inner_flux=float(fluxes[0]),
        sigma=float(math.exp(t_half[k])),
    )


def _radial_discrete_profile(m: RotMetric, rho1: float, rho2: float,
                             t: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve the 1-D discrete two-point problem D_tt rho = rhs(rho) by Newton."""
    h = t[1] - t[0]
    n = len(t)
    rho = rho1 + (rho2 - rho1) * (t - t[0]) / (t[-1] - t[0])
    for _ in range(80):
        rhs = 0.5 * np.asarray(m.dG2(rho[1:-1]))
        F = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / h**2 - rhs
        err = np.max(np.abs(F))
        if err <= tol:
            break
        diag = -2 / h**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1]))
        A = sp.diags(
            [np.full(n - 3, 1 / h**2), diag, np.full(n - 3, 1 / h**2)],
            offsets=[-1, 0, 1],
            format="csc",
        )
        step = spla.spsolve(A, -F)
        lam, base = 1.0, err
        for _ in range(30):
            trial = rho.copy()
            trial[1:-1] += lam * step
            if np.all(trial < m.rho_max) and np.all(trial > 0):
                rhs_t = 0.5 * np.asarray(m.dG2(trial[1:-1]))
                F_t = (trial[2:] - 2 * trial[1:-1] + trial[:-2]) / h**2 - rhs_t
                if np.max(np.abs(F_t)) < base:
                    rho = trial
                    break
            lam /= 2
        else:
            break
    return rho


def _half_nodes(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """(+, -) half-node pairs on interior rows: a = G^2 along t and phi, D_t u, D_phi theta."""
    a = np.asarray(m.G(rho)) ** 2
    return ((0.5 * (a[1:-1] + a[2:]), 0.5 * (a[1:-1] + a[:-2])),
            (0.5 * (a + np.roll(a, -1, axis=1))[1:-1], 0.5 * (a + np.roll(a, 1, axis=1))[1:-1]),
            ((u[2:] - u[1:-1]) / g.h_t, (u[1:-1] - u[:-2]) / g.h_t),
            (1.0 + (np.roll(u, -1, axis=1) - u)[1:-1] / g.h_phi,
             1.0 + (u - np.roll(u, 1, axis=1))[1:-1] / g.h_phi))


def _system_residual(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Residuals (F1, F2) of the 2nd-order discrete system on interior rows."""
    ht, hp = g.h_t, g.h_phi
    lap_rho = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / ht**2 + (
        np.roll(rho, -1, axis=1) - 2 * rho + np.roll(rho, 1, axis=1)
    )[1:-1] / hp**2
    u_t = (u[2:] - u[:-2]) / (2 * ht)
    theta_p = 1.0 + (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))[1:-1] / (2 * hp)
    ang = u_t**2 + theta_p**2
    dG2 = np.asarray(m.dG2(rho[1:-1]))
    F1 = lap_rho - 0.5 * dG2 * ang

    (a_tp, a_tm), (a_pp, a_pm), (du_tp, du_tm), (tau_p, tau_m) = _half_nodes(g, m, rho, u)
    F2 = (a_tp * du_tp - a_tm * du_tm) / ht + (a_pp * tau_p - a_pm * tau_m) / hp
    return F1, F2


def _assemble_jacobian(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Sparse Jacobian of (F1, F2) w.r.t. interior (rho, u) values."""
    ht, hp = g.h_t, g.h_phi
    nI, nTh = g.n_r - 2, g.n_theta
    N = nI * nTh

    II, JJ = np.meshgrid(np.arange(1, g.n_r - 1), np.arange(nTh), indexing="ij")

    def idx(i, j):
        return (i - 1) * nTh + (j % nTh)

    k0 = idx(II, JJ)
    k_tp, k_tm = idx(II + 1, JJ), idx(II - 1, JJ)
    k_pp, k_pm = idx(II, JJ + 1), idx(II, JJ - 1)
    in_tp, in_tm = (II + 1 <= g.n_r - 2), (II - 1 >= 1)

    u_t = (u[2:] - u[:-2]) / (2 * ht)
    theta_p = 1.0 + (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1))[1:-1] / (2 * hp)
    ang = u_t**2 + theta_p**2
    dG2_int = np.asarray(m.dG2(rho[1:-1]))
    d2G2_int = np.asarray(m.d2G2(rho[1:-1]))
    dG2_all = np.asarray(m.dG2(rho))

    rows, cols, vals = [], [], []

    def add(r, c, v, mask=None):
        if mask is None:
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.broadcast_to(v, r.shape).ravel())
        else:
            rows.append(r[mask])
            cols.append(c[mask])
            vals.append(np.broadcast_to(v, r.shape)[mask])

    # F1 rows (block row 0): d/d rho
    add(k0, k0, -2 / ht**2 - 2 / hp**2 - 0.5 * d2G2_int * ang)
    add(k0, k_tp, np.full(k0.shape, 1 / ht**2), in_tp)
    add(k0, k_tm, np.full(k0.shape, 1 / ht**2), in_tm)
    add(k0, k_pp, np.full(k0.shape, 1 / hp**2))
    add(k0, k_pm, np.full(k0.shape, 1 / hp**2))
    # F1 rows: d/d u (offset N in columns)
    add(k0, k_tp + N, -dG2_int * u_t / (2 * ht), in_tp)
    add(k0, k_tm + N, dG2_int * u_t / (2 * ht), in_tm)
    add(k0, k_pp + N, -dG2_int * theta_p / (2 * hp))
    add(k0, k_pm + N, dG2_int * theta_p / (2 * hp))

    # F2 rows (block row N)
    (a_tp, a_tm), (a_pp, a_pm), (du_tp, du_tm), (tau_p, tau_m) = _half_nodes(g, m, rho, u)

    # d F2 / d u
    add(k0 + N, k0 + N, -(a_tp + a_tm) / ht**2 - (a_pp + a_pm) / hp**2)
    add(k0 + N, k_tp + N, a_tp / ht**2, in_tp)
    add(k0 + N, k_tm + N, a_tm / ht**2, in_tm)
    add(k0 + N, k_pp + N, a_pp / hp**2)
    add(k0 + N, k_pm + N, a_pm / hp**2)
    # d F2 / d rho through a = G^2(rho); half-node values average the nodes
    dG2_tp = dG2_all[2:]
    dG2_tm = dG2_all[:-2]
    dG2_pp = np.roll(dG2_all, -1, axis=1)[1:-1]
    dG2_pm = np.roll(dG2_all, 1, axis=1)[1:-1]
    add(k0 + N, k_tp, 0.5 * dG2_tp * du_tp / ht, in_tp)
    add(k0 + N, k_tm, -0.5 * dG2_tm * du_tm / ht, in_tm)
    add(k0 + N, k_pp, 0.5 * dG2_pp * tau_p / hp)
    add(k0 + N, k_pm, -0.5 * dG2_pm * tau_m / hp)
    add(
        k0 + N,
        k0,
        0.5 * dG2_int * (du_tp / ht - du_tm / ht + tau_p / hp - tau_m / hp),
    )

    J = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * N, 2 * N),
    )
    return J.tocsc()


def solve_dirichlet(grid: AnnulusGrid, m: RotMetric, rho1: float, rho2: float,
                    tol: float = 1e-8, max_iter: int = 50,
                    warm_start: bool = True) -> AnnulusMap:
    """Damped-Newton solution of the discrete map equation with symmetric data.

    Boundary data: rho = rho1 on |z| = r1, rho = rho2 on |z| = r2, and
    theta = arg z on both circles.  Terminates when the max residual of the
    discrete system falls below ``tol``; raises :class:`DivergenceError` if
    the iteration stalls.  The returned map carries a :class:`SolveInfo`.

    ``warm_start=True`` seeds Newton with the 1-D discrete radial solution
    (the exact answer for symmetric data); ``False`` starts from the linear
    interpolant, forcing the full 2-D iteration.
    """
    if m.bound is not None:
        GeodesicAnnulus(rho1, rho2, m.bound)
    elif not 0 < rho1 < rho2:
        raise DomainError("need 0 < rho1 < rho2")
    m.check_rho(rho2)

    if warm_start:
        rho_line = _radial_discrete_profile(m, rho1, rho2, grid.t)
    else:
        rho_line = rho1 + (rho2 - rho1) * (grid.t - grid.t[0]) / grid.modulus
    rho = np.repeat(rho_line[:, None], grid.n_theta, axis=1)
    u = np.zeros_like(rho)

    history = []
    stalls = 0
    for it in range(max_iter):
        F1, F2 = _system_residual(grid, m, rho, u)
        err = max(np.max(np.abs(F1)), np.max(np.abs(F2)))
        history.append(float(err))
        if err <= tol:
            info = SolveInfo(True, it, history, "converged")
            theta = grid.mesh()[1] + u
            return AnnulusMap(grid=grid, rho=rho, theta=theta, metric=m, info=info)
        J = _assemble_jacobian(grid, m, rho, u)
        F = np.concatenate([F1.ravel(), F2.ravel()])
        step = spla.spsolve(J, -F)
        nI = grid.n_r - 2
        d_rho = step[: nI * grid.n_theta].reshape(nI, grid.n_theta)
        d_u = step[nI * grid.n_theta :].reshape(nI, grid.n_theta)
        lam = 1.0
        for _ in range(30):
            rho_try = rho.copy()
            u_try = u.copy()
            rho_try[1:-1] += lam * d_rho
            u_try[1:-1] += lam * d_u
            if np.all(rho_try > 0) and np.all(rho_try < m.rho_max):
                F1t, F2t = _system_residual(grid, m, rho_try, u_try)
                if max(np.max(np.abs(F1t)), np.max(np.abs(F2t))) < err:
                    rho, u = rho_try, u_try
                    break
            lam /= 2
        else:
            stalls += 1
            if stalls >= 3:
                raise DivergenceError(
                    f"Newton stalled at residual {err:.3e} after {it + 1} iterations"
                )
    raise DivergenceError(
        f"no convergence to {tol:.1e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})"
    )
