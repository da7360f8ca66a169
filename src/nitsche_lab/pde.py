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
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, DomainError
from .grid import AnnulusGrid, AnnulusMap, SolveInfo, d_phi, d_phi2, d_t, d_t2
from .metrics import CurvatureBound, RotMetric, psi_sharp

NEWTON_TOL = 1e-8  # max residual of the discrete 2-D system at convergence
NEWTON_MAX_ITER = 50


def _log_density_sq_w(m: RotMetric, w: np.ndarray) -> np.ndarray:
    """d/dw of log h(|w|)^2 = h'(|w|) conj(w) / (h(|w|) |w|)."""
    s = np.abs(w)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = m.density_prime(s) * np.conj(w) / (m.density(s) * s)
    return np.where(s > 0, out, 0.0)


def _chart_derivatives(f: AnnulusMap):
    """The chart field F = g(rho) e^{i theta} and its 4th-order f_zeta, f_zetabar."""
    g = f.grid
    F = f.chart_field()
    f_t, f_p = d_t(F, g.h_t), d_phi(F, g.h_phi)
    return F, 0.5 * (f_t - 1j * f_p), 0.5 * (f_t + 1j * f_p)


def _hopf_log_chart(f: AnnulusMap) -> np.ndarray:
    """Log-chart Hopf field h^2(|f|) f_zeta conj(f_zetabar)."""
    F, f_zeta, f_zetabar = _chart_derivatives(f)
    return f.metric.density(np.abs(F)) ** 2 * f_zeta * np.conj(f_zetabar)


def harmonicity_residual(f: AnnulusMap) -> np.ndarray:
    """Per-node complex defect of the map equation, in the z chart.

    Computed from the chart field g(rho) e^{i theta} with 4th-order centered
    differences in (log r, theta); the two rows nearest each radial boundary
    are NaN (no centered stencil there).
    """
    g = f.grid
    F, f_zeta, f_zetabar = _chart_derivatives(f)
    lap = d_t2(F, g.h_t) + d_phi2(F, g.h_phi)
    defect_zeta = 0.25 * lap + _log_density_sq_w(f.metric, F) * f_zeta * f_zetabar
    return np.exp(-2 * g.mesh()[0]) * defect_zeta


def residual_norm(f: AnnulusMap) -> float:
    """Max |harmonicity residual| over the interior rows."""
    return float(np.nanmax(np.abs(harmonicity_residual(f))))


def hopf_differential(f: AnnulusMap) -> np.ndarray:
    """Discrete Hopf differential field h^2(|f|) f_z conj(f_zbar) (z chart)."""
    T, PHI = f.grid.mesh()
    return _hopf_log_chart(f) / np.exp(2 * (T + 1j * PHI))


def hopf_dbar_norm(f: AnnulusMap) -> float:
    """Max |dbar of the Hopf differential| (log-chart coefficient), interior rows.

    Zero (to truncation order) iff the map is harmonic: holomorphy of the
    Hopf differential characterises harmonicity.
    """
    g = f.grid
    P = _hopf_log_chart(f)
    return float(np.nanmax(np.abs(0.5 * (d_t(P, g.h_t) + 1j * d_phi(P, g.h_phi)))))


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


def _neighbours(x: np.ndarray):
    """The (+t, -t, +phi, -phi) neighbours of the interior rows of x, periodic in phi."""
    return x[2:], x[:-2], np.roll(x, -1, axis=1)[1:-1], np.roll(x, 1, axis=1)[1:-1]


def _lap5(g: AnnulusGrid, x: np.ndarray) -> np.ndarray:
    """5-point Laplacian of x on the interior rows, periodic in phi."""
    x_tp, x_tm, x_pp, x_pm = _neighbours(x)
    return (x_tp - 2 * x[1:-1] + x_tm) / g.h_t**2 + (x_pp - 2 * x[1:-1] + x_pm) / g.h_phi**2


def _stencil(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """2nd-order 5-point state of (rho, u = theta - phi) on the interior rows.

    ``lap`` is :func:`_lap5` of rho; ``u_t`` and ``theta_p`` the centred
    D_t u and D_phi theta, ``ang = u_t^2 + theta_p^2``; ``dG2`` is (G^2)'(rho)
    on all rows; ``a`` holds G^2 at the (+t, -t, +phi, -phi) half nodes,
    ``du_t`` and ``tau`` the one-sided D_t u and D_phi theta at the (+, -) ones.
    """
    ht, hp = g.h_t, g.h_phi
    u_tp, u_tm, u_pp, u_pm = _neighbours(u)
    a = np.asarray(m.G(rho)) ** 2
    u_t = (u_tp - u_tm) / (2 * ht)
    theta_p = 1.0 + (u_pp - u_pm) / (2 * hp)
    return SimpleNamespace(
        lap=_lap5(g, rho), u_t=u_t, theta_p=theta_p, ang=u_t**2 + theta_p**2,
        dG2=np.asarray(m.dG2(rho)),
        a=tuple(0.5 * (a[1:-1] + a_k) for a_k in _neighbours(a)),
        du_t=((u_tp - u[1:-1]) / ht, (u[1:-1] - u_tm) / ht),
        tau=(1.0 + (u_pp - u[1:-1]) / hp, 1.0 + (u[1:-1] - u_pm) / hp),
    )


@dataclass
class GreenChain:
    """Flux/area pair of the Green identity on {r1 <= |z| <= sigma}."""

    flux: float
    area: float
    inner_flux: float
    sigma: float


def green_stations(f: AnnulusMap, sigmas):
    """Green chains at the half-node circles nearest each sigma, from one table.

    Returns (sigma_k, flux_k, area_k, inner_flux): the snapped radii, the
    circle fluxes of d rho/dt there, the area integrals of the 5-point lap(rho)
    from the innermost half node, and the flux through that node.  Fluxes use
    forward differences, so flux_k - inner_flux = area_k up to roundoff.
    """
    g = f.grid
    t_half = 0.5 * (g.t[:-1] + g.t[1:])
    k = np.argmin(np.abs(t_half[:, None] - np.log(sigmas)), axis=0)
    flux = (f.rho[1:] - f.rho[:-1]).sum(axis=1) * g.h_phi / g.h_t
    area = np.concatenate([[0.0], np.cumsum(_lap5(g, f.rho).sum(axis=1))]) * g.h_t * g.h_phi
    return np.exp(t_half[k]), flux[k], area[k], float(flux[0])


def green_chain(f: AnnulusMap, sigma: float) -> GreenChain:
    """Circle flux of d rho/d sigma and the area integral of lap(rho).

    Fluxes live on radial half-nodes (forward differences), which makes the
    discrete identity flux(sigma) - flux(r1+) = area exact up to roundoff.
    Off-half-node sigma is snapped to the nearest one with a warning.
    """
    g = f.grid
    if not g.r1 <= sigma <= g.r2:
        raise DomainError("sigma must lie inside the annulus")
    (snapped,), (flux,), (area,), inner = green_stations(f, [sigma])
    if abs(math.log(snapped) - math.log(sigma)) > 1e-12:
        warnings.warn(f"sigma = {sigma:.6g} snapped to the half-node circle "
                      f"|z| = {snapped:.6g}", stacklevel=2)
    return GreenChain(flux=float(flux), area=float(area), inner_flux=inner, sigma=float(snapped))


def _damped_newton(residual, newton_step, x: np.ndarray, tol: float, max_iter: int):
    """Damped Newton on the state array x (``residual(x)``: None if inadmissible).

    ``newton_step(x, F)`` is the full step, shaped like x.  It is halved (at
    most 30 times) until an admissible trial lowers max|F|; a trial that
    rounds back to x ends the search, since every shorter one does too.
    Returns (x, history of max|F|, converged), stopping once max|F| <= tol,
    at a max|F| that is not finite, at the first failed search, or after
    ``max_iter`` steps.
    """
    F = residual(x)
    history = [float(np.max(np.abs(F)))]
    while tol < history[-1] < math.inf and len(history) <= max_iter:
        dx = newton_step(x, F)
        for k in range(30):
            trial = x + 0.5**k * dx
            if np.array_equal(trial, x):
                return x, history, False
            F_trial = residual(trial)
            if F_trial is not None and np.max(np.abs(F_trial)) < history[-1]:
                break
        else:
            return x, history, False
        x, F = trial, F_trial
        history.append(float(np.max(np.abs(F))))
    return x, history, history[-1] <= tol


def _radial_discrete_profile(m: RotMetric, rho1: float, rho2: float,
                             t: np.ndarray) -> np.ndarray:
    """Solve the 1-D discrete two-point problem D_tt rho = rhs(rho) by Newton, to 1e-12."""
    h = t[1] - t[0]

    def residual(rho):  # None outside the metric range
        if np.all(rho < m.rho_max) and np.all(rho > 0):
            return (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / h**2 - 0.5 * np.asarray(m.dG2(rho[1:-1]))

    def newton_step(rho, F):
        diag = -2 / h**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1]))
        off = np.full(len(t) - 3, 1 / h**2)
        step = np.zeros_like(rho)
        step[1:-1] = spla.spsolve(sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csc"), -F)
        return step

    rho = rho1 + (rho2 - rho1) * (t - t[0]) / (t[-1] - t[0])
    return _damped_newton(residual, newton_step, rho, 1e-12, 80)[0]


def _system_residual(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Residuals (F1, F2) of the 2nd-order discrete system on interior rows."""
    s = _stencil(g, m, rho, u)
    (a_tp, a_tm, a_pp, a_pm), (du_tp, du_tm), (tau_p, tau_m) = s.a, s.du_t, s.tau
    F1 = s.lap - 0.5 * s.dG2[1:-1] * s.ang
    F2 = (a_tp * du_tp - a_tm * du_tm) / g.h_t + (a_pp * tau_p - a_pm * tau_m) / g.h_phi
    return F1, F2


def _assemble_jacobian(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Sparse Jacobian of (F1, F2) w.r.t. interior (rho, u): four 5-point blocks."""
    ht, hp = g.h_t, g.h_phi
    s = _stencil(g, m, rho, u)
    (a_tp, a_tm, a_pp, a_pm), (du_tp, du_tm), (tau_p, tau_m) = s.a, s.du_t, s.tau
    N = (g.n_r - 2) * g.n_theta
    # interior unknowns numbered row by row; the -1 boundary rows drop out
    index = np.pad(np.arange(N).reshape(-1, g.n_theta), ((1, 1), (0, 0)), constant_values=-1)
    cols = np.stack([index[1:-1], *_neighbours(index)], axis=-1).reshape(N, 5)
    keep = cols >= 0
    ij = (np.nonzero(keep)[0], cols[keep])

    def block(*coeffs):  # (centre, +t, -t, +phi, -phi)
        vals = np.stack(np.broadcast_arrays(*coeffs), axis=-1).reshape(N, 5)
        return sp.coo_matrix((vals[keep], ij), shape=(N, N))

    dG2 = s.dG2[1:-1]
    dG2_tp, dG2_tm, dG2_pp, dG2_pm = _neighbours(s.dG2)
    return sp.bmat([
        [block(-2 / ht**2 - 2 / hp**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1])) * s.ang,
               1 / ht**2, 1 / ht**2, 1 / hp**2, 1 / hp**2),
         block(0.0, -dG2 * s.u_t / (2 * ht), dG2 * s.u_t / (2 * ht),
               -dG2 * s.theta_p / (2 * hp), dG2 * s.theta_p / (2 * hp))],
        # d F2 / d rho through a = G^2(rho); half-node values average the nodes
        [block(0.5 * dG2 * (du_tp / ht - du_tm / ht + tau_p / hp - tau_m / hp),
               0.5 * dG2_tp * du_tp / ht, -0.5 * dG2_tm * du_tm / ht,
               0.5 * dG2_pp * tau_p / hp, -0.5 * dG2_pm * tau_m / hp),
         block(-(a_tp + a_tm) / ht**2 - (a_pp + a_pm) / hp**2,
               a_tp / ht**2, a_tm / ht**2, a_pp / hp**2, a_pm / hp**2)],
    ], format="csc")


def solve_dirichlet(grid: AnnulusGrid, m: RotMetric, rho1: float, rho2: float,
                    warm_start: bool = True) -> AnnulusMap:
    """Damped-Newton solution of the discrete map equation with symmetric data.

    Boundary data: rho = rho1 on |z| = r1, rho = rho2 on |z| = r2, and
    theta = arg z on both circles, admitted by :meth:`RotMetric.check_annulus`.
    Terminates when the max residual of the discrete system falls below
    ``NEWTON_TOL``; raises :class:`DivergenceError` at the first failed line
    search or after ``NEWTON_MAX_ITER`` steps.  The returned map carries a
    :class:`SolveInfo`.

    ``warm_start=True`` seeds Newton with the 1-D discrete radial solution
    (the exact answer for symmetric data); ``False`` starts from the linear
    interpolant, forcing the full 2-D iteration.
    """
    m.check_annulus(rho1, rho2)
    if warm_start:
        rho_line = _radial_discrete_profile(m, rho1, rho2, grid.t)
    else:
        rho_line = rho1 + (rho2 - rho1) * (grid.t - grid.t[0]) / grid.modulus
    x = np.zeros((2, grid.n_r, grid.n_theta))  # rho and u = theta - phi
    x[0] = rho_line[:, None]

    def residual(x):  # None outside the metric range
        if np.all(x[0] > 0) and np.all(x[0] < m.rho_max):
            return np.stack(_system_residual(grid, m, *x))

    def newton_step(x, F):
        step = np.zeros_like(x)
        step[:, 1:-1] = spla.spsolve(_assemble_jacobian(grid, m, *x),
                                     -F.ravel()).reshape(2, grid.n_r - 2, -1)
        return step

    x, history, converged = _damped_newton(residual, newton_step, x, NEWTON_TOL, NEWTON_MAX_ITER)
    if not converged:
        raise DivergenceError(f"Newton stopped at residual {history[-1]:.3e} > {NEWTON_TOL:.1e} "
                              f"after {len(history) - 1} iterations")
    info = SolveInfo(True, len(history) - 1, history, "converged")
    return AnnulusMap(grid=grid, rho=x[0], theta=grid.mesh()[1] + x[1], metric=m, info=info)
