"""
Discrete harmonic-map machinery on annulus grids
================================================

Everything here works in the conformal coordinate ``zeta = log z``: the map
equation splits into the coupled real system::

    rho_tt + rho_pp = (1/2) d(G^2)/d rho * (theta_t^2 + theta_p^2)
    d/dt (G^2 theta_t) + d/dp (G^2 theta_p) = 0

With symmetric boundary data the 2nd-order 5-point system is the radial
line row by row, so the grid solve is that line, solved by a banded damped
Newton iteration and checked against the 2-D residual.  The complex-form
defect ``f_{z zbar} + (log p^2)_w f_z f_zbar`` is evaluated independently
(4th-order stencils) as a cross-check, together with the Hopf differential,
the pointwise Laplacian lower bound, and the Green's-formula flux/area chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .grid import AnnulusGrid, AnnulusMap, SolveInfo, d_phi, d_phi2, d_t, d_t2, wrap_pad
from .metrics import CurvatureBound, RotMetric, psi_sharp

NEWTON_TOL = 1e-8  # max residual of the discrete 2-D system at an accepted field


def _hopf_log_chart(f: AnnulusMap) -> np.ndarray:
    """Log-chart Hopf field h^2(|f|) f_zeta conj(f_zetabar), 4th-order in (t, phi)."""
    g = f.grid
    F = f.chart_field()
    f_t, f_p = d_t(F, g.h_t), d_phi(F, g.h_phi)
    f_zeta, f_zetabar = 0.5 * (f_t - 1j * f_p), 0.5 * (f_t + 1j * f_p)
    return f.metric.density(np.abs(F)) ** 2 * f_zeta * np.conj(f_zetabar)


def harmonicity_residual(f: AnnulusMap) -> np.ndarray:
    """Per-node complex defect of the map equation, in the z chart.

    Computed from the chart field g(rho) e^{i theta} with 4th-order centered
    differences in (log r, theta); the two rows nearest each radial boundary
    are NaN (no centered stencil there).
    """
    g, m = f.grid, f.metric
    F = f.chart_field()
    f_t, f_p, s = d_t(F, g.h_t), d_phi(F, g.h_phi), np.abs(F)
    with np.errstate(invalid="ignore", divide="ignore"):  # L = (log h^2)_w = conj(F) h'/(h s)
        L = np.conj(F) * np.where(s > 0, m.density_prime(s) / (m.density(s) * s), 0.0)
    # 4 (f_zetazetabar + L f_zeta f_zetabar) = lap F + L (f_t^2 + f_p^2), summed in one buffer
    defect = d_t2(F, g.h_t)
    defect += d_phi2(F, g.h_phi)
    defect += L * (f_t * f_t + f_p * f_p)
    defect *= 0.25 * np.exp(-2 * g.t)[:, None]
    return defect


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
    u = f.theta - g.phi
    grad_theta_sq = d_t(u, g.h_t) ** 2 + (1.0 + d_phi(u, g.h_phi)) ** 2
    return lap_rho - psi_sharp(bound, f.rho) * grad_theta_sq


def _neighbours(x: np.ndarray):
    """The (+t, -t, +phi, -phi) neighbours of the interior rows of x, periodic in phi."""
    p = wrap_pad(x[1:-1], 1)
    return x[2:], x[:-2], p[:, 2:], p[:, :-2]


def _lap5(g: AnnulusGrid, x: np.ndarray) -> np.ndarray:
    """5-point Laplacian of x on the interior rows, periodic in phi."""
    x_tp, x_tm, x_pp, x_pm = _neighbours(x)
    return (x_tp - 2 * x[1:-1] + x_tm) / g.h_t**2 + (x_pp - 2 * x[1:-1] + x_pm) / g.h_phi**2


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
    Returns (x, history of max|F|), stopping once max|F| <= tol, at a max|F|
    that is not finite (an inadmissible start counts as inf), at the first
    failed search, or after ``max_iter`` steps.
    """
    F = residual(x)
    history = [math.inf if F is None else float(np.max(np.abs(F)))]
    while tol < history[-1] < math.inf and len(history) <= max_iter:
        dx = newton_step(x, F)
        for k in range(30):
            trial = x + 0.5**k * dx
            if np.array_equal(trial, x):
                return x, history
            F_trial = residual(trial)
            if F_trial is not None and np.max(np.abs(F_trial)) < history[-1]:
                break
        else:
            return x, history
        x, F = trial, F_trial
        history.append(float(np.max(np.abs(F))))
    return x, history


def _radial_discrete_profile(m: RotMetric, rho1: float, rho2: float, t: np.ndarray):
    """Solve the 1-D discrete two-point problem D_tt rho = rhs(rho) by Newton.

    Returns the line and the max|F| history of its banded damped-Newton loop,
    which aims at 1e-12 and ends where round-off stops the steps (about 1e-11
    at 128 nodes).
    """
    from scipy.linalg import solve_banded

    h = t[1] - t[0]

    def residual(rho):  # None outside the metric range
        if np.all(rho < m.rho_max) and np.all(rho > 0):
            return (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / h**2 - 0.5 * np.asarray(m.dG2(rho[1:-1]))

    def newton_step(rho, F):  # tridiagonal; unchecked, so a non-finite step fails the search
        ab = np.full((3, len(t) - 2), 1 / h**2)
        ab[1] = -2 / h**2 - 0.5 * np.asarray(m.d2G2(rho[1:-1]))
        step = np.zeros_like(rho)
        step[1:-1] = solve_banded((1, 1), ab, -F, check_finite=False)
        return step

    rho = rho1 + (rho2 - rho1) * (t - t[0]) / (t[-1] - t[0])
    return _damped_newton(residual, newton_step, rho, 1e-12, 80)


def _system_residual(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Residuals (F1, F2) of the 2nd-order discrete system on interior rows, one array.

    F1 is the 5-point lap(rho) minus (1/2)(G^2)'(rho) |grad theta|^2 from centred
    differences of u = theta - phi; F2 differences the G^2-weighted fluxes through
    the half nodes, G^2 averaged there from one phi-padded copy.
    """
    ht, hp = g.h_t, g.h_phi
    a = np.asarray(m.G(rho)) ** 2
    a_p, u_p = wrap_pad(a[1:-1], 1), wrap_pad(u[1:-1], 1)
    u_t = (u[2:] - u[:-2]) / (2 * ht)
    theta_p = 1.0 + (u_p[:, 2:] - u_p[:, :-2]) / (2 * hp)
    q_t = 0.5 * (a[:-1] + a[1:]) * ((u[1:] - u[:-1]) / ht)
    q_p = 0.5 * (a_p[:, :-1] + a_p[:, 1:]) * (1.0 + (u_p[:, 1:] - u_p[:, :-1]) / hp)
    return np.stack([_lap5(g, rho) - 0.5 * np.asarray(m.dG2(rho))[1:-1] * (u_t**2 + theta_p**2),
                     (q_t[1:] - q_t[:-1]) / ht + (q_p[:, 1:] - q_p[:, :-1]) / hp])


def solve_dirichlet(grid: AnnulusGrid, m: RotMetric, rho1: float, rho2: float) -> AnnulusMap:
    """The discrete map with symmetric data: the radial line, checked on the grid.

    Boundary data: rho = rho1 on |z| = r1, rho = rho2 on |z| = r2, and
    theta = arg z on both circles, admitted by :meth:`RotMetric.check_annulus`.
    At a phi-independent rho with theta = phi the 2-D system is the 1-D
    radial one row by row (F2 vanishes, F1 is the line's residual), so the
    line of :func:`_radial_discrete_profile` is broadcast to the grid and
    accepted when the max residual of the 2-D system is at most
    ``NEWTON_TOL``; otherwise :class:`DivergenceError`.  The returned map
    carries a :class:`SolveInfo` of the banded Newton loop whose last history
    entry is that 2-D residual.
    """
    m.check_annulus(rho1, rho2)
    rho_line, history = _radial_discrete_profile(m, rho1, rho2, grid.t)
    rho = np.repeat(rho_line[:, None], grid.n_theta, axis=1)
    u = np.zeros_like(rho)
    residual = math.inf  # an inadmissible line has no residual
    if np.all(rho_line > 0) and np.all(rho_line < m.rho_max):
        residual = float(np.max(np.abs(_system_residual(grid, m, rho, u))))
    if not residual <= NEWTON_TOL:
        raise DivergenceError(f"the radial line leaves the 2-D system at residual {residual:.3e} "
                              f"> {NEWTON_TOL:.1e} after {len(history) - 1} banded Newton steps")
    info = SolveInfo(len(history) - 1, history[:-1] + [residual])
    return AnnulusMap(grid=grid, rho=rho, theta=grid.phi + u, metric=m, info=info)
