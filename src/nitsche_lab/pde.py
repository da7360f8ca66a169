"""
Discrete harmonic-map machinery on annulus grids
================================================

Everything here works in the conformal coordinate ``zeta = log z``: the map
equation splits into the coupled real system::

    rho_tt + rho_pp = (1/2) d(G^2)/d rho * (theta_t^2 + theta_p^2)
    d/dt (G^2 theta_t) + d/dp (G^2 theta_p) = 0

With symmetric boundary data the solution is radial, ``rho(t)`` with
``theta = phi``, and the grid's rows are equal steps in ``t``: so the grid map
is the first-integral profile of :func:`radial.solve_bvp`, read at the rows,
and the package has one radial solver.  The complex-form defect
``f_{z zbar} + (log p^2)_w f_z f_zbar`` is evaluated independently (4th-order
stencils) as a cross-check, together with the Hopf differential, the pointwise
Laplacian lower bound, and the Green's-formula flux/area chain; the residual of
the 2nd-order discrete system measures the profile's truncation error on the grid.
The 2-D residual, the defect and the Laplacian margin of a solved map run on row
strips, each padded once in phi with its halo rows: no grid-sized temporaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import AnnulusGrid, AnnulusMap, d_first, d_second, row_strips, wrap_pad
from .metrics import CurvatureBound, RotMetric, psi_sharp
from .radial import NoSolution, solve_bvp


def _hopf_log_chart(f: AnnulusMap) -> np.ndarray:
    """Log-chart Hopf field h^2(|f|) f_zeta conj(f_zetabar) on rows 2..n_r-3, 4th order."""
    g = f.grid
    B = wrap_pad(f.chart_field(), 2)
    f_t, f_p = d_first(B, g.h_t, 0), d_first(B, g.h_phi, 1)
    f_zeta, f_zetabar = 0.5 * (f_t - 1j * f_p), 0.5 * (f_t + 1j * f_p)
    return f.metric.density(np.abs(B[2:-2, 2:-2])) ** 2 * f_zeta * np.conj(f_zetabar)


def _harmonicity_strips(f: AnnulusMap):
    """The defect of the map equation on each row strip, from the chart field."""
    g, m = f.grid, f.metric
    scale = 0.25 * np.exp(-2 * g.t)
    for lo, hi in row_strips(2, g.n_r - 2):
        B = wrap_pad(f.chart_field(slice(lo - 2, hi + 2)), 2)
        F = B[2:-2, 2:-2]
        s = np.abs(F)
        with np.errstate(invalid="ignore", divide="ignore"):  # L = (log h^2)_w = conj(F) h'/(h s)
            defect = np.conj(F) * np.where(s > 0, m.density_prime(s) / (m.density(s) * s), 0.0)
        # 4 (f_zetazetabar + L f_zeta f_zetabar) = L (f_t^2 + f_p^2) + lap F, summed in one buffer
        defect *= np.square(d_first(B, g.h_t, 0)) + np.square(d_first(B, g.h_phi, 1))
        defect += d_second(B, g.h_t, 0)
        defect += d_second(B, g.h_phi, 1)
        defect *= scale[lo:hi, None]
        yield defect


def harmonicity_residual(f: AnnulusMap) -> np.ndarray:
    """Per-node complex defect of the map equation, in the z chart.

    Computed from the chart field g(rho) e^{i theta} with 4th-order centered
    differences in (log r, theta), strip by strip; the two rows nearest each
    radial boundary are NaN (no centered stencil there).
    """
    defect = np.concatenate(list(_harmonicity_strips(f)))
    return np.pad(defect, ((2, 2), (0, 0)), constant_values=np.nan)


def residual_norm(f: AnnulusMap) -> float:
    """Max |harmonicity residual| over the interior rows, read strip by strip."""
    return float(np.nanmax([np.nanmax(np.abs(d)) for d in _harmonicity_strips(f)]))


def hopf_differential(f: AnnulusMap) -> np.ndarray:
    """Discrete Hopf differential field h^2(|f|) f_z conj(f_zbar) (z chart)."""
    T, PHI = f.grid.mesh()
    P = np.pad(_hopf_log_chart(f), ((2, 2), (0, 0)), constant_values=np.nan)
    return P / np.exp(2 * (T + 1j * PHI))


def hopf_dbar_norm(f: AnnulusMap) -> float:
    """Max |dbar of the Hopf differential| (log-chart coefficient), interior rows.

    Zero (to truncation order) iff the map is harmonic: holomorphy of the
    Hopf differential characterises harmonicity.
    """
    g = f.grid
    B = wrap_pad(_hopf_log_chart(f), 2)
    return float(np.nanmax(np.abs(0.5 * (d_first(B, g.h_t, 0) + 1j * d_first(B, g.h_phi, 1)))))


def laplacian_bound_check(f: AnnulusMap, bound: CurvatureBound | None = None) -> np.ndarray:
    """Per-node margin lap(rho) - psi_sharp(rho) |grad theta|^2, log-chart units.

    ``psi_sharp`` is the model-space coefficient h_c * Ghat^2 (equal to
    sinh(2 k rho)/(2k), rho, sin(2 k rho)/(2k)); the margin vanishes
    identically for constant-curvature metrics and is nonnegative, up to
    discretisation error, whenever the metric's curvature stays below the
    bound.  Evaluated strip by strip; NaN on the edge rows.
    """
    if bound is None:
        bound = f.metric.bound
    if bound is None:
        raise DomainError("no curvature bound attached to the metric; pass one explicitly")
    g = f.grid
    out = np.full(f.rho.shape, np.nan)
    for lo, hi in row_strips(2, g.n_r - 2):
        rows = slice(lo - 2, hi + 2)
        # differentiate the periodic part of the lift: theta = phi + u
        R, U = wrap_pad(f.rho[rows], 2), wrap_pad(f.theta[rows] - g.phi, 2)
        lap_rho = d_second(R, g.h_t, 0) + d_second(R, g.h_phi, 1)
        grad_theta_sq = d_first(U, g.h_t, 0) ** 2 + (1.0 + d_first(U, g.h_phi, 1)) ** 2
        out[lo:hi] = lap_rho - psi_sharp(bound, f.rho[lo:hi]) * grad_theta_sq
    return out


def _lap5(g: AnnulusGrid, x: np.ndarray) -> np.ndarray:
    """5-point Laplacian of x on the interior rows, periodic in phi."""
    p = wrap_pad(x[1:-1], 1)
    return ((x[2:] - 2 * x[1:-1] + x[:-2]) / g.h_t**2
            + (p[:, 2:] - 2 * x[1:-1] + p[:, :-2]) / g.h_phi**2)


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


def _system_residual_strips(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Residuals [F1, F2] of the 2nd-order discrete system, one array per row strip.

    F1 is the 5-point lap(rho) minus (1/2)(G^2)'(rho) |grad theta|^2 from centred
    differences of u = theta - phi; F2 differences the G^2-weighted fluxes through
    the half nodes, G^2 averaged there.  A strip reads one halo row on each side.
    """
    ht, hp = g.h_t, g.h_phi
    for lo, hi in row_strips(1, g.n_r - 1):
        rows = slice(lo - 1, hi + 1)
        G, Gp = m._g_and_prime(rho[rows])
        a, u_p = wrap_pad(G**2, 1), wrap_pad(u[rows], 1)
        u_t = (u_p[2:, 1:-1] - u_p[:-2, 1:-1]) / (2 * ht)
        theta_p = 1.0 + (u_p[1:-1, 2:] - u_p[1:-1, :-2]) / (2 * hp)
        q_t = 0.5 * (a[:-1, 1:-1] + a[1:, 1:-1]) * ((u_p[1:, 1:-1] - u_p[:-1, 1:-1]) / ht)
        q_p = 0.5 * (a[1:-1, :-1] + a[1:-1, 1:]) * (1.0 + (u_p[1:-1, 1:] - u_p[1:-1, :-1]) / hp)
        F1 = _lap5(g, rho[rows]) - 0.5 * (2.0 * G[1:-1] * Gp[1:-1]) * (u_t**2 + theta_p**2)
        yield np.stack([F1, (q_t[1:] - q_t[:-1]) / ht + (q_p[:, 1:] - q_p[:, :-1]) / hp])


def _system_residual(g: AnnulusGrid, m: RotMetric, rho: np.ndarray, u: np.ndarray):
    """Residuals (F1, F2) of the 2nd-order discrete system on interior rows, one array."""
    return np.concatenate(list(_system_residual_strips(g, m, rho, u)), axis=1)


def solve_dirichlet(grid: AnnulusGrid, m: RotMetric, rho1: float, rho2: float):
    """The map with symmetric data: :func:`solve_bvp`'s radial profile at the grid's rows.

    Boundary data: rho = rho1 on |z| = r1, rho = rho2 on |z| = r2, and
    theta = arg z on both circles, admitted by :meth:`RotMetric.check_annulus`.
    The solution is rho(log|z|) with theta = arg z, and ``solve_bvp(m, rho1,
    rho2, Mod, n_r - 1)`` samples its first-integral profile on nodes that are
    exactly the grid's rows, so each row carries the profile's value with no
    interpolation.  The map carries that :class:`RadialProfile` (its ``slope0``,
    ``residual`` and ``boundary_error``).  Returns :class:`NoSolution` exactly
    where ``solve_bvp`` does: no monotone radial map has this modulus.
    """
    prof = solve_bvp(m, rho1, rho2, grid.modulus, n_steps=grid.n_r - 1)
    if isinstance(prof, NoSolution):
        return prof
    rho = np.repeat(prof.rho[:, None], grid.n_theta, axis=1)
    theta = np.repeat(grid.phi[None, :], grid.n_r, axis=0)
    return AnnulusMap(grid=grid, rho=rho, theta=theta, metric=m, profile=prof)
