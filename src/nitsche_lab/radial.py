"""
Radial harmonic maps between annuli
===================================

A rotationally symmetric harmonic map ``w = g(rho(log|z|)) e^{i arg z}`` into
a metric with angular coefficient ``G`` reduces, in the log-radius variable
``t = log|z|``, to the autonomous second-order equation::

    rho_tt = (1/2) d(G^2)/d rho  (= G G'),

because the planar Laplacian of a radial function is ``e^{-2t} rho_tt`` and
``|grad arg z|^2 = e^{-2t}``.  The equation conserves ``rho_t^2 - G(rho)^2``,
so the modulus T(v0) at which the trajectory from (rho1, v0) reaches rho2 is
one quadrature: the critical modulus is T(0), and the boundary problem is the
root of T(v0) = T.  RK4 (with a half-step Richardson cross-check) only samples
trajectories.  The classical closed-form radial maps between Euclidean annuli
serve as oracles for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError, DomainError
from .metrics import RotMetric

DEFAULT_STEPS = 4096
QUAD_TOL = 1e-12  # absolute error target of the T(v0) quadrature
CRITICAL_RTOL = 1e-12  # relative band around T(0) where the inner slope is 0
_NEAR_ZONE = 1e-3  # G - G(rho1) from G' within this fraction of G1/G1' of rho1
_MAX_PANELS = 1 << 13
_EPS = float(np.finfo(float).eps)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL4_S, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL4_S, _GL4_W = 0.5 * (_GL4_S + 1.0), 0.5 * _GL4_W  # on [0, 1]


def ode_rhs(m: RotMetric, rho):
    """Right-hand side of the radial reduction: (1/2) d(G^2)/d rho at rho.

    For the constant-curvature models this is sinh(2 kappa rho)/(2 kappa),
    rho, and sin(2 kappa rho)/(2 kappa) respectively.
    """
    m.check_rho(rho)
    out = 0.5 * np.asarray(m.dG2(rho))
    return out if out.ndim else float(out)


def _scalar_rhs(m: RotMetric):
    """A cheap scalar closure for the RK4 loop (no domain checks)."""
    if m._g_analytic is not None and m._g_prime_analytic is not None:
        g, gp = m._g_analytic, m._g_prime_analytic
        return lambda r: float(g(r)) * float(gp(r))
    inv, h, hp = m.inverse_distance, m.density, m.density_prime

    def rhs(r):
        s = float(inv(r))
        return s * (float(h(s)) + float(hp(s)) * s)

    return rhs


@dataclass
class RadialProfile:
    """A sampled radial trajectory rho(t) over t in [0, T].

    ``residual`` is the maximum discrepancy between the trajectory and an
    independent half-step integration (Richardson cross-check); ``exited``
    flags truncation at the metric's valid range, with the exit time.
    """

    t_grid: np.ndarray
    rho: np.ndarray
    slope: np.ndarray
    slope0: float
    residual: float
    metric: RotMetric
    exited: bool = False
    exit_time: float | None = None
    boundary_error: float | None = None

    @property
    def modulus(self) -> float:
        return float(self.t_grid[-1])

    @property
    def rho1(self) -> float:
        return float(self.rho[0])

    @property
    def rho2(self) -> float:
        return float(self.rho[-1])

    @property
    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.rho) > 0))

    @cached_property
    def _spline(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.t_grid, self.rho)

    def rho_at(self, t):
        return self._spline(t)


_RHO_CEILING = 300.0  # keeps sinh/cosh of runaway trajectories finite


def rk4(acc, y, v, h: float, n: int, inside):
    """Classical RK4 for y'' = acc(y, y') from (y, v): ``n`` steps of size h.

    ``inside(y)`` is checked on the initial state and after every step, the
    last one included; the run stops at the first state outside, which it
    keeps.  Returns the states, the velocities, and whether one left.
    """
    ys, vs = [y], [v]
    for _ in range(n):
        if not inside(y):
            break
        k1v = acc(y, v)
        k2y = v + 0.5 * h * k1v
        k2v = acc(y + 0.5 * h * v, k2y)
        k3y = v + 0.5 * h * k2v
        k3v = acc(y + 0.5 * h * k2y, k3y)
        k4y = v + h * k3v
        k4v = acc(y + h * k3y, k4y)
        y += h / 6.0 * (v + 2 * k2y + 2 * k3y + k4y)
        v += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        ys.append(y)
        vs.append(v)
    return np.array(ys), np.array(vs), not inside(y)


def _radial_rk4(rhs, rho1: float, slope0: float, T: float, n: int, rho_max: float):
    """RK4 samples (t, rho, slope, exit time or None) of rho'' = rhs(rho) on [0, T]."""
    h = T / n
    safe_hi = rho_max * (1 - 1e-12) if math.isfinite(rho_max) else _RHO_CEILING
    ys, vs, exited = rk4(lambda y, _: rhs(min(max(y, 0.0), safe_hi)), float(rho1), float(slope0),
                         h, n, lambda y: 0.0 <= y < safe_hi)
    m = len(ys) - 1
    return np.linspace(0.0, m * h, m + 1), ys, vs, m * h if exited else None


def shoot(m: RotMetric, rho1: float, slope0: float, T: float,
          n_steps: int = DEFAULT_STEPS, richardson: bool = True) -> RadialProfile:
    """Integrate the radial equation from (rho1, slope0) over [0, T].

    Returns the RK4 trajectory on ``n_steps + 1`` nodes.  If the trajectory
    leaves the metric's valid range (or blows past the overflow guard at
    radius 300 on unbounded metrics) it is truncated and flagged.  With
    ``richardson=True`` the equation is re-integrated at half the step and
    the maximum disagreement on shared nodes is stored as the residual.
    """
    if not (0 < T < math.inf and n_steps >= 1):
        raise DomainError("need a positive finite modulus T and n_steps >= 1")
    m.check_rho(rho1)
    rhs = _scalar_rhs(m)
    t, rho, slope, exited_at = _radial_rk4(rhs, rho1, slope0, T, n_steps, m.rho_max)
    residual = math.nan
    if richardson and len(rho) > 1:
        _, rho_half, _, _ = _radial_rk4(rhs, rho1, slope0, float(t[-1]), 2 * (len(rho) - 1),
                                        m.rho_max)
        k = min(len(rho), (len(rho_half) + 1) // 2)
        residual = float(np.max(np.abs(rho[:k] - rho_half[: 2 * k : 2])))
    return RadialProfile(
        t_grid=t, rho=rho, slope=slope, slope0=float(slope0),
        residual=residual, metric=m,
        exited=exited_at is not None, exit_time=exited_at,
    )


def critical_outer(m: RotMetric, rho1: float, T: float,
                   n_steps: int = DEFAULT_STEPS) -> float:
    """Outer radius rho(T) of the zero-initial-slope trajectory.

    While G' > 0 the right-hand side G G' is positive, so this is the smallest
    outer radius any monotone radial harmonic map of modulus T can reach from
    rho1.  Flat case: rho1 cosh(T).  Raises DomainError where the trajectory
    (one RK4 :func:`shoot` of ``n_steps``) leaves the metric range or meets
    G' <= 0, where it may turn back, before T.
    """
    prof = shoot(m, rho1, 0.0, T, n_steps=n_steps, richardson=False)
    if prof.exited:
        raise DomainError(f"critical trajectory left the metric range at t = {prof.exit_time:.6g}")
    turned = np.asarray(m.G_prime(prof.rho)) <= 0
    if np.any(turned):
        raise DomainError(f"critical trajectory met G' <= 0 at t = {prof.t_grid[turned][0]:.6g}")
    return prof.rho2


def modulus_of_slope(m: RotMetric, rho1: float, rho2: float, v0: float,
                     tol: float = QUAD_TOL) -> float:
    """Modulus T(v0) at which the trajectory from (rho1, v0) reaches rho2.

    ``T(v0) = int_{rho1}^{rho2} d rho / sqrt(v0^2 + G^2 - G1^2)``, G1 = G(rho1),
    strictly decreasing in v0 and below (rho2 - rho1)/v0.  In tau =
    sqrt(v0^2 + q0 u) - v0 (u = rho - rho1) the integrand 2 (v0 + tau) /
    (q0 sqrt(v0^2 + G^2 - G1^2)) is smooth for every v0 >= 0; 32-point
    Gauss-Legendre panels in sigma, tau = tau_max sigma^2, keep its weak
    branch point near -v0 sqrt(v0 / tau_max) away.  Panels double until two
    successive sums agree to ``tol``.  Data is admitted by
    :meth:`RotMetric.check_annulus`; DomainError where the radicand
    v0^2 + G^2 - G1^2 <= 0, where the trajectory would turn back.
    """
    if not 0 <= v0 < math.inf:
        raise DomainError("need a finite slope v0 >= 0")
    m.check_annulus(rho1, rho2)
    q0 = float(m.dG2(rho1))
    g1 = float(m.G(rho1))
    near_u = _NEAR_ZONE * 2.0 * g1 * g1 / q0  # a fraction of the length G1/G1'
    tau_max = q0 * (rho2 - rho1) / (math.sqrt(v0 * v0 + q0 * (rho2 - rho1)) + v0)

    def integrand(tau):
        u = tau * (tau + 2.0 * v0) / q0
        rho = rho1 + u
        diff = np.asarray(m.G(rho), dtype=float) - g1
        near = u < near_u
        if np.any(near):
            # G - G1 as u times the mean of G' over [rho1, rho]: a plain
            # difference loses all its digits as u -> 0
            un = u[near]
            diff[near] = un * (np.asarray(m.G_prime(rho1 + un[:, None] * _GL4_S)) @ _GL4_W)
        radicand = v0 * v0 + diff * (diff + 2.0 * g1)
        if np.any(radicand <= 0):
            raise DomainError(f"(v0^2 + G({rho[radicand <= 0][0]:.6g})^2) <= G(rho1)^2: the "
                              f"trajectory from rho1 = {rho1:.6g} with slope v0 = {v0:.6g} "
                              "turns back before rho2")
        return 2.0 * (v0 + tau) / (q0 * np.sqrt(radicand))

    prev, panels = math.nan, 1
    while panels <= _MAX_PANELS:
        h = 1.0 / panels
        sigma = (h * np.arange(panels)[:, None] + 0.5 * h * (_GL_X + 1.0)).ravel()
        vals = integrand(tau_max * sigma * sigma) * (2.0 * tau_max * sigma)
        total = 0.5 * h * float(np.sum(vals.reshape(panels, -1) @ _GL_W))
        if abs(total - prev) <= max(tol, 64 * _EPS * abs(total)):
            return total
        prev, panels = total, 2 * panels
    raise DivergenceError(f"T(v0) quadrature did not settle to {tol:g} on {_MAX_PANELS} panels")


@dataclass(frozen=True)
class NoSolution:
    """Nonexistence of a monotone radial map: the critical modulus T(0) < Mod.

    ``critical_outer`` is :func:`critical_outer` at Mod, ``inf`` where that
    raises DomainError.
    """

    rho1: float
    rho2: float
    modulus: float
    critical_outer: float
    reason: str


def solve_bvp(m: RotMetric, rho1: float, rho2: float, T: float,
              n_steps: int = DEFAULT_STEPS):
    """Monotone radial solution with rho(0) = rho1, rho(T) = rho2, or NoSolution.

    The inner slope is the root of T(v0) = T (:func:`modulus_of_slope`) on the
    proven bracket [0, (rho2 - rho1)/T].
    :class:`NoSolution` comes exactly when T(0) < T; within a relative 1e-12
    of T(0) the slope is 0.  One RK4 :func:`shoot` of ``n_steps`` samples the
    profile, whose ``boundary_error`` is its miss at rho2.
    """
    if not 0 < T < math.inf:
        raise DomainError("modulus T must be positive and finite")
    t_crit = modulus_of_slope(m, rho1, rho2, 0.0)
    if t_crit < T * (1.0 - CRITICAL_RTOL):
        try:
            outer = critical_outer(m, rho1, T, n_steps)
        except DomainError:
            outer = math.inf
        return NoSolution(rho1=rho1, rho2=rho2, modulus=T, critical_outer=outer,
                          reason=f"critical modulus T(0) = {t_crit:.10g} < Mod = {T:.10g}")
    slope = 0.0
    if t_crit > T * (1.0 + CRITICAL_RTOL):
        from scipy.optimize import brentq

        slope = brentq(lambda v: modulus_of_slope(m, rho1, rho2, v) - T,
                       0.0, (rho2 - rho1) / T, xtol=_EPS, rtol=4 * _EPS)
    prof = shoot(m, rho1, slope, T, n_steps=n_steps)
    prof.boundary_error = abs(prof.rho2 - rho2)
    return prof


def critical_modulus(m: RotMetric, rho1: float, rho2: float,
                     tol: float = QUAD_TOL, n_steps: int = DEFAULT_STEPS) -> float:
    """Largest modulus admitting a monotone radial map from rho1 to rho2.

    This is T(0) (:func:`modulus_of_slope`, ``tol`` its quadrature error), the
    modulus at which the zero-slope trajectory ends exactly at rho2.
    ``n_steps`` is accepted for compatibility and has no effect.
    """
    return modulus_of_slope(m, rho1, rho2, 0.0, tol)


def nitsche_euclidean(r: float) -> float:
    """Critical target inner radius 2r/(1 + r^2) for the flat annulus A(r, 1)."""
    if not 0 < r < 1:
        raise DomainError("need 0 < r < 1")
    return 2.0 * r / (1.0 + r * r)


def nitsche_ndim(r: float, n: int) -> float:
    """n-dimensional critical ratio n r / (n - 1 + r^n)."""
    if not 0 < r < 1:
        raise DomainError("need 0 < r < 1")
    if n < 2:
        raise DomainError("need n >= 2")
    return n * r / (n - 1 + r**n)


def radial_map_ndim(x, r: float, rho: float, n: int):
    """The classical radial harmonic map of A(r, 1) onto A(rho, 1) in n-space.

    ``f(x) = (a + b/|x|^n) x`` with a + b = 1 (identity on the unit sphere)
    and (a + b/r^n) r = rho on the inner sphere.  Accepts a single point of
    shape (n,) or a batch of shape (m, n).
    """
    if not 0 < r < 1:
        raise DomainError("need 0 < r < 1")
    if not 0 < rho <= 1:
        raise DomainError("need 0 < rho <= 1")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != n:
        raise DomainError(f"points must have dimension {n}")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(norms < r - 1e-12) or np.any(norms > 1 + 1e-12):
        raise DomainError("points must satisfy r <= |x| <= 1")
    a = (1.0 - r ** (n - 1) * rho) / (1.0 - r**n)
    b = (r ** (n - 1) * rho - r**n) / (1.0 - r**n)
    out = (a + b / norms**n)[:, None] * pts
    return out[0] if single else out
