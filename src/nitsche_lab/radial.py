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
one quadrature: the critical modulus is T(0), the boundary problem is the
root of T(v0) = T, and its profile, like the end of the zero-slope trajectory
at T, is that quadrature inverted; its panels grade on octaves, so one covers
any radius ratio.  RK4 (with a half-step Richardson cross-check) runs only in
:func:`shoot`, where a trajectory is asked for; the classical closed-form radial
maps between Euclidean annuli are oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DivergenceError, DomainError
from .metrics import RotMetric

DEFAULT_STEPS = 4096
QUAD_TOL = 1e-12  # absolute error target of the T(v0) quadrature
CRITICAL_RTOL = 1e-12  # relative band around T(0) where the inner slope is 0
_NEAR_ZONE = 1e-3  # G - G(rho1) from G' within this fraction of G1/G1' of rho1
_MAX_PANELS = 1 << 13
_EPS = float(np.finfo(float).eps)
_LEG = np.polynomial.legendre
_GL_X, _GL_W = _LEG.leggauss(32)
_GL_U = 0.5 * (_GL_X + 1.0)  # the nodes on [0, 1]
# Gauss values on a panel -> its Legendre coefficients (exact below degree 32)
_GL_TO_LEG = _LEG.legvander(_GL_X, 31) * (_GL_W[:, None] * (np.arange(32) + 0.5))
_LEG_INT = _LEG.legint(np.eye(32), lbnd=-1)  # series of dt/dx -> series of t, t(-1) = 0
_TABLE_S = np.linspace(0.0, 1.0, 257)  # Newton start table on a panel
_TABLE_T = _LEG.legvander(2.0 * _TABLE_S - 1.0, 32)  # a panel's series -> its table, one product
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

    ``residual`` estimates the error in rho: the gap to a half-step re-run for
    :func:`shoot`, the inversion error max |t(sigma_k) - t_k| rho'(t_k) for
    :func:`solve_bvp`; ``exited`` flags truncation at the range, with its time.
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
    safe_hi = rho_max * (1 - 1e-12)
    ys, vs, exited = rk4(lambda y, _: rhs(min(max(y, 0.0), safe_hi)), float(rho1), float(slope0),
                         h, n, lambda y: 0.0 <= y < safe_hi)
    m = len(ys) - 1
    return np.linspace(0.0, m * h, m + 1), ys, vs, m * h if exited else None


def shoot(m: RotMetric, rho1: float, slope0: float, T: float,
          n_steps: int = DEFAULT_STEPS, richardson: bool = True) -> RadialProfile:
    """Integrate the radial equation from (rho1, slope0) over [0, T].

    Returns the RK4 trajectory on ``n_steps + 1`` nodes.  If the trajectory
    leaves the metric's valid range it is truncated and flagged.  With
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


def critical_outer(m: RotMetric, rho1: float, T: float) -> float:
    """Outer radius rho(T) of the zero-initial-slope trajectory.

    While G' > 0 the right-hand side G G' is positive, so this is the smallest
    outer radius any monotone radial harmonic map of modulus T can reach from
    rho1.  Flat case: rho1 cosh(T).  T(0; rho1, b) inverted at T, b the range
    end, the cap, or the first zero of G' on 256 geometric radii per factor of
    16; within 1e-6 of a cap or maximum b of G, b - (b - rho1) cos(sqrt(K) G t).
    DomainError where the trajectory leaves the range or meets G' <= 0 before T.
    """
    if not 0 < T < math.inf:
        raise DomainError("need a positive finite modulus T")
    cap = m.bound.cap if m.bound is not None else math.inf
    end = min(cap, float(np.nextafter(m.rho_max, 0.0)))
    if not 0 < rho1 < end:  # NaN fails too
        raise DomainError(f"need an inner radius 0 < rho1 < {end:.6g}")
    r = np.geomspace(rho1, end, 256 * math.ceil(math.log(end, 16) - math.log(rho1, 16)) + 1)
    if k := int(np.argmax(np.asarray(m.G_prime(r)) <= 0)):  # G' > 0 on r[:k], not at r[k]
        lo, w = float(r[k - 1]), float(r[k] - r[k - 1])
        x = _falling_root(lambda x: float(m.G_prime(lo + x * w)), float(m.G_prime(lo)), 1.0)
        end = cap = lo + x * w  # a maximum of G ends the trajectory as a cap does
    if end == cap and end - rho1 <= 1e-6 * end:
        c = math.sqrt(max(float(m.curvature(m.inverse_distance(end))), 0.0)) * float(m.G(end))
        if c * T <= math.pi / 2:
            return end - (end - rho1) * math.cos(c * T)
        raise DomainError(f"critical trajectory met G' <= 0 at t = {math.pi / (2 * c):.6g}")
    quad = _quadrature(m, rho1, end, 0.0)
    if quad[0] < T:
        where = "met G' <= 0" if end == cap else "left the metric range"
        raise DomainError(f"critical trajectory {where} at t = {quad[0]:.6g}")
    sigma, _ = _sample(quad, np.array([T]))
    return float(quad[3](sigma)[0][0])


def modulus_of_slope(m: RotMetric, rho1: float, rho2: float, v0: float,
                     tol: float = QUAD_TOL) -> float:
    """Modulus T(v0) at which the trajectory from (rho1, v0) reaches rho2.

    ``T(v0) = int_{rho1}^{rho2} d rho / sqrt(v0^2 + G^2 - G1^2)``, G1 = G(rho1),
    strictly decreasing in v0 and below (rho2 - rho1)/v0.  In tau =
    sqrt(v0^2 + q0 u) - v0 (u = rho - rho1) the integrand 2 (v0 + tau) /
    (q0 sqrt(v0^2 + G^2 - G1^2)) is smooth for every v0 >= 0; 32-point
    Gauss-Legendre panels on octaves of sigma, tau = tau_max sigma^2, keep its
    weak branch point near -v0 sqrt(v0 / tau_max) away, and halve until two
    successive sums agree to ``tol``.  Data is admitted by :meth:`RotMetric.check_annulus`;
    DomainError where v0^2 + G^2 - G1^2 <= 0, where the trajectory would turn back.
    """
    return _quadrature(m, rho1, rho2, v0, tol)[0]


def _admit(m: RotMetric, rho1: float, rho2: float):
    """Admits the data of T(v0): G(rho1), q0 = (G^2)'(rho1), near_u, which no slope changes."""
    g1 = float(m.G(rho1))
    if rho1 > 0 and not g1 * g1 >= np.finfo(float).tiny:  # before rho2/rho1 can overflow
        raise DomainError(f"G(rho1)^2 underflows at rho1 = {rho1:.6g}")
    m.check_annulus(rho1, rho2)
    q0 = float(m.dG2(rho1))
    if not q0 * (rho2 - rho1) > 0:  # radii near the float minimum
        raise DomainError(f"q0 (rho2 - rho1) underflows to 0 at rho1 = {rho1:.6g}")
    return g1, q0, _NEAR_ZONE * 2.0 * g1 * g1 / q0  # a fraction of the length G1/G1'


def _quadrature(m: RotMetric, rho1: float, rho2: float, v0: float, tol=QUAD_TOL, admitted=None):
    """T(v0), its panel edges in sigma, dt/dsigma on its nodes, sigma -> (rho, exact slope).
    Base panels [0, 2^-J], [2^-J, 2^(1-J)], ..., [1/2, 1], J = floor(log2(rho2/rho1)/4):
    u grows like sigma^4 at v0 = 0, so each octave spans a radius ratio of about 16."""
    if not 0 <= v0 < math.inf:
        raise DomainError("need a finite slope v0 >= 0")
    g1, q0, near_u = admitted or _admit(m, rho1, rho2)
    tau_max = q0 * (rho2 - rho1) / (math.sqrt(v0 * v0 + q0 * (rho2 - rho1)) + v0)

    def rho_radicand(tau):
        u = tau * (tau + 2.0 * v0) / q0
        rho = rho1 + u
        diff = np.asarray(m.G(rho), dtype=float) - g1
        near = u < near_u
        if np.any(near):
            # G - G1 as u times the mean of G' over [rho1, rho]: a plain
            # difference loses all its digits as u -> 0
            un = u[near]
            diff[near] = un * (np.asarray(m.G_prime(rho1 + un[:, None] * _GL4_S)) @ _GL4_W)
        return rho, v0 * v0 + diff * (diff + 2.0 * g1)

    def rho_slope(sigma):
        rho, radicand = rho_radicand(tau_max * sigma * sigma)
        return rho, np.sqrt(radicand)

    def integrand(tau):
        rho, radicand = rho_radicand(tau)
        if np.any(radicand <= 0):
            raise DomainError(f"(v0^2 + G({rho[radicand <= 0][0]:.6g})^2) <= G(rho1)^2: the "
                              f"trajectory from rho1 = {rho1:.6g} with slope v0 = {v0:.6g} "
                              "turns back before rho2")
        return 2.0 * (v0 + tau) / np.sqrt(radicand) / q0  # q0 sqrt(radicand) may overflow

    n_base = int(math.log2(rho2 / rho1) // 4) + 1
    knots, base = np.arange(n_base + 1), np.append(0.0, np.ldexp(1.0, np.arange(1 - n_base, 1)))
    prev, split = math.nan, 1
    while n_base * split <= _MAX_PANELS:
        edges = np.interp(np.arange(n_base * split + 1) / split, knots, base)
        w = np.diff(edges)
        sigma = (edges[:-1, None] + w[:, None] * _GL_U).ravel()
        vals = integrand(tau_max * sigma * sigma) * (2.0 * tau_max * sigma)
        total = 0.5 * float(np.sum(w * (vals.reshape(len(w), -1) @ _GL_W)))
        if abs(total - prev) <= max(tol, 64 * _EPS * abs(total)):
            return total, edges, vals, rho_slope
        prev, split = total, 2 * split
    raise DivergenceError(f"T(v0) quadrature did not settle to {tol:g} on {_MAX_PANELS} panels")


def _sample(quad, targets: np.ndarray):
    """sigma and the miss |t(sigma) - t| at each time t of ``targets``, by Newton on the exact
    integral t(x) of the series of dt/dx on the panel whose times hold t.  It starts from a
    cubic Hermite fit of position against sqrt(t) (t ~ sigma^2 at sigma = 0) through a
    257-point table of each panel, whose slope takes the first step: one sweep settles."""
    _, edges, dt_dsigma, _ = quad
    w = np.diff(edges)
    dt_dx = (dt_dsigma.reshape(len(w), -1) @ _GL_TO_LEG).T * (0.5 * w)  # x in [-1, 1]
    t_x = _LEG_INT @ dt_dx
    start = np.concatenate([[0.0], np.cumsum(2.0 * dt_dx[0])])
    k = np.minimum(np.searchsorted(start, targets, side="right") - 1, len(w) - 1)
    held, row = np.unique(np.append(k, 0), return_inverse=True)  # never an empty table
    table = start[held, None] + (_TABLE_T @ t_x[:, held]).T
    # knots r = sqrt(t) and positions p = held row + s, with dp/dr = r / (dt/dx); the first
    # knot, t = 0 on panel 0, where dt/dx vanishes too, takes its chord's slope
    r = np.maximum.accumulate(np.sqrt(np.abs(table.ravel())))
    p = (np.arange(held.size)[:, None] + _TABLE_S).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        dp_dr = r / (_TABLE_T[:, :32] @ dt_dx[:, held]).T.ravel()
    dp_dr[0] = (p[1] - p[0]) / (r[1] - r[0])
    rt = np.sqrt(targets)
    j = np.clip(np.searchsorted(r, rt, side="right") - 1, 0, r.size - 2)
    h, d0, d1 = r[j + 1] - r[j], dp_dr[j], dp_dr[j + 1]
    u, chord = (rt - r[j]) / h, (p[j + 1] - p[j]) / h
    c2, c3 = 3.0 * chord - 2.0 * d0 - d1, d0 + d1 - 2.0 * chord  # p = p_j + h u (d0 + ...)
    x = 2.0 * np.clip(p[j] + h * u * (d0 + u * (c2 + u * c3)) - row[:-1], 0.0, 1.0) - 1.0
    slope = rt / (d0 + u * (2.0 * c2 + 3.0 * u * c3))  # dt/dx = r / (dp/dr)
    reach = np.max(targets, initial=0.0)  # the Newton tolerance is relative to it
    t_k, t_xk = start[k], t_x[:, k]  # each target keeps its panel
    for sweep in range(8):
        t = t_k + _LEG.legval(x, t_xk, tensor=False)
        if sweep == 7 or np.max(np.abs(t - targets), initial=0.0) <= 4 * _EPS * reach:
            break
        if sweep:
            slope = _LEG.legval(x, dt_dx[:, k], tensor=False)
        x = x - (t - targets) / slope
    return edges[k] + 0.5 * w[k] * (x + 1.0), np.abs(t - targets)


def _falling_root(f, f0: float, hi: float) -> float:
    """Root of a decreasing f with f(0) = f0 > 0 > f(hi): regula falsi with the
    Anderson-Bjorck rescale of ``fa`` (``f_a`` stays f(a)), stopped as brentq
    stops (xtol = eps, rtol = 4 eps) at the end with the smaller |f|."""
    a, fa, f_a, b, fb = 0.0, f0, f0, hi, f(hi)
    for _ in range(100):  # brentq's maxiter
        tol = _EPS + 4.0 * _EPS * abs(b)
        if fb == 0.0 or abs(b - a) < tol:
            return b if abs(fb) <= abs(f_a) else a
        c = b - fb * (b - a) / (fb - fa)
        c = min(max(c, min(a, b) + tol / 2), max(a, b) - tol / 2)  # brentq's least step
        fc = f(c)
        if (fc > 0) == (fb > 0):
            fa *= (1.0 - fc / fb) if fc / fb < 1.0 else 0.5
        else:
            a, fa, f_a = b, fb, fb
        b, fb = c, fc
    raise DivergenceError("slope root did not settle in 100 iterations")


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

    The inner slope v0 = G(rho1) sinh s solves T(v0) = T (:func:`modulus_of_slope`)
    on the bracket v0 in [v_min, hypot((rho2 - rho1)/T, v_min)], where T(v0) - T is
    strictly decreasing and T(v0) <= (rho2 - rho1)/sqrt(v0^2 - v_min^2); s is linear
    in v0 below G(rho1) and logarithmic above, so the root's stopping rule has no
    absolute scale.  v_min is 0 unless G dips below G(rho1) inside the annulus; then
    v_min^2 is the largest G(rho1)^2 - G^2 on 257 equal radii, below which the
    trajectory turns back (T = +inf), and the root bisects up from it until T(v0) - T
    is finite and positive.  :class:`NoSolution` comes exactly when T(0) < T, or when
    that bisection closes on v_min; within a relative 1e-12 of T(0) the slope is 0.
    The profile inverts the quadrature (:func:`_sample`) at t_k T(v0)/T on
    ``n_steps + 1`` equal nodes t_k, with the exact slope; ``boundary_error`` is its
    miss at rho2.
    """
    if not (0 < T < math.inf and n_steps >= 1):
        raise DomainError("need a positive finite modulus T and n_steps >= 1")
    g1 = (admitted := _admit(m, rho1, rho2))[0]  # once; each slope's quadrature is kept
    quad = cache(lambda s: _quadrature(m, rho1, rho2, g1 * math.sinh(s), admitted=admitted))

    def modulus(s):  # T(v0), +inf where the trajectory turns back before rho2
        try:
            return quad(s)[0]
        except DomainError:
            return math.inf

    t_crit = modulus(0.0)
    reason = f"critical modulus T(0) = {t_crit:.10g} < Mod = {T:.10g}"
    s = 0.0
    if t_crit > T * (1.0 + CRITICAL_RTOL):
        lo, f_lo, v_min = 0.0, t_crit - T, 0.0
        if f_lo == math.inf:
            g = np.asarray(m.G(np.linspace(rho1, rho2, 257)))
            v_min = math.sqrt(float(np.max((g1 - g) * (g1 + g))))
            lo = math.asinh(v_min / g1)
        hi = math.asinh(math.hypot((rho2 - rho1) / T, v_min) / g1)
        while f_lo == math.inf and lo < (mid := 0.5 * (lo + hi)) < hi:
            if (f_mid := modulus(mid) - T) > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        if f_lo == math.inf:
            t_crit, reason = -math.inf, (f"every slope above v_min = {v_min:.10g}, below which "
                                         f"the trajectory turns back, reaches rho2 before "
                                         f"Mod = {T:.10g}")
        else:
            s = lo + _falling_root(lambda x: modulus(lo + x) - T, f_lo, hi - lo)
    if t_crit < T * (1.0 - CRITICAL_RTOL):
        try:
            outer = critical_outer(m, rho1, T)
        except DomainError:
            outer = math.inf
        return NoSolution(rho1=rho1, rho2=rho2, modulus=T, critical_outer=outer, reason=reason)
    sigma, miss = _sample(quad(s), np.arange(1, n_steps) * (quad(s)[0] / n_steps))
    rho, slopes = quad(s)[3](np.concatenate([[0.0], sigma, [1.0]]))
    return RadialProfile(t_grid=np.linspace(0.0, T, n_steps + 1), rho=rho, slope=slopes,
                         slope0=g1 * math.sinh(s), metric=m,
                         residual=float(np.max(miss * slopes[1:-1], initial=0.0)),
                         boundary_error=abs(float(rho[-1]) - rho2))


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
