"""
Conformal metrics with rotational symmetry
==========================================

A conformal metric on a planar chart is a positive density ``h`` times the
Euclidean line element.  For rotationally symmetric densities ``h(|w|)`` the
geodesics through the origin are the straight rays, so the geodesic distance
from the origin is ``d(s) = integral_0^s h``, its inverse ``g`` recovers the
chart radius from the geodesic radius, and in geodesic polar coordinates the
metric reads ``d rho^2 + G(rho)^2 d theta^2`` with ``G(rho) = h(g(rho)) g(rho)``.

This module provides:

- :class:`CurvatureBound` -- the sign/magnitude of an upper curvature bound,
- :class:`RotMetric` -- a rotationally symmetric metric (closed-form, or
  tabulated from density samples) with its distance profile, inverse, and ``G``,
- the three constant-curvature model metrics ``2/(kappa (1 +- s^2))``,
- the comparison functions ``h_c``, ``psi_small``, ``psi_big``, ``psi_sharp``
  used by the Laplacian bounds and the main annulus inequality, which read
  each model surface from one per-sign table,
- a finite-difference Gaussian curvature evaluator, and
- the JSON metric-description loader.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

NEGATIVE = "negative"
ZERO = "zero"
POSITIVE = "positive"
# The model surface of each sign in x = kappa r (kappa = 1 for the zero bound):
# curvature sigma kappa^2, G = sn(x)/kappa, G' = cs(x), tn = sn/cs, atn = tn^-1.
_MODELS = {
    NEGATIVE: (-1.0, np.sinh, np.cosh, np.tanh, np.arctanh),
    ZERO: (0.0, np.positive, np.ones_like, np.positive, np.positive),
    POSITIVE: (1.0, np.sin, np.cos, np.tan, np.arctan),
}
_SIGNS = tuple(_MODELS)  # tested by ==, so an unhashable sign is a DomainError too


def _model(bound: "CurvatureBound"):
    """(kappa, sigma, sn, cs, tn, atn) of the bound's model surface."""
    return (bound.kappa or 1.0, *_MODELS[bound.sign])


@dataclass(frozen=True)
class CurvatureBound:
    """Upper bound for the Gaussian curvature: -kappa^2, 0 or +kappa^2.

    ``kappa`` must be a positive finite real (or numeric text) whenever it is
    given, and it must be given unless ``sign`` is ``"zero"``; the zero bound
    normalises it to ``None``.
    """

    sign: str
    kappa: float | None = None

    def __post_init__(self):
        if self.sign not in _SIGNS:
            raise DomainError(f"curvature sign must be one of {_SIGNS}, got {self.sign!r}")
        if self.sign == ZERO and self.kappa is None:
            return
        try:
            kappa = float(self.kappa)
        except (TypeError, ValueError):
            kappa = math.nan
        if not 0 < kappa < math.inf:
            raise DomainError(f"kappa must be a positive finite real, got {self.kappa!r}")
        object.__setattr__(self, "kappa", None if self.sign == ZERO else kappa)

    @property
    def value(self) -> float:
        """The signed curvature bound c = sigma kappa^2, -inf or inf once kappa^2 overflows."""
        kappa, sigma, *_ = _model(self)
        try:
            return sigma * kappa**2
        except OverflowError:
            return sigma * math.inf

    @property
    def cap(self) -> float:
        """Largest admissible geodesic radius, pi/(2 kappa) for a positive bound."""
        if self.sign == POSITIVE:
            return math.pi / (2 * self.kappa)
        return math.inf

    @classmethod
    def negative(cls, kappa: float) -> "CurvatureBound":
        return cls(NEGATIVE, kappa)

    @classmethod
    def zero(cls) -> "CurvatureBound":
        return cls(ZERO)

    @classmethod
    def positive(cls, kappa: float) -> "CurvatureBound":
        return cls(POSITIVE, kappa)


def h_c(bound: CurvatureBound, r):
    """Model-space Hessian comparison function kappa / tn(kappa r): kappa coth(kappa r),
    1/r, or kappa cot(kappa r) by the sign of the bound (the last for r < pi/kappa)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("h_c requires r > 0")
    kappa, sigma, _, _, tn, _ = _model(bound)
    x = kappa * r
    with np.errstate(invalid="ignore"):  # 0 * inf for the zero bound at r = inf
        if np.any(sigma * x >= math.pi):
            raise DomainError("h_c pole: require r < pi/kappa for a positive bound")
    out = kappa / tn(x)
    return out if out.ndim else float(out)


def psi_small(bound: CurvatureBound, rho):
    """Laplacian lower-bound coefficient as reported by the main inequality.

    sn(kappa rho)/kappa: sinh(kappa rho)/kappa, rho, or sin(kappa rho)/kappa by
    the sign of the bound.  Requires 0 <= rho <= ``bound.cap``.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho > bound.cap + 1e-15):
        raise DomainError(f"psi_small requires 0 <= rho <= cap = {bound.cap:.6g}")
    kappa, _, sn, *_ = _model(bound)
    with np.errstate(over="ignore"):  # sinh is inf beyond kappa rho ~ 710
        out = sn(kappa * rho) / kappa
    return out if out.ndim else float(out)


def psi_big(bound: CurvatureBound, rho1):
    """Main-inequality constant: psi_small(rho1) / (2 rho1); 1/2 for the zero bound."""
    rho1 = np.asarray(rho1, dtype=float)
    if np.any(rho1 <= 0):
        raise DomainError("psi_big requires rho1 > 0")
    out = psi_small(bound, rho1) / rho1 / 2  # 2 rho1 may overflow
    return out if np.ndim(out) else float(out)


def psi_sharp(bound: CurvatureBound, rho):
    """Sharp per-point Laplacian coefficient h_c(rho) * Ghat(rho)^2.

    Equals sn(2 kappa rho)/(2 kappa): sinh(2 kappa rho)/(2 kappa), rho, or
    sin(2 kappa rho)/(2 kappa), for 0 <= rho <= 2 ``bound.cap`` with 2 kappa
    rho a finite float; this is the radial Laplacian of the constant-curvature
    model itself, so the bound ``lap(rho) >= psi_sharp(rho) |grad theta|^2`` is
    an equality for model metrics.  (``psi_small`` overstates this coefficient
    by a factor cos(kappa rho) in the positive case; see
    ``laplacian_bound_check``.)
    """
    rho = np.asarray(rho, dtype=float)
    kappa, _, sn, *_ = _model(bound)
    with np.errstate(over="ignore"):  # sinh is inf beyond kappa rho ~ 355
        x = 2 * kappa * rho
        if np.any(rho < 0) or np.any(rho > 2 * bound.cap + 1e-15) or np.any(x == math.inf):
            raise DomainError(f"psi_sharp requires 0 <= rho <= 2 cap = {2 * bound.cap:.6g} "
                              "and 2 kappa rho finite")
        out = sn(x) / (2 * kappa)
    return out if out.ndim else float(out)


class RotMetric:
    """Rotationally symmetric conformal metric ``h(|w|) |dw|`` on a chart disk.

    Parameters
    ----------
    density : callable
        The profile h(s), strictly positive on (0, s_max).
    distance : callable
        d(s) = integral_0^s h, strictly increasing.
    inverse_distance : callable
        g = d^{-1}, mapping geodesic radius back to chart radius.
    domain_radius : float
        Chart radius s_max (may be ``inf`` for entire-plane charts).
    rho_max : float
        Supremum of valid geodesic radii, d(s_max^-).
    density_prime : callable
        Analytic h'(s), for exact ODE right-hand sides.
    g_analytic, g_prime_analytic, d2g2_analytic : callable, optional
        Closed forms for G(rho), G'(rho) and (G^2)''(rho) (model metrics).
    bound : CurvatureBound, optional
        The curvature upper bound this metric is analysed under.
    knots : array, optional
        Chart radii of a tabulated density's samples (profile metrics).
    """

    def __init__(
        self,
        density: Callable,
        distance: Callable,
        inverse_distance: Callable,
        domain_radius: float,
        rho_max: float,
        density_prime: Callable,
        g_analytic: Callable | None = None,
        g_prime_analytic: Callable | None = None,
        d2g2_analytic: Callable | None = None,
        bound: CurvatureBound | None = None,
        label: str = "metric",
        knots: np.ndarray | None = None,
    ):
        self.density = density
        self.distance = distance
        self.inverse_distance = inverse_distance
        self.domain_radius = float(domain_radius)
        self.rho_max = float(rho_max)
        self.density_prime = density_prime
        self._g_analytic = g_analytic
        self._g_prime_analytic = g_prime_analytic
        self._d2g2_analytic = d2g2_analytic
        self.bound = bound
        self.label = label
        self.knots = knots

    def __repr__(self):
        return f"RotMetric({self.label!r}, rho_max={self.rho_max:.6g})"

    def check_rho(self, rho) -> None:
        rho = np.asarray(rho)
        if not np.all((rho >= 0) & (rho < self.rho_max)):  # NaN fails too
            raise DomainError(
                f"geodesic radius outside the distance range [0, {self.rho_max:.6g}) "
                f"of {self.label}"
            )

    def check_annulus(self, rho1: float, rho2: float) -> None:
        """The one gate for radial data: admit A(rho1, rho2) or raise DomainError.

        :class:`GeodesicAnnulus` checks 0 < rho1 < rho2 with rho2/rho1 finite and,
        for a positive bound, the cap; rho2 must lie in the distance range and
        G'(rho1) > 0.
        """
        GeodesicAnnulus(rho1, rho2, self.bound or CurvatureBound.zero())
        self.check_rho(rho2)
        if not float(self.G_prime(rho1)) > 0:
            raise DomainError(f"G'(rho1) <= 0 at rho1 = {rho1:.6g}: radial maps are not monotone")

    def G(self, rho):
        """Angular metric coefficient G(rho) = h(g(rho)) g(rho)."""
        self.check_rho(rho)
        if self._g_analytic is not None:
            return self._g_analytic(rho)
        s = self.inverse_distance(rho)
        return self.density(s) * s

    def G_prime(self, rho):
        """dG/d rho, from its closed form when given, else g'(h + h' g) with g' = 1/h."""
        self.check_rho(rho)
        if self._g_prime_analytic is not None:
            return self._g_prime_analytic(rho)
        s = self.inverse_distance(rho)
        h = self.density(s)
        return (h + self.density_prime(s) * s) / h

    def dG2(self, rho):
        """d(G^2)/d rho = 2 g (h + h' g); the radial harmonic-map source term is half this."""
        return 2.0 * self.G(rho) * self.G_prime(rho)

    def d2G2(self, rho):
        """Second derivative of G^2, used by the Newton linearisation: its closed form
        when given, else a central difference of :meth:`dG2`."""
        self.check_rho(rho)
        if self._d2g2_analytic is not None:
            return self._d2g2_analytic(rho)
        h = 1e-5
        lo = np.maximum(np.asarray(rho, dtype=float) - h, 1e-300)
        hi = np.asarray(rho, dtype=float) + h
        hi = np.minimum(hi, self.rho_max * (1 - 1e-12))
        return (self.dG2(hi) - self.dG2(lo)) / (hi - lo)


def constant_curvature_metric(bound: CurvatureBound) -> RotMetric:
    """The model metric of constant curvature matching ``bound``.

    The plane has density 1, G(rho) = rho and (G^2)'' = 2.  The sphere and the
    hyperboloid (sigma = +1, -1) have density 2/(kappa (1 + sigma s^2)),
    distance (2/kappa) atn(s), and G, G' and (G^2)'' = 2 cs(2 kappa rho) from
    the sign table.  ``rho_max`` is the largest radius where G, G', their
    squares and (G^2)' are finite floats, and at most the sphere's antipode
    pi/kappa.
    """
    big = float(np.finfo(float).max)
    if bound.sign == ZERO:  # plain lambdas: the scalar RK4 loop calls G and G' at every stage
        return RotMetric(
            density=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            distance=lambda s: np.asarray(s, dtype=float),
            inverse_distance=lambda rho: np.asarray(rho, dtype=float),
            domain_radius=math.inf,
            rho_max=math.sqrt(big),
            density_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            g_analytic=lambda rho: np.asarray(rho, dtype=float),
            g_prime_analytic=lambda rho: np.ones_like(np.asarray(rho, dtype=float)),
            d2g2_analytic=lambda rho: np.full_like(np.asarray(rho, dtype=float), 2.0),
            bound=bound,
            label="flat",
        )
    k, sigma, sn, cs, tn, atn = _model(bound)
    if sigma > 0:  # G^2 = sin^2/kappa^2 overflows first for kappa below 1/sqrt(big)
        name, domain_radius = "spherical", math.inf
        c = math.sqrt(big) * k
        rho_max = math.pi / k if c >= 1 else math.asin(c) / k
    else:
        name, domain_radius = "hyperbolic", 1.0
        rho_max = min(math.acosh(math.sqrt(big)), math.asinh(math.sqrt(big) * k),
                      math.asinh(min(big * k, big)) / 2) / k
    return RotMetric(
        density=lambda s: 2.0 / (k * (1.0 + sigma * np.asarray(s, dtype=float) ** 2)),
        distance=lambda s: 2.0 / k * atn(np.asarray(s, dtype=float)),
        inverse_distance=lambda rho: tn(k * np.asarray(rho, dtype=float) / 2.0),
        domain_radius=domain_radius,
        rho_max=rho_max,
        density_prime=lambda s: -4.0 * sigma * np.asarray(s, dtype=float)
        / (k * (1.0 + sigma * np.asarray(s, dtype=float) ** 2) ** 2),
        g_analytic=lambda rho: sn(k * np.asarray(rho, dtype=float)) / k,
        g_prime_analytic=lambda rho: cs(k * np.asarray(rho, dtype=float)),
        d2g2_analytic=lambda rho: 2.0 * cs(2.0 * k * np.asarray(rho, dtype=float)),
        bound=bound,
        label=f"{name}(kappa={k:g})",
    )


def metric_from_profile(samples) -> RotMetric:
    """Build a metric labelled ``"profile"``, with no bound, from (s, h(s)) samples.

    The density is interpolated by a monotone cubic (PCHIP).  Distance and
    inverse are PCHIP interpolants through >= 1024 knots of d(s) = integral_0^s h,
    from cumulative composite Simpson on twice as many equal intervals of
    [0, s_max].  Non-numeric, non-finite, zero or negative density samples are
    rejected.
    """
    from scipy.interpolate import PchipInterpolator

    try:
        arr = np.asarray(samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"profile samples must be numeric: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4 or not np.all(np.isfinite(arr)):
        raise DomainError("profile samples must be a finite (n, 2) array with n >= 4")
    s, h = arr[:, 0], arr[:, 1]
    if s[0] < 0 or np.any(np.diff(s) <= 0):
        raise DomainError("profile radii must be nonnegative and strictly increasing")
    if np.any(h <= 0):
        raise DomainError("profile density must be strictly positive")
    if s[0] > 0:
        s = np.concatenate([[0.0], s])
        h = np.concatenate([[h[0]], h])
    density = PchipInterpolator(s, h)
    fine = np.linspace(0.0, s[-1], 2 * max(1024, 4 * len(s)) + 1)
    hv = density(fine)
    seg = (fine[1] - fine[0]) / 3.0 * (hv[0:-2:2] + 4.0 * hv[1:-1:2] + hv[2::2])
    d_knots = np.concatenate([[0.0], np.cumsum(seg)])
    distance, inverse = PchipInterpolator(fine[::2], d_knots), PchipInterpolator(d_knots, fine[::2])
    return RotMetric(
        density=density,
        distance=distance,
        inverse_distance=inverse,
        domain_radius=float(s[-1]),
        rho_max=float(d_knots[-1]),
        density_prime=density.derivative(),
        label="profile",
        knots=s,
    )


def gaussian_curvature(m: RotMetric, s):
    """Gaussian curvature -lap(log h)/h^2 at chart radius s.

    The radial Laplacian of log h is evaluated with a centered 5-point
    stencil, step max(1e-4, 1e-4 s); radii too close to 0 or s_max for the
    stencil raise a domain error.
    """
    s_arr = np.asarray(s, dtype=float)
    step = np.maximum(1e-4, 1e-4 * s_arr)
    if np.any(s_arr - 2 * step <= 0) or np.any(s_arr + 2 * step >= m.domain_radius):
        raise DomainError("chart radius too close to 0 or the chart edge for the stencil")
    offs = np.array([-2.0, -1.0, 1.0, 2.0])
    logh = [np.log(m.density(s_arr + k * step)) for k in offs]
    logh0 = np.log(m.density(s_arr))
    d1 = (logh[0] - 8 * logh[1] + 8 * logh[2] - logh[3]) / (12 * step)
    d2 = (-logh[0] + 16 * logh[1] - 30 * logh0 + 16 * logh[2] - logh[3]) / (12 * step**2)
    out = -(d2 + d1 / s_arr) / m.density(s_arr) ** 2
    return out if out.ndim else float(out)


def infer_bound(m: RotMetric) -> CurvatureBound:
    """Estimate an upper curvature bound from the FD curvature at 64 chart radii
    from 0.1% to 99.9% of the chart radius (10 for an entire-plane chart).

    A tabulated density is read instead at the midpoint of the knot interval
    holding each radius, where the error that the knot slopes put into h''
    cancels to first order, and never in its first or last interval, whose
    one-sided PCHIP end slopes spoil the curvature (a hyperbolic profile reads
    positive in the last one).
    """
    if m.bound is not None:
        return m.bound
    edge = m.domain_radius if math.isfinite(m.domain_radius) else 10.0
    radii = np.linspace(edge * 1e-3, edge * (1 - 1e-3), 64)
    if m.knots is not None:
        i = np.clip(np.searchsorted(m.knots, radii) - 1, 1, len(m.knots) - 3)
        radii = 0.5 * (m.knots[i] + m.knots[i + 1])
    ks = gaussian_curvature(m, radii)
    sup_k = float(np.max(ks))
    if sup_k > 1e-8:
        return CurvatureBound.positive(math.sqrt(sup_k * (1 + 1e-6)))
    if sup_k < -1e-8:
        return CurvatureBound.negative(math.sqrt(-sup_k / (1 + 1e-6)))
    return CurvatureBound.zero()


@dataclass(frozen=True)
class GeodesicAnnulus:
    """Geodesic annulus data 0 < rho1 < rho2, with the spherical cap condition.

    For a positive bound the outer radius must satisfy rho2 <= pi/(2 kappa);
    violating data is rejected at construction rather than clamped.
    """

    rho1: float
    rho2: float
    bound: CurvatureBound

    def __post_init__(self):
        if not (0 < self.rho1 < self.rho2 and self.rho2 / self.rho1 < math.inf):
            raise DomainError("need 0 < rho1 < rho2 with rho2/rho1 a finite float")
        if self.rho2 > self.bound.cap + 1e-15:
            raise DomainError(
                f"outer radius {self.rho2:.6g} exceeds the admissible cap "
                f"pi/(2 kappa) = {self.bound.cap:.6g}"
            )


_KIND_KEYS = {"constant": "sign", "profile": "samples", "weierstrass": "surface"}


def load_metric(source) -> RotMetric:
    """Load a metric description (path, JSON text, or dict); the one parser of them.

    Anything but one of these objects raises DomainError::

        {"kind": "constant", "sign": "negative|zero|positive", "kappa": x}
        {"kind": "profile", "samples": [[s, h], ...]}
        {"kind": "weierstrass", "surface": "<catalog name>"}
    """
    if isinstance(source, dict):
        spec = source
    else:
        text, unread = source, None
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, TypeError, ValueError) as exc:  # ValueError: not UTF-8 text
            unread = exc
        try:
            spec = json.loads(text)
        except (json.JSONDecodeError, TypeError) as exc:
            if unread is not None:  # neither a readable file nor JSON text
                raise DomainError(f"cannot read metric file {source}: "
                                  f"{getattr(unread, 'strerror', None) or unread}") from unread
            raise DomainError(f"unreadable metric description: {exc}") from exc
    if not isinstance(spec, dict):
        raise DomainError(f"a metric description is a JSON object, not {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise DomainError(f"unknown metric kind {kind!r}")
    if _KIND_KEYS[kind] not in spec:
        raise DomainError(f"metric kind {kind!r} needs the key {_KIND_KEYS[kind]!r}")
    if kind == "constant":
        return constant_curvature_metric(CurvatureBound(spec["sign"], spec.get("kappa")))
    if kind == "profile":
        return metric_from_profile(spec["samples"])
    from .weierstrass import surface_metric, catalog_surface

    return surface_metric(catalog_surface(spec["surface"]))
