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
- :class:`RotMetric` -- a rotationally symmetric metric (closed-form or
  tabulated) together with its distance profile, inverse, and ``G``,
- the three constant-curvature model metrics ``2/(kappa (1 +- s^2))``,
- the comparison functions ``h_c``, ``psi_small``, ``psi_big``, ``psi_sharp``
  used by the Laplacian bounds and the main annulus inequality,
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
_SIGNS = (NEGATIVE, ZERO, POSITIVE)


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
        """The signed curvature bound c in {-kappa^2, 0, +kappa^2}."""
        if self.sign == ZERO:
            return 0.0
        k2 = self.kappa**2
        return -k2 if self.sign == NEGATIVE else k2

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
    """Model-space Hessian comparison function.

    sqrt(c) cot(sqrt(c) r)   for c = +kappa^2 (requires r < pi/kappa),
    1/r                      for c = 0,
    sqrt(-c) coth(sqrt(-c) r) for c = -kappa^2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("h_c requires r > 0")
    if bound.sign == ZERO:
        out = 1.0 / r
    elif bound.sign == NEGATIVE:
        out = bound.kappa / np.tanh(bound.kappa * r)
    else:
        x = bound.kappa * r
        if np.any(x >= math.pi):
            raise DomainError("h_c pole: require r < pi/kappa for a positive bound")
        out = bound.kappa / np.tan(x)
    return out if out.ndim else float(out)


def _check_positive_domain(bound: CurvatureBound, rho, cap_factor: float = 0.5) -> None:
    if bound.sign == POSITIVE:
        limit = math.pi * cap_factor / bound.kappa
        if np.any(np.asarray(rho) > limit + 1e-15):
            raise DomainError(
                f"geodesic radius exceeds pi/({1/cap_factor:g} kappa) = {limit:.6g} "
                "for a positive curvature bound"
            )


def psi_small(bound: CurvatureBound, rho):
    """Laplacian lower-bound coefficient as reported by the main inequality.

    sinh(kappa rho)/kappa, rho, or sin(kappa rho)/kappa by the sign of the
    bound.  The positive branch requires rho <= pi/(2 kappa).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("psi_small requires rho >= 0")
    _check_positive_domain(bound, rho)
    if bound.sign == ZERO:
        out = rho.copy()
    elif bound.sign == NEGATIVE:
        with np.errstate(over="ignore"):  # inf beyond kappa rho ~ 710
            out = np.sinh(bound.kappa * rho) / bound.kappa
    else:
        out = np.sin(bound.kappa * rho) / bound.kappa
    return out if out.ndim else float(out)


def psi_big(bound: CurvatureBound, rho1):
    """Main-inequality constant: psi_small(rho1) / (2 rho1); 1/2 for the zero bound."""
    rho1 = np.asarray(rho1, dtype=float)
    if np.any(rho1 <= 0):
        raise DomainError("psi_big requires rho1 > 0")
    out = psi_small(bound, rho1) / (2 * rho1)
    return out if np.ndim(out) else float(out)


def psi_sharp(bound: CurvatureBound, rho):
    """Sharp per-point Laplacian coefficient h_c(rho) * Ghat(rho)^2.

    Equals sinh(2 kappa rho)/(2 kappa), rho, or sin(2 kappa rho)/(2 kappa);
    this is the radial Laplacian of the constant-curvature model itself, so
    the bound ``lap(rho) >= psi_sharp(rho) |grad theta|^2`` is an equality for
    model metrics.  (``psi_small`` overstates this coefficient by a factor
    cos(kappa rho) in the positive case; see ``laplacian_bound_check``.)
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("psi_sharp requires rho >= 0")
    _check_positive_domain(bound, rho, cap_factor=1.0)
    if bound.sign == ZERO:
        out = rho.copy()
    elif bound.sign == NEGATIVE:
        with np.errstate(over="ignore"):  # inf beyond kappa rho ~ 355
            out = np.sinh(2 * bound.kappa * rho) / (2 * bound.kappa)
    else:
        out = np.sin(2 * bound.kappa * rho) / (2 * bound.kappa)
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
    g_analytic, g_prime_analytic : callable, optional
        Closed forms for G(rho) and G'(rho) (model metrics).
    bound : CurvatureBound, optional
        The curvature upper bound this metric is analysed under.
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
        bound: CurvatureBound | None = None,
        label: str = "metric",
    ):
        self.density = density
        self.distance = distance
        self.inverse_distance = inverse_distance
        self.domain_radius = float(domain_radius)
        self.rho_max = float(rho_max)
        self.density_prime = density_prime
        self._g_analytic = g_analytic
        self._g_prime_analytic = g_prime_analytic
        self.bound = bound
        self.label = label

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

        :class:`GeodesicAnnulus` checks 0 < rho1 < rho2 < inf and, for a positive
        bound, the cap; rho2 must lie in the distance range and G'(rho1) > 0.
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
        """Second derivative of G^2, used by the Newton linearisation."""
        self.check_rho(rho)
        h = 1e-5
        lo = np.maximum(np.asarray(rho, dtype=float) - h, 1e-300)
        hi = np.asarray(rho, dtype=float) + h
        hi = np.minimum(hi, self.rho_max * (1 - 1e-12)) if np.isfinite(self.rho_max) else hi
        return (self.dG2(hi) - self.dG2(lo)) / (hi - lo)


def constant_curvature_metric(bound: CurvatureBound) -> RotMetric:
    """The model metric of constant curvature matching ``bound``.

    Densities 2/(kappa (1 + s^2)), 1, 2/(kappa (1 - s^2)): distance profiles
    (2/kappa) atan, identity, (2/kappa) atanh; G(rho) = sin(kappa rho)/kappa,
    rho, sinh(kappa rho)/kappa.
    """
    if bound.sign == ZERO:
        return RotMetric(
            density=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            distance=lambda s: np.asarray(s, dtype=float),
            inverse_distance=lambda rho: np.asarray(rho, dtype=float),
            domain_radius=math.inf,
            rho_max=math.inf,
            density_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            g_analytic=lambda rho: np.asarray(rho, dtype=float),
            g_prime_analytic=lambda rho: np.ones_like(np.asarray(rho, dtype=float)),
            bound=bound,
            label="flat",
        )
    k = bound.kappa
    if bound.sign == NEGATIVE:
        return RotMetric(
            density=lambda s: 2.0 / (k * (1.0 - np.asarray(s, dtype=float) ** 2)),
            distance=lambda s: 2.0 / k * np.arctanh(np.asarray(s, dtype=float)),
            inverse_distance=lambda rho: np.tanh(k * np.asarray(rho, dtype=float) / 2.0),
            domain_radius=1.0,
            rho_max=math.inf,
            density_prime=lambda s: 4.0 * np.asarray(s, dtype=float)
            / (k * (1.0 - np.asarray(s, dtype=float) ** 2) ** 2),
            g_analytic=lambda rho: np.sinh(k * np.asarray(rho, dtype=float)) / k,
            g_prime_analytic=lambda rho: np.cosh(k * np.asarray(rho, dtype=float)),
            bound=bound,
            label=f"hyperbolic(kappa={k:g})",
        )
    return RotMetric(
        density=lambda s: 2.0 / (k * (1.0 + np.asarray(s, dtype=float) ** 2)),
        distance=lambda s: 2.0 / k * np.arctan(np.asarray(s, dtype=float)),
        inverse_distance=lambda rho: np.tan(k * np.asarray(rho, dtype=float) / 2.0),
        domain_radius=math.inf,
        rho_max=math.pi / k,
        density_prime=lambda s: -4.0 * np.asarray(s, dtype=float)
        / (k * (1.0 + np.asarray(s, dtype=float) ** 2) ** 2),
        g_analytic=lambda rho: np.sin(k * np.asarray(rho, dtype=float)) / k,
        g_prime_analytic=lambda rho: np.cos(k * np.asarray(rho, dtype=float)),
        bound=bound,
        label=f"spherical(kappa={k:g})",
    )


def distance_table(density: Callable, s_max: float, n_knots: int):
    """Distance d(s) = integral_0^s h and its inverse as PCHIP interpolants, from
    cumulative composite Simpson on 2 n_knots equal intervals of [0, s_max]."""
    from scipy.interpolate import PchipInterpolator

    fine = np.linspace(0.0, s_max, 2 * n_knots + 1)
    hv = density(fine)
    seg = (fine[1] - fine[0]) / 3.0 * (hv[0:-2:2] + 4.0 * hv[1:-1:2] + hv[2::2])
    d_knots = np.concatenate([[0.0], np.cumsum(seg)])
    return PchipInterpolator(fine[::2], d_knots), PchipInterpolator(d_knots, fine[::2])


def metric_from_profile(samples) -> RotMetric:
    """Build a metric labelled ``"profile"``, with no bound, from (s, h(s)) samples.

    The density is interpolated by a monotone cubic (PCHIP); distance and
    inverse come from :func:`distance_table` on >= 1024 knots.  Non-numeric,
    non-finite, zero or negative density samples are rejected.
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
    s_max = float(s[-1])
    distance, inverse = distance_table(density, s_max, max(1024, 4 * len(s)))
    return RotMetric(
        density=density,
        distance=distance,
        inverse_distance=inverse,
        domain_radius=s_max,
        rho_max=float(inverse.x[-1]),
        density_prime=density.derivative(),
        label="profile",
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
    from 0.1% to 99.9% of the chart radius (10 for an entire-plane chart)."""
    if m.bound is not None:
        return m.bound
    edge = m.domain_radius if math.isfinite(m.domain_radius) else 10.0
    ks = gaussian_curvature(m, np.linspace(edge * 1e-3, edge * (1 - 1e-3), 64))
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
        if not (0 < self.rho1 < self.rho2 < math.inf):
            raise DomainError("need 0 < rho1 < rho2 < inf")
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
