"""
Minimal-surface metrics on the unit disk
========================================

A simply connected minimal surface admits a conformal harmonic
parametrisation from the unit disk built from a pair of holomorphic
derivatives g', h'; the induced conformal density is |g'(z)| + |h'(z)|.
Every catalog surface has g' = a and h' = b z^k, so it is stored as the
numbers (a, b, k).  Its density |a| + |b| |z|^k is rotationally symmetric,
so the rays from the origin are geodesics, the distance from the origin is
the polynomial d(s) = |a| s + |b| s^(k+1)/(k+1), and its inverse is a Newton
iteration on d.  The ambient immersion is never needed: the density carries
the curvature -k^2 |a| |b| s^(k-2) / (|a| + |b| s^k)^4, the distances, and the
geodesics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeExitError
from .metrics import CurvatureBound, RotMetric
from .radial import rk4

DISK_EDGE = 1.0 - 1e-6  # distances are computed up to this chart radius


@dataclass(frozen=True)
class WeierstrassData:
    """Derivative data g' = a, h' = b z^k: complex a != 0 and b, integer k >= 2."""

    name: str
    a: complex
    b: complex
    k: int

    def __post_init__(self):
        if not (self.a != 0 and cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise DomainError(f"{self.name}: need finite a != 0 and b, got {self.a!r}, {self.b!r}")
        if not (isinstance(self.k, int) and self.k >= 2):
            raise DomainError(f"{self.name}: need an integer k >= 2, got {self.k!r}")


CATALOG: dict[str, WeierstrassData] = {
    w.name: w for w in (
        WeierstrassData("planar", 1, 0, 2),
        WeierstrassData("enneper", 1, 1, 2),
        WeierstrassData("enneper2", 1, 1, 4),
        WeierstrassData("enneper_scaled", 2, 2, 2),
        WeierstrassData("enneper_rotated", 1, cmath.exp(1j * math.pi / 3), 2),
    )
}


def catalog_surface(name: str) -> WeierstrassData:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown surface {name!r}; catalog: {sorted(CATALOG)}"
        ) from None


def we_density(w: WeierstrassData, z):
    """Conformal density |a| + |b| |z|^k on the open unit disk."""
    r = np.abs(np.asarray(z, dtype=complex))
    if np.any(r >= 1.0):
        raise DomainError("the chart is the open unit disk: need |z| < 1")
    out = surface_metric(w).density(r)
    return out if out.ndim else float(out)


def we_distance_radial(w: WeierstrassData, s: float) -> float:
    """Geodesic distance |a| s + |b| s^(k+1)/(k+1) from the origin along a ray."""
    if not 0 <= s <= DISK_EDGE:
        raise DomainError(f"need 0 <= s <= {DISK_EDGE}")
    return float(surface_metric(w).distance(s))


def surface_metric(w: WeierstrassData) -> RotMetric:
    """RotMetric of a catalog surface, its distance and inverse in closed form.

    The inverse is Newton on d(s) - rho from s0 = min(rho/|a|, DISK_EDGE),
    where d(s0) >= rho: d is convex and increasing, so the iterates fall to
    the root, and the iteration stops once no entry decreases.  A minimal
    surface has curvature <= 0 (zero on the plane), so every catalog surface
    carries the zero bound.
    """
    a, b, k = abs(w.a), abs(w.b), w.k

    def density(s):
        return a + b * np.asarray(s, dtype=float) ** k

    def distance(s):
        s = np.asarray(s, dtype=float)
        return a * s + b * s ** (k + 1) / (k + 1)

    def inverse(rho):
        rho = np.asarray(rho, dtype=float)
        s = np.minimum(rho / a, DISK_EDGE)
        while np.any((step := s - (distance(s) - rho) / density(s)) < s):
            s = np.minimum(step, s)
        return s if s.ndim else float(s)

    return RotMetric(
        density=density,
        distance=distance,
        inverse_distance=inverse,
        domain_radius=DISK_EDGE,
        rho_max=float(distance(DISK_EDGE)),
        density_prime=lambda s: k * b * np.asarray(s, dtype=float) ** (k - 1),
        curvature=lambda s: -k * k * a * b * np.power(s, k - 2.0) / density(s) ** 4,
        bound=CurvatureBound.zero(),
        label=f"weierstrass:{w.name}",
    )


def _dlog_density(w: WeierstrassData, z):
    """d/dz of log(|a| + |b| |z|^k) = k |b| |z|^(k-2) conj(z) / (2 (|a| + |b| |z|^k))."""
    r, b = abs(z), abs(w.b)
    return w.k * b * r ** (w.k - 2) * z.conjugate() / (2 * (abs(w.a) + b * r**w.k))


@dataclass
class GeodesicPath:
    """A geodesic sampled at uniform arc-length parameters."""

    t: np.ndarray
    z: np.ndarray
    velocity: np.ndarray
    surface: WeierstrassData

    @property
    def endpoint(self) -> complex:
        return complex(self.z[-1])

    def length_recomputed(self) -> float:
        """Independent re-integration of the metric length along the path."""
        from scipy.integrate import simpson

        speed = we_density(self.surface, self.z) * np.abs(self.velocity)
        return float(simpson(speed, x=self.t))


def geodesic_shoot(w: WeierstrassData, z0: complex, direction: complex,
                   length: float, n_steps: int = 4096) -> GeodesicPath:
    """Integrate the geodesic of the conformal metric from z0 with unit speed.

    The complex geodesic equation is z'' + 2 (d/dz log density) (z')^2 = 0 in
    the arc-length parametrisation; ``direction`` is normalised to a chart
    vector of unit metric speed.  Exiting the disk before the requested
    length raises :class:`RangeExitError` with the exit time.
    """
    if abs(z0) >= 1:
        raise DomainError("need |z0| < 1")
    if length <= 0:
        raise DomainError("need length > 0")
    d = complex(direction)
    if d == 0:
        raise DomainError("direction must be nonzero")
    d /= abs(d)
    h = length / n_steps

    def acc(z, v):
        return -2.0 * _dlog_density(w, z) * v * v

    zs, vs, exited = rk4(acc, complex(z0), d / float(we_density(w, z0)), h, n_steps,
                         lambda z: abs(z) < DISK_EDGE)
    if exited:
        t_exit = (len(zs) - 1) * h
        raise RangeExitError(f"geodesic left the disk at arc length {t_exit:.6g}",
                             exit_time=t_exit)
    return GeodesicPath(t=np.linspace(0.0, length, n_steps + 1), z=zs, velocity=vs, surface=w)


def corollary_check(w: WeierstrassData, rho1: float, rho2: float, n: int = 256):
    """Check rho2/rho1 > (1/2) Mod^2 + 1 on a geodesic annulus of the surface.

    The density is rotationally symmetric, so the chart region between the
    distance levels is the circular annulus with radii g(rho1), g(rho2), whose modulus is the log
    ratio; the capacity modulus of the masked level-set region is computed
    as a cross-check and recorded in the provenance.  The report is
    :func:`report.check_bound` under the zero bound with tolerance 0, and the
    verdict is strict.  The radii are admitted by the gate of
    :func:`modulus.masked_geodesic_annulus`.
    """
    from .modulus import masked_geodesic_annulus, modulus_capacity
    from .report import check_bound

    m = surface_metric(w)
    masked = masked_geodesic_annulus(m, rho1, rho2, n)
    s1, s2 = m.inverse_distance(np.array([rho1, rho2])).tolist()
    mod = math.log(s2 / s1)
    cap = modulus_capacity(masked)
    rep = check_bound(CurvatureBound.zero(), rho1, rho2, mod, tol=0.0)
    rep.passed = rep.margin > 0
    rep.provenance.update({
        "surface": w.name,
        "chart_radii": (s1, s2),
        "capacity_modulus": cap,
        "capacity_agreement": abs(cap - mod),
        "grid": n,
        "strict": True,
    })
    return rep
