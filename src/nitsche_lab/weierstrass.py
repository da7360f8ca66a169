"""
Minimal-surface metrics on the unit disk
========================================

A simply connected minimal surface admits a conformal harmonic
parametrisation from the unit disk built from a pair of holomorphic
derivative data; the induced conformal density is |g'(z)| + |h'(z)|.  The
catalog here keeps only the derivative data -- the ambient immersion is
never needed: the density carries the curvature, the distances, and the
geodesics.  All catalog surfaces are rotationally symmetric, which is what
lets radial distances stand in for the full distance function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, RangeExitError, UnsupportedDataError
from .metrics import CurvatureBound, RotMetric, distance_table
from .radial import rk4

DISK_EDGE = 1.0 - 1e-6  # distances are computed up to this chart radius
SURFACE_KNOTS = 4096  # distance-table knots of surface_metric


@dataclass(frozen=True)
class WeierstrassData:
    """Holomorphic derivative data of a minimal-surface parametrisation."""

    name: str
    g_prime: Callable
    h_prime: Callable
    g_prime2: Callable
    h_prime2: Callable


def _const(c):
    return lambda z: np.full_like(np.asarray(z, dtype=complex), c)


CATALOG: dict[str, WeierstrassData] = {
    "planar": WeierstrassData(
        "planar", _const(1.0), _const(0.0), _const(0.0), _const(0.0)
    ),
    "enneper": WeierstrassData(
        "enneper",
        _const(1.0),
        lambda z: np.asarray(z, dtype=complex) ** 2,
        _const(0.0),
        lambda z: 2.0 * np.asarray(z, dtype=complex),
    ),
    "enneper2": WeierstrassData(
        "enneper2",
        _const(1.0),
        lambda z: np.asarray(z, dtype=complex) ** 4,
        _const(0.0),
        lambda z: 4.0 * np.asarray(z, dtype=complex) ** 3,
    ),
    "enneper_scaled": WeierstrassData(
        "enneper_scaled",
        _const(2.0),
        lambda z: 2.0 * np.asarray(z, dtype=complex) ** 2,
        _const(0.0),
        lambda z: 4.0 * np.asarray(z, dtype=complex),
    ),
    "enneper_rotated": WeierstrassData(
        "enneper_rotated",
        _const(1.0),
        lambda z: np.exp(1j * math.pi / 3) * np.asarray(z, dtype=complex) ** 2,
        _const(0.0),
        lambda z: 2.0 * np.exp(1j * math.pi / 3) * np.asarray(z, dtype=complex),
    ),
}


def catalog_surface(name: str) -> WeierstrassData:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown surface {name!r}; catalog: {sorted(CATALOG)}"
        ) from None


def we_density(w: WeierstrassData, z):
    """Conformal density |g'(z)| + |h'(z)| on the open unit disk."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("the chart is the open unit disk: need |z| < 1")
    out = np.abs(w.g_prime(z)) + np.abs(w.h_prime(z))
    return out if out.ndim else float(out)


def check_rotational_symmetry(w: WeierstrassData) -> bool:
    """Rotational symmetry: density constant to 1e-10 at 64 angles on four circles."""
    alphas = np.exp(2j * np.pi * np.arange(64) / 64)
    for s in (0.15, 0.4, 0.65, 0.9):
        vals = we_density(w, s * alphas)
        if np.max(vals) - np.min(vals) > 1e-10:
            return False
    return True


def we_distance_radial(w: WeierstrassData, s: float) -> float:
    """Geodesic distance from the origin along a ray, integral of the density.

    Valid only for rotationally symmetric data (rays from the origin are
    geodesics by symmetry); adaptive quadrature of the radial density.
    """
    if not check_rotational_symmetry(w):
        raise UnsupportedDataError(f"{w.name}: radial distances need rotational symmetry")
    if not 0 <= s <= DISK_EDGE:
        raise DomainError(f"need 0 <= s <= {DISK_EDGE}")
    if s == 0:
        return 0.0
    from scipy.integrate import quad

    val, _ = quad(lambda t: float(we_density(w, t)), 0.0, s, limit=200)
    return float(val)


def surface_metric(w: WeierstrassData) -> RotMetric:
    """RotMetric of a rotationally symmetric catalog surface.

    Distance and inverse from :func:`metrics.distance_table` on
    ``SURFACE_KNOTS`` knots, the inverse polished with Newton steps on the
    analytic density.  A minimal surface has curvature <= 0 (zero on the
    plane), so every catalog surface carries the zero bound.
    """
    if not check_rotational_symmetry(w):
        raise UnsupportedDataError(f"{w.name}: metric shortcut needs rotational symmetry")

    def h(s):
        s = np.asarray(s, dtype=float)
        return np.abs(w.g_prime(s.astype(complex))) + np.abs(w.h_prime(s.astype(complex)))

    dist_interp, inv_interp = distance_table(h, DISK_EDGE, SURFACE_KNOTS)

    def inverse(rho):
        rho_arr = np.asarray(rho, dtype=float)
        s = np.clip(inv_interp(rho_arr), 0.0, DISK_EDGE)
        for _ in range(3):  # Newton polish: d(s) - rho, d' = h
            s = np.clip(s - (dist_interp(s) - rho_arr) / h(s), 0.0, DISK_EDGE)
        return s if s.ndim else float(s)

    def h_prime(s):
        # radial derivative of a rotationally symmetric density: 2 Re d/dz
        s = np.asarray(s, dtype=float)
        out = 2.0 * np.real(_dlog_density(w, s.astype(complex))) * h(s)
        return out if out.ndim else float(out)

    return RotMetric(
        density=h,
        distance=dist_interp,
        inverse_distance=inverse,
        domain_radius=DISK_EDGE,
        rho_max=float(inv_interp.x[-1]),
        density_prime=h_prime,
        bound=CurvatureBound.zero(),
        label=f"weierstrass:{w.name}",
    )


def _dlog_density(w: WeierstrassData, z):
    """d/dz of log(|g'| + |h'|), zero-safe at zeros of the derivatives."""
    z = np.asarray(z, dtype=complex)
    gp, hp = w.g_prime(z), w.h_prime(z)
    gp2, hp2 = w.g_prime2(z), w.h_prime2(z)
    out = np.zeros_like(z)
    for val, dval in ((gp, gp2), (hp, hp2)):
        mag = np.abs(val)
        term = np.where(mag > 1e-300, dval * np.conj(val) / np.where(mag > 0, 2 * mag, 1.0), 0.0)
        out = out + term
    return out / (np.abs(gp) + np.abs(hp))


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

        speed = (np.abs(self.surface.g_prime(self.z)) + np.abs(self.surface.h_prime(self.z))) * np.abs(
            self.velocity
        )
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
        return -2.0 * complex(_dlog_density(w, np.asarray(z))) * v * v

    zs, vs, exited = rk4(acc, complex(z0), d / float(we_density(w, z0)), h, n_steps,
                         lambda z: abs(z) < DISK_EDGE)
    if exited:
        t_exit = (len(zs) - 1) * h
        raise RangeExitError(f"geodesic left the disk at arc length {t_exit:.6g}",
                             exit_time=t_exit)
    return GeodesicPath(t=np.linspace(0.0, length, n_steps + 1), z=zs, velocity=vs, surface=w)


def corollary_check(w: WeierstrassData, rho1: float, rho2: float, n: int = 256):
    """Check rho2/rho1 > (1/2) Mod^2 + 1 on a geodesic annulus of the surface.

    For symmetric data the chart region between the distance levels is the
    circular annulus with radii g(rho1), g(rho2), whose modulus is the log
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
