"""
Polar grids on circular annuli and discrete maps over them
==========================================================

The annulus A(r1, r2) is discretised on log-spaced circles and uniform
angles; in the conformal coordinate ``zeta = log z = t + i phi`` the grid is
a uniform rectangle, periodic in ``phi``.  A discrete map stores per-node
target geodesic polar coordinates: the geodesic radius field ``rho`` and a
continuous lift of the target angle ``theta`` (winding one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .metrics import RotMetric
from .radial import RadialProfile


@dataclass(frozen=True)
class AnnulusGrid:
    """Log-polar grid on the circular annulus 0 < r1 < |z| < r2."""

    r1: float
    r2: float
    n_r: int
    n_theta: int

    def __post_init__(self):
        if not 0 < self.r1 < self.r2 < math.inf:
            raise DomainError("need 0 < r1 < r2 < inf")
        if self.n_r < 16 or self.n_theta < 32:
            raise DomainError("need n_r >= 16 and n_theta >= 32")

    @property
    def modulus(self) -> float:
        return math.log(self.r2 / self.r1)

    @property
    def t(self) -> np.ndarray:
        return np.log(self.r1) + np.linspace(0.0, self.modulus, self.n_r)

    @property
    def phi(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_theta) / self.n_theta

    @property
    def h_t(self) -> float:
        return self.modulus / (self.n_r - 1)

    @property
    def h_phi(self) -> float:
        return 2 * np.pi / self.n_theta

    @property
    def spacing(self) -> float:
        return max(self.h_t, self.h_phi)

    @property
    def eps_grid(self) -> float:
        """Discretisation tolerance 10 h^2 used by the solved-map checks."""
        return 10.0 * self.spacing**2

    def mesh(self):
        """(T, PHI) arrays of shape (n_r, n_theta)."""
        return np.meshgrid(self.t, self.phi, indexing="ij")

    def radii(self) -> np.ndarray:
        return np.exp(self.t)


def d_phi(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered d/dphi, periodic."""
    return (
        -np.roll(F, -2, axis=1) + 8 * np.roll(F, -1, axis=1)
        - 8 * np.roll(F, 1, axis=1) + np.roll(F, 2, axis=1)
    ) / (12 * h)


def d_phi2(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered d^2/dphi^2, periodic."""
    return (
        -np.roll(F, -2, axis=1) + 16 * np.roll(F, -1, axis=1) - 30 * F
        + 16 * np.roll(F, 1, axis=1) - np.roll(F, 2, axis=1)
    ) / (12 * h**2)


def d_t(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered d/dt; the two rows at each edge are NaN."""
    out = np.full_like(F, np.nan, dtype=float if not np.iscomplexobj(F) else complex)
    out[2:-2] = (-F[4:] + 8 * F[3:-1] - 8 * F[1:-3] + F[:-4]) / (12 * h)
    return out


def d_t2(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order centered d^2/dt^2; the two rows at each edge are NaN."""
    out = np.full_like(F, np.nan, dtype=float if not np.iscomplexobj(F) else complex)
    out[2:-2] = (-F[4:] + 16 * F[3:-1] - 30 * F[2:-2] + 16 * F[1:-3] - F[:-4]) / (12 * h**2)
    return out


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    message: str = ""


@dataclass
class AnnulusMap:
    """Discrete map into geodesic polar coordinates of a target metric.

    ``theta`` is stored as a continuous lift ``phi + u`` with ``u`` periodic,
    so the winding number along every grid circle is one by construction;
    :meth:`winding_numbers` recomputes it honestly from wrapped increments.
    """

    grid: AnnulusGrid
    rho: np.ndarray
    theta: np.ndarray
    metric: RotMetric
    info: SolveInfo | None = None

    def __post_init__(self):
        shape = (self.grid.n_r, self.grid.n_theta)
        if self.rho.shape != shape or self.theta.shape != shape:
            raise DomainError(f"field shape must be {shape}")
        if np.any(self.rho < 0) or np.any(self.rho >= self.metric.rho_max):
            raise DomainError("rho field leaves the metric's distance range")

    def chart_field(self) -> np.ndarray:
        """The complex chart field g(rho) e^{i theta}."""
        return self.metric.inverse_distance(self.rho) * np.exp(1j * self.theta)

    def winding_numbers(self) -> np.ndarray:
        """Winding of theta along each grid circle, from wrapped increments."""
        d = np.diff(self.theta, axis=1, append=self.theta[:, :1])
        wrapped = np.angle(np.exp(1j * d))
        return np.rint(wrapped.sum(axis=1) / (2 * np.pi)).astype(int)

    def diagnostics(self) -> dict:
        """Monotonicity and orientation indicators of a discrete homeomorphism."""
        drho_dt = np.diff(self.rho, axis=0)
        dtheta_dphi = np.diff(self.theta, axis=1)
        return {
            "min_drho_dt": float(drho_dt.min()),
            "min_dtheta_dphi": float(dtheta_dphi.min()),
            "winding_ok": bool(np.all(self.winding_numbers() == 1)),
            "degenerate": bool(np.max(np.abs(drho_dt)) < 1e-14),
        }


def embed_radial_profile(grid: AnnulusGrid, profile: RadialProfile) -> AnnulusMap:
    """Sample a radial trajectory onto a grid as the map g(rho(log|z|)) e^{i arg z}."""
    t_local = grid.t - math.log(grid.r1)
    if t_local[-1] > profile.modulus + 1e-9:
        raise DomainError("grid modulus exceeds the profile's range")
    rho_line = profile.rho_at(np.clip(t_local, 0.0, profile.modulus))
    T, PHI = grid.mesh()
    rho = np.repeat(rho_line[:, None], grid.n_theta, axis=1)
    return AnnulusMap(grid=grid, rho=rho, theta=PHI.copy(), metric=profile.metric)
