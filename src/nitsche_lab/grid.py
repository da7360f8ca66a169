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
from dataclasses import dataclass

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
        if not (0 < self.r1 < self.r2 and self.r2 / self.r1 < math.inf):
            raise DomainError("need 0 < r1 < r2 with r2/r1 a finite float")
        if self.n_r < 16 or self.n_theta < 32:
            raise DomainError("need n_r >= 16 and n_theta >= 32")
        if not np.all(np.diff(self.t) > 0):
            raise DomainError(f"r1 and r2 are too close to carry {self.n_r} distinct circles")

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


# Rows per strip of the grid checks: a complex strip of 32 rows at n_theta = 128 is 64 KiB,
# under glibc's 128 KiB mmap threshold, so its temporaries are reused from the heap and stay
# in cache; fewer rows cost more in per-strip calls (16 rows: about a quarter slower at 128^2).
_STRIP_ROWS = 32


def row_strips(start: int, stop: int):
    """Consecutive row ranges (lo, hi) covering start..stop-1, at most _STRIP_ROWS each."""
    return [(lo, min(lo + _STRIP_ROWS, stop)) for lo in range(start, stop, _STRIP_ROWS)]


def wrap_pad(F: np.ndarray, k: int) -> np.ndarray:
    """F with k columns of periodic padding on each side in phi (axis 1)."""
    return np.concatenate([F[:, -k:], F, F[:, :k]], axis=1)


def _shifts(B: np.ndarray, axis: int):
    """k -> B's inner rows (all but 2 at each end) moved k nodes along axis, as one flat
    slice; a phi shift leaves its row only in the pad columns, whose values are dropped."""
    W, flat = B.shape[1], B.reshape(-1)
    step, n = (W, 1)[axis], (B.shape[0] - 4) * W
    return lambda k: flat[2 * W + k * step:2 * W + k * step + n]


def d_first(B: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centred d/dt (axis 0) or d/dphi (axis 1) inside B's 2-node halo on every side."""
    s = _shifts(B, axis)
    d = (8 * (s(1) - s(-1)) - (s(2) - s(-2))) * (1 / (12 * h))
    return d.reshape(-1, B.shape[1])[:, 2:-2]


def d_second(B: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centred second difference along axis, as :func:`d_first`."""
    s = _shifts(B, axis)
    d = (16 * (s(1) + s(-1)) - (s(2) + s(-2)) - 30 * s(0)) * (1 / (12 * h**2))
    return d.reshape(-1, B.shape[1])[:, 2:-2]


def _windings(d: np.ndarray) -> np.ndarray:
    """Winding per grid circle from its phi increments d, each wrapped to [-pi, pi]."""
    wrapped = d - 2 * np.pi * np.rint(d / (2 * np.pi))
    return np.rint(wrapped.sum(axis=1) / (2 * np.pi)).astype(int)


@dataclass
class AnnulusMap:
    """Discrete map into geodesic polar coordinates of a target metric.

    ``theta`` is stored as a continuous lift ``phi + u`` with ``u`` periodic,
    so the winding number along every grid circle is one by construction;
    :meth:`winding_numbers` recomputes it honestly from wrapped increments.
    A solved map carries the radial ``profile`` its rows were read from.
    """

    grid: AnnulusGrid
    rho: np.ndarray
    theta: np.ndarray
    metric: RotMetric
    profile: RadialProfile | None = None

    def __post_init__(self):
        shape = (self.grid.n_r, self.grid.n_theta)
        if self.rho.shape != shape or self.theta.shape != shape:
            raise DomainError(f"field shape must be {shape}")
        self.metric.check_rho(self.rho)
        if not np.all(np.isfinite(self.theta)):
            raise DomainError("theta field must be finite")

    def chart_field(self, rows: slice = slice(None)) -> np.ndarray:
        """The complex chart field g(rho) e^{i theta} on the given grid rows."""
        rho, theta = self.rho[rows], self.theta[rows]
        s = self.metric.inverse_distance(rho)
        F = np.empty(rho.shape, complex)
        F.real, F.imag = s * np.cos(theta), s * np.sin(theta)
        return F

    def winding_numbers(self) -> np.ndarray:
        """Winding of theta along each grid circle, from wrapped increments."""
        return _windings(np.diff(self.theta, axis=1, append=self.theta[:, :1]))

    def diagnostics(self) -> dict:
        """Monotonicity and orientation indicators of a discrete homeomorphism."""
        drho_dt = np.diff(self.rho, axis=0)
        d = np.diff(self.theta, axis=1, append=self.theta[:, :1])  # the seam increment last
        return {
            "min_drho_dt": float(drho_dt.min()),
            "min_dtheta_dphi": float(d[:, :-1].min()),
            "winding_ok": bool(np.all(_windings(d) == 1)),
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
