"""
Conformal modulus of doubly connected domains
=============================================

For the circular annulus the modulus is log(r2/r1).  For a general discrete
doubly connected region it is computed through the capacity
characterisation: solve the Laplace problem with values 0 and 1 on the two
boundary loops and return 2 pi divided by the Dirichlet energy.  The Laplace
solve uses the 5-point stencil on the log-polar chart (where the energy is
conformally invariant) and conjugate gradients from the linear profile in t
between the loops, exact when every grid row has one role (rotationally
symmetric masks); the energy uses midpoint quadrature on cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, DomainError, MaskError
from .metrics import RotMetric

INTERIOR, INNER, OUTER, OUTSIDE = 0, 1, 2, 3


def modulus_circular(r1: float, r2: float) -> float:
    """log(r2/r1); scale invariant."""
    Circular(r1, r2)
    return math.log(r2 / r1)


@dataclass(frozen=True)
class Circular:
    """A circular annulus r1 < |z| < r2."""

    r1: float
    r2: float

    def __post_init__(self):
        if not 0 < self.r1 < self.r2 < math.inf:
            raise DomainError("need 0 < r1 < r2 < inf")


@dataclass(frozen=True)
class MaskedPolarDomain:
    """A doubly connected node set on a log-polar grid.

    ``roles`` has one entry per node: interior, inner boundary (potential 0),
    outer boundary (potential 1), or outside.
    """

    t: np.ndarray
    n_theta: int
    roles: np.ndarray

    def __post_init__(self):
        if self.roles.shape != (len(self.t), self.n_theta):
            raise MaskError("roles array must be (n_t, n_theta)")
        inner = self.roles == INNER
        outer = self.roles == OUTER
        if not inner.any() or not outer.any():
            raise MaskError("need two nonempty boundary loops")
        # loops must not touch: no inner node next to an outer node along t,
        # nor along phi (across the periodic seam too)
        touch = inner[:-1] & outer[1:] | outer[:-1] & inner[1:]
        side = inner & np.roll(outer, 1, axis=1) | outer & np.roll(inner, 1, axis=1)
        if touch.any() or side.any():
            raise MaskError("boundary loops touch; the domain is degenerate")

    @property
    def h_t(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def h_phi(self) -> float:
        return 2 * math.pi / self.n_theta

    def inverted(self) -> "MaskedPolarDomain":
        """Image under z -> c/z (radii reflected, boundary roles swapped)."""
        roles = self.roles[::-1].copy()
        swap = roles.copy()
        swap[roles == INNER] = OUTER
        swap[roles == OUTER] = INNER
        return MaskedPolarDomain(t=(-self.t[::-1]).copy(), n_theta=self.n_theta, roles=swap)


DoublyConnectedDomain = Circular | MaskedPolarDomain


def masked_from_circular(r1: float, r2: float, n: int) -> MaskedPolarDomain:
    """Exact polar mask of a circular annulus on an n x n grid."""
    if n < 16:
        raise DomainError("need n >= 16")
    t = np.linspace(math.log(r1), math.log(r2), n)
    roles = np.full((n, n), INTERIOR, dtype=np.int8)
    roles[0] = INNER
    roles[-1] = OUTER
    return MaskedPolarDomain(t=t, n_theta=n, roles=roles)


def masked_geodesic_annulus(m: RotMetric, rho1: float, rho2: float,
                            n: int) -> MaskedPolarDomain:
    """Mask of the level-set region rho1 < d(0, z) < rho2 on a chart grid.

    The polar window extends a few cells beyond the level circles; boundary
    nodes are the grid circles nearest to each level crossing, so the
    snapping error per boundary is at most half a cell.  The radii are
    admitted by :meth:`RotMetric.check_annulus`.
    """
    m.check_annulus(rho1, rho2)
    if n < 16:
        raise DomainError("need n >= 16")
    s1, s2 = m.inverse_distance(np.array([rho1, rho2])).tolist()
    t_lo, t_hi = math.log(s1), math.log(s2)
    # incommensurate pads so the level circles genuinely fall between nodes
    cell = (t_hi - t_lo) / (n - 8)
    hi = t_hi + 2.718 * cell
    if math.isfinite(m.domain_radius):
        hi = min(hi, math.log(m.domain_radius * (1 - 1e-9)))
    t = np.linspace(t_lo - 3.414 * cell, hi, n)
    dist = np.asarray(m.distance(np.exp(t)), dtype=float)
    i_in = int(np.argmin(np.abs(dist - rho1)))
    i_out = int(np.argmin(np.abs(dist - rho2)))
    if i_out - i_in < 4:
        raise MaskError("level circles resolve to fewer than 4 cells apart")
    roles = np.full((n, n), OUTSIDE, dtype=np.int8)
    roles[i_in] = INNER
    roles[i_out] = OUTER
    roles[i_in + 1 : i_out] = INTERIOR
    return MaskedPolarDomain(t=t, n_theta=n, roles=roles)


def _laplace_solve(d: MaskedPolarDomain) -> np.ndarray:
    """5-point Laplace solve on the mask; returns the full potential field (NaN outside).

    CG starts from clip((t - t_a)/(t_b - t_a), 0, 1), t_a the highest inner and
    t_b the lowest outer node: exact, so accepted as is, when rows have one role.
    """
    nT, nP = d.roles.shape
    w_t, w_p = 1 / d.h_t**2, 1 / d.h_phi**2
    unknown = d.roles == INTERIOR
    N = int(unknown.sum())
    if N == 0:
        raise MaskError("mask has no interior nodes")
    # one OUTSIDE row beyond each end, so a row shift stays in the array
    roles = np.pad(d.roles, ((1, 1), (0, 0)), constant_values=OUTSIDE)
    index = np.full(roles.shape, -1, dtype=np.int64)
    index[1:-1][unknown] = np.arange(N)

    def neighbour(a, di, dj):
        return np.roll(a[1 + di : 1 + di + nT], -dj, axis=1)[unknown]

    steps = ((1, 0, w_t), (-1, 0, w_t), (0, 1, w_p), (0, -1, w_p))
    cols, b = [np.arange(N)], np.zeros(N)
    for di, dj, w in steps:
        role = neighbour(roles, di, dj)
        if np.any(role == OUTSIDE):
            raise MaskError("an interior node touches the outside; mask is not closed")
        cols.append(neighbour(index, di, dj))
        b += w * (role == OUTER)
    # row k of A is the center and its unknown neighbours, in that order
    cols = np.stack(cols, axis=1)
    keep = cols >= 0
    weights = np.broadcast_to([2 * w_t + 2 * w_p] + [-w for _, _, w in steps], cols.shape)
    A = sp.csr_matrix((weights[keep], cols[keep], np.r_[0, np.cumsum(keep.sum(axis=1))]),
                      shape=(N, N))

    t = np.broadcast_to(d.t[:, None], (nT, nP))
    t_a, t_b = t[d.roles == INNER].max(), t[d.roles == OUTER].min()
    x0 = np.clip((t[unknown] - t_a) / (t_b - t_a), 0.0, 1.0) if t_b > t_a else np.zeros(N)
    try:
        x, info = spla.cg(A, b, x0=x0, rtol=1e-10, atol=0.0, maxiter=40 * max(nT, nP))
    except TypeError:  # older scipy spelling
        x, info = spla.cg(A, b, x0=x0, tol=1e-10, atol=0.0, maxiter=40 * max(nT, nP))
    if info != 0:
        raise DivergenceError(f"capacity CG did not converge (info={info})")
    u = np.select([d.roles == INNER, d.roles == OUTER], [0.0, 1.0], np.nan)
    u[unknown] = x
    return u


def _cell_density(u: np.ndarray, h_t: float, h_phi: float, seam_jump: float = 0.0):
    """|grad u|^2 from midpoint d/dt, d/dphi on every cell; ``seam_jump`` is added
    to the wrapped corners of the last column (2 pi for an angle lift)."""
    right = np.roll(u, -1, axis=1)
    right[:, -1] += seam_jump
    c00, c10, c01, c11 = u[:-1], u[1:], right[:-1], right[1:]
    du_dt = 0.5 * ((c10 - c00) + (c11 - c01)) / h_t
    du_dp = 0.5 * ((c01 - c00) + (c11 - c10)) / h_phi
    return du_dt**2 + du_dp**2


def _cell_energy(u: np.ndarray, h_t: float, h_phi: float) -> float:
    """Midpoint-quadrature Dirichlet energy over cells with four finite corners."""
    dens = _cell_density(u, h_t, h_phi)
    return float(dens[np.isfinite(dens)].sum() * h_t * h_phi)


def modulus_capacity(d: DoublyConnectedDomain, n: int = 256) -> float:
    """Capacity modulus 2 pi / DirichletEnergy(u) of a doubly connected domain."""
    if isinstance(d, Circular):
        d = masked_from_circular(d.r1, d.r2, n)
    u = _laplace_solve(d)
    energy = _cell_energy(u, d.h_t, d.h_phi)
    if energy <= 0:
        raise DomainError("degenerate capacity problem (zero Dirichlet energy)")
    return 2 * math.pi / energy


def angular_energy(f) -> float:
    """Dirichlet integral of the target angle over the annulus.

    Midpoint quadrature on cells in the log chart.  Exactly 2 pi log(r2/r1)
    for theta = arg z; for any winding-one lift the discrete value is bounded
    below by 2 pi log(r2/r1) (Cauchy-Schwarz applied per cell row).
    """
    g = f.grid
    return float((_cell_density(f.theta, g.h_t, g.h_phi, 2 * np.pi) * g.h_t * g.h_phi).sum())
