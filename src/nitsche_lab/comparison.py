"""
Numerical comparison theorems for rotationally symmetric metrics
================================================================

For a rotationally symmetric metric the geodesic polar quantities are exact:
``Hess d(del_theta, del_theta) = G G_rho`` and ``|del_theta|^2 = G^2``, while
``Hess d(del_rho, del_rho) = 0`` identically.  The two classical comparison
statements therefore reduce to pointwise inequalities in ``G`` that can be
checked on a sample grid:

- ordering of curvatures implies ``(G^2)'/G^2 >= (Ghat^2)'/Ghat^2`` and
  ``G^2 >= Ghat^2`` (growth comparison),
- a curvature upper bound ``c`` implies ``G_rho / G >= h_c(rho)`` (support
  Hessian bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metrics import CurvatureBound, RotMetric, gaussian_curvature, h_c

TOL = 1e-7
N_SAMPLES = 200  # radii sampled uniformly in (0, rho_max)
STATUS_OK = "ok"
STATUS_PRECONDITION = "precondition_violated"


@dataclass
class ComparisonReport:
    kind: str
    rho_samples: np.ndarray
    lhs: dict
    rhs: dict
    min_margin: float
    status: str = STATUS_OK
    note: str = ""
    radial_hessian_zero: bool = True

    @property
    def passed(self) -> bool:
        return self.status == STATUS_OK and self.min_margin >= -TOL


def _curvature_at_geodesic_radii(m: RotMetric, rho: np.ndarray) -> np.ndarray:
    s = np.asarray(m.inverse_distance(rho), dtype=float)
    return np.asarray(gaussian_curvature(m, s), dtype=float)


def _samples(rho_max: float) -> np.ndarray:
    return rho_max * np.arange(1, N_SAMPLES + 1) / (N_SAMPLES + 1)


def osserman_check(m: RotMetric, m_hat: RotMetric, rho_max: float) -> ComparisonReport:
    """Growth comparison of two metrics with ordered curvatures.

    First verifies the precondition K <= K_hat on the sampled radii (reported
    as a distinct status when violated, not as a comparison failure), then
    checks the logarithmic-derivative and coefficient inequalities.
    """
    if rho_max >= min(m.rho_max, m_hat.rho_max):
        raise DomainError("rho_max exceeds a metric's distance range")
    rho = _samples(rho_max)

    K = _curvature_at_geodesic_radii(m, rho)
    K_hat = _curvature_at_geodesic_radii(m_hat, rho)
    if np.any(K > K_hat + 1e-5):
        return ComparisonReport(
            kind="osserman",
            rho_samples=rho,
            lhs={}, rhs={},
            min_margin=math.nan,
            status=STATUS_PRECONDITION,
            note=f"curvature ordering fails by {float(np.max(K - K_hat)):.3e}",
        )

    G, G_hat = np.asarray(m.G(rho)), np.asarray(m_hat.G(rho))
    dlog = np.asarray(m.dG2(rho)) / G**2
    dlog_hat = np.asarray(m_hat.dG2(rho)) / G_hat**2
    lhs = {"log_derivative": dlog, "coefficient_sq": G**2}
    rhs = {"log_derivative": dlog_hat, "coefficient_sq": G_hat**2}
    margins = np.concatenate([dlog - dlog_hat, G**2 - G_hat**2])
    return ComparisonReport(
        kind="osserman",
        rho_samples=rho,
        lhs=lhs,
        rhs=rhs,
        min_margin=float(np.min(margins)),
    )


def hessian_check(m: RotMetric, rho_max: float, bound: CurvatureBound) -> ComparisonReport:
    """Support-function Hessian bound G_rho/G >= h_c under a curvature bound.

    The radial-radial Hessian entry of the distance function vanishes
    identically for the rotationally symmetric ansatz; it is asserted as an
    exact zero rather than sampled.  The positive case requires
    rho_max < pi/(2 kappa).
    """
    if rho_max >= m.rho_max:
        raise DomainError("rho_max exceeds the metric's distance range")
    if bound.sign == "positive" and rho_max >= bound.cap:
        raise DomainError("positive bound requires rho_max < pi/(2 kappa)")
    rho = _samples(rho_max)

    K = _curvature_at_geodesic_radii(m, rho)
    if np.any(K > bound.value + 1e-5):
        return ComparisonReport(
            kind="hessian",
            rho_samples=rho,
            lhs={}, rhs={},
            min_margin=math.nan,
            status=STATUS_PRECONDITION,
            note=f"curvature exceeds the bound by {float(np.max(K - bound.value)):.3e}",
        )

    ratio = np.asarray(m.G_prime(rho)) / np.asarray(m.G(rho))
    model = np.asarray(h_c(bound, rho))
    return ComparisonReport(
        kind="hessian",
        rho_samples=rho,
        lhs={"normal_hessian_ratio": ratio},
        rhs={"model": model},
        min_margin=float(np.min(ratio - model)),
    )
