"""
End-to-end verification of the annulus distortion bound
=======================================================

A harmonic homeomorphism from a circular annulus of modulus T onto a
geodesic annulus with radii rho1 < rho2 forces::

    rho2 / rho1  >=  Psi * T^2 + 1,

where Psi = psi_small(rho1) / (2 rho1) depends only on the curvature upper
bound.  ``check_bound`` evaluates both sides as pure arithmetic;
``verify_end_to_end`` actually solves the map on a grid and attaches every
supporting sub-check (residual, pointwise Laplacian margin, angular energy,
Green flux chain, boundary orientation).

Alongside the reported constant, every report carries the "sharp" variant
built from min over [rho1, rho2] of psi_sharp / (2 rho1): for a positive
curvature bound the reported Psi overstates the valid coefficient (see
``metrics.psi_sharp``), and near-critical spherical data genuinely violates
the reported inequality while always satisfying the sharp one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grid import AnnulusGrid
from .metrics import (
    CurvatureBound,
    GeodesicAnnulus,
    RotMetric,
    constant_curvature_metric,
    infer_bound,
    psi_big,
    psi_small,
    psi_sharp,
)
from .modulus import angular_energy
from .pde import green_stations, laplacian_bound_check, residual_norm, solve_dirichlet
from .radial import critical_modulus

REPORT_TOL = 1e-6
NEAR_CRITICAL_FRACTION = 0.3  # share of random_solved_cases drawn at the critical modulus


@dataclass
class BoundReport:
    """Both sides of the main inequality plus solver provenance."""

    mod: float
    rho1: float
    rho2: float
    psi_big_value: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    psi_sharp_min: float
    rhs_sharp: float
    margin_sharp: float
    tolerance: float
    provenance: dict = field(default_factory=dict)
    subchecks: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        out = {
            "mod": self.mod,
            "rho1": self.rho1,
            "rho2": self.rho2,
            "psi_big": self.psi_big_value,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict,
            "psi_sharp_min": self.psi_sharp_min,
            "rhs_sharp": self.rhs_sharp,
            "margin_sharp": self.margin_sharp,
            "tolerance": self.tolerance,
            "provenance": _jsonable(self.provenance),
            "subchecks": _jsonable(self.subchecks),
        }
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def config_hash(params: dict) -> str:
    """Deterministic digest of the run configuration, for reproducibility."""
    blob = json.dumps(_jsonable(params), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _psi_sharp_min(bound: CurvatureBound, rho1: float, rho2: float) -> float:
    """min of psi_sharp over [rho1, rho2]; attained at an endpoint.

    psi_sharp is increasing for nonpositive bounds and concave on the
    admissible range for positive ones, so the interval minimum sits at an
    endpoint either way.
    """
    return min(float(psi_sharp(bound, rho1)), float(psi_sharp(bound, rho2)))


def check_bound(bound: CurvatureBound, rho1: float, rho2: float, mod: float,
                tol: float = REPORT_TOL) -> BoundReport:
    """Pure-arithmetic report of the inequality for given data (no solving)."""
    GeodesicAnnulus(rho1, rho2, bound)
    if not 0 < mod < math.inf:
        raise DomainError("modulus must be positive and finite")
    psi = float(psi_big(bound, rho1))
    lhs = rho2 / rho1
    try:
        mod2 = mod**2
    except OverflowError:  # mod above 1.3e154: the right-hand sides are infinite
        mod2 = math.inf
    rhs = psi * mod2 + 1.0
    sharp = _psi_sharp_min(bound, rho1, rho2) / rho1 / 2  # as psi_big: 2 rho1 may overflow
    rhs_sharp = sharp * mod2 + 1.0
    params = {"bound": (bound.sign, bound.kappa), "rho1": rho1, "rho2": rho2, "mod": mod}
    return BoundReport(
        mod=mod,
        rho1=rho1,
        rho2=rho2,
        psi_big_value=psi,
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        passed=lhs - rhs >= -tol,
        psi_sharp_min=sharp * 2 * rho1,
        rhs_sharp=rhs_sharp,
        margin_sharp=lhs - rhs_sharp,
        tolerance=tol,
        provenance={"config": config_hash(params), "mode": "arithmetic"},
    )


def verify_end_to_end(metric: RotMetric, r1: float, r2: float,
                      rho1: float, rho2: float,
                      n_r: int = 128, n_theta: int = 128,
                      tol: float = REPORT_TOL) -> BoundReport:
    """Solve the grid map and emit a bound report with all sub-checks attached.

    The curvature bound is the metric's own, else :func:`infer_bound`.
    Orientation: if rho1 > rho2 the data asks the inner circle to hit the
    outer geodesic circle; the annulus inversion z -> r1 r2 / z reduces that
    to the normalised case, which for symmetric boundary data is just the
    swapped pair.  The report fails if any sub-check's ``ok`` is false.
    """
    swapped = False
    if rho1 > rho2:
        rho1, rho2 = rho2, rho1
        swapped = True
    bound = infer_bound(metric)

    grid = AnnulusGrid(r1, r2, n_r, n_theta)
    report = check_bound(bound, rho1, rho2, grid.modulus, tol=tol)
    f = solve_dirichlet(grid, metric, rho1, rho2)
    eps = grid.eps_grid

    res = residual_norm(f)
    margins = laplacian_bound_check(f, bound)
    lap_min = float(np.nanmin(margins))
    energy = angular_energy(f)
    energy_floor = 2 * math.pi * grid.modulus

    # eight half-node circles, the ones green_chain snaps these radii to
    radii = np.exp(np.linspace(math.log(r1), math.log(r2), 10)[1:-1])
    sigmas, fluxes, areas, inner_flux = green_stations(f, radii)
    gaps = fluxes - inner_flux - areas
    chain_margins = fluxes - 2 * math.pi * report.psi_sharp_min * np.log(sigmas / r1)
    identity_ok = bool(np.all(np.abs(gaps) <= 1e-6 * np.maximum(1.0, np.abs(areas))))
    chain_ok = bool(np.all(chain_margins >= -2 * math.pi * eps))

    inner_slope = float(np.min((f.rho[1] - f.rho[0]) / grid.h_t))
    diag = f.diagnostics()

    subchecks = {
        "residual": {"value": res, "tol": eps, "ok": res <= eps},
        "laplacian_margin_min": {"value": lap_min, "tol": eps, "ok": lap_min >= -eps},
        "angular_energy": {
            "value": energy,
            "floor": energy_floor,
            "ok": energy >= energy_floor - 1e-10 * max(1.0, energy_floor),
        },
        "green_chain": {
            "stations": len(sigmas),
            "identity_gap_max": float(np.max(np.abs(gaps))),
            "chain_margin_min": float(np.min(chain_margins)),
            "identity_ok": identity_ok,
            "chain_ok": chain_ok,
            "ok": identity_ok and chain_ok,
        },
        "inner_normal_derivative": {"value": inner_slope, "ok": inner_slope >= -eps},
        "homeomorphism": {**diag, "ok": diag["winding_ok"] and not diag["degenerate"]},
    }
    report.subchecks = subchecks
    report.passed = report.passed and all(block["ok"] for block in subchecks.values())
    report.provenance.update(
        {
            "mode": "solved",
            "grid": {"n_r": n_r, "n_theta": n_theta, "r1": r1, "r2": r2},
            "eps_grid": eps,
            "metric": metric.label,
            "bound": (bound.sign, bound.kappa),
            "orientation_swapped_via_inversion": swapped,
            "newton_iterations": f.info.iterations,
            "final_system_residual": f.info.residual_history[-1],
            "config": config_hash(
                {
                    "metric": metric.label,
                    "r1": r1,
                    "r2": r2,
                    "rho1": rho1,
                    "rho2": rho2,
                    "n_r": n_r,
                    "n_theta": n_theta,
                }
            ),
        }
    )
    return report


def random_solved_cases(n_per_sign: int = 50, seed: int = 7,
                        n_r: int = 128, n_theta: int = 128):
    """Randomised solved grid cases, ``n_per_sign`` for each curvature sign.

    Sampling is honest about criticality: the first ``NEAR_CRITICAL_FRACTION``
    of each sign's draws sit exactly at the largest solvable modulus for their
    radii (where the bound is tightest), the rest at a uniform fraction of it.
    Yields (case-dict, BoundReport) pairs.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for sign in ("zero", "negative", "positive"):
        for k in range(n_per_sign):
            if sign == "zero":
                bound = CurvatureBound.zero()
            else:
                bound = CurvatureBound(sign, rng.uniform(0.6, 1.4))
            cap = bound.cap if math.isfinite(bound.cap) else 2.2
            rho2 = rng.uniform(0.35, 0.96) * cap
            rho1 = rng.uniform(0.3, 0.85) * rho2
            metric = constant_curvature_metric(bound)
            t_max = critical_modulus(metric, rho1, rho2, tol=1e-6)
            near_critical = k < n_per_sign * NEAR_CRITICAL_FRACTION
            beta = 1.0 if near_critical else rng.uniform(0.35, 0.98)
            T = beta * t_max
            report = verify_end_to_end(
                metric, 1.0, math.exp(T), rho1, rho2, n_r=n_r, n_theta=n_theta
            )
            cases.append(
                (
                    {
                        "sign": sign,
                        "kappa": bound.kappa,
                        "rho1": rho1,
                        "rho2": rho2,
                        "mod": T,
                        "critical_mod": t_max,
                        "near_critical": near_critical,
                    },
                    report,
                )
            )
    return cases
