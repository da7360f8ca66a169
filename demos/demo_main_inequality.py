"""
The annulus distortion bound, end to end
========================================
For a harmonic homeomorphism from a circular annulus of modulus T onto a
geodesic annulus with radii rho1 < rho2, the target distortion satisfies
rho2/rho1 >= Psi T^2 + 1 with Psi determined by the curvature ceiling.

This script runs the full pipeline (grid solve + sub-checks) across the
three curvature signs, including the delicate near-critical regime.  It
also demonstrates the positive-curvature anomaly: near the critical
modulus, the reported constant sin(kappa rho1)/(2 kappa rho1) is too strong
by a factor 1/cos(kappa rho1), while the sharp coefficient
min sin(2 kappa rho)/(2 kappa) / (2 rho1) always holds.
"""

import math

from nitsche_lab import (
    CurvatureBound,
    check_bound,
    constant_curvature_metric,
    critical_modulus,
    verify_end_to_end,
)

print("arithmetic check, flat ceiling: the classical critical pair")
rep = check_bound(CurvatureBound.zero(), 0.8, 1.0, math.log(2))
print(f"  lhs {rep.lhs:.5f} vs rhs {rep.rhs:.5f}: margin {rep.margin:+.5f} "
      f"-> {rep.verdict}")
rep = check_bound(CurvatureBound.zero(), 0.9, 1.0, math.log(2))
print(f"  tighter data 0.9 -> 1.0: margin {rep.margin:+.5f} -> {rep.verdict} "
      "(and indeed no radial solution exists)")

print("\nsolved pipelines at the critical modulus, 128x128 grids:")
cases = [
    ("zero", None, 0.8, 1.0),
    ("negative", 1.0, 0.5, 1.0),
    ("positive", 1.0, 0.8, 0.95 * math.pi / 2),
]
for sign, kappa, rho1, rho2 in cases:
    bound = CurvatureBound(sign, kappa)
    metric = constant_curvature_metric(bound)
    t_max = critical_modulus(metric, rho1, rho2, tol=1e-6)
    rep = verify_end_to_end(metric, 1.0, math.exp(t_max), rho1, rho2)
    subs = all(
        blk.get("ok", blk.get("identity_ok", True) and blk.get("chain_ok", True))
        for blk in rep.subchecks.values()
    )
    print(f"  {sign:9s} rho=({rho1:.3f},{rho2:.3f}) mod={t_max:.4f}: "
          f"margin {rep.margin:+.4f}, sharp margin {rep.margin_sharp:+.4f}, "
          f"sub-checks {'green' if subs else 'RED'} -> {rep.verdict}")

print(
    "\nthe positive-curvature failure above is forced: for the critical map,\n"
    "(rho2/rho1 - 1)/(Psi T^2) tends to cos(kappa rho1) < 1 as T -> 0, so the\n"
    "reported constant cannot hold near criticality, no matter the solver.\n"
    "The sharp-coefficient margin stays positive in every case."
)
