"""
Minimal-surface metrics and the annulus bound
=============================================
Catalog surfaces are defined by holomorphic derivative data on the unit
disk; the induced conformal density |g'| + |h'| has negative curvature, so
every geodesic annulus around the origin satisfies the flat-constant bound
rho2/rho1 > Mod^2/2 + 1 strictly.
"""

import numpy as np

from nitsche_lab import (
    catalog_surface,
    corollary_check,
    gaussian_curvature,
    geodesic_shoot,
    surface_metric,
    we_density,
    we_distance_radial,
)

enneper = catalog_surface("enneper")
print("Enneper-type surface: density 1 + |z|^2, radial distance s + s^3/3")
for s in (0.25, 0.5, 0.75, 0.999):
    print(f"  s={s:5.3f}: density {we_density(enneper, s):7.4f}, "
          f"distance {we_distance_radial(enneper, s):.6f}")

m = surface_metric(enneper)
s = np.linspace(0.1, 0.9, 5)
print(f"\ncurvature along a radius, -4/(1 + s^2)^4 in closed form (always negative): "
      f"{np.array2string(np.asarray(gaussian_curvature(m, s)), precision=4)}")

print("\ngeodesics by direct integration of the metric connection:")
ray = geodesic_shoot(enneper, 0.0, 1.0, 0.9)
print(f"  from the origin: straight ray, endpoint radius {abs(ray.endpoint):.6f}, "
      f"distance check {we_distance_radial(enneper, abs(ray.endpoint)):.9f} = 0.9")
bent = geodesic_shoot(enneper, 0.3 + 0.2j, np.exp(1j * 0.7), 0.5)
print(f"  off-center: curved path, re-integrated length "
      f"{bent.length_recomputed():.9f} = 0.5")

print("\nannulus bound on geodesic annuli (strict for a curved surface):")
print(f"{'rho1':>6} {'rho2':>6} {'rho2/rho1':>10} {'Mod^2/2+1':>10} {'margin':>9}")
for rho1, rho2 in ((0.3, 0.8), (0.4, 1.0), (0.5417, 1.28), (0.8, 1.2)):
    rep = corollary_check(enneper, rho1, rho2, n=128)
    print(f"{rho1:6.3f} {rho2:6.3f} {rep.lhs:10.5f} {rep.rhs:10.5f} "
          f"{rep.margin:+9.5f}")
rep = corollary_check(enneper, 0.4, 1.0, n=256)
print(f"\ncapacity cross-check of the chart modulus at 256^2: "
      f"|capacity - log ratio| = {rep.provenance['capacity_agreement']:.2e}")
