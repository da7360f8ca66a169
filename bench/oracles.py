"""Reference values computed without the nitsche_lab package.

Every check in the benchmark compares the program's output with one of
these: closed forms, or the first integral of the radial equation evaluated
by quadrature.  Nothing here imports
nitsche_lab, and nothing compares against a stored copy of earlier output.

The radial equation ``rho'' = G G'(rho)`` is autonomous, so along a solution
``rho'^2 - G(rho)^2 = v0^2 - G(rho1)^2``.  The modulus reached at ``rho2``
from the inner slope ``v0`` is therefore

    T(v0) = int_{rho1}^{rho2} d rho / sqrt(v0^2 + G(rho)^2 - G(rho1)^2),

and the critical modulus is ``T(0)``.  The substitution
``rho = rho1 + (rho2 - rho1) s^2`` removes the endpoint singularity of
``T(0)``, and the radicand is written as
``D(kappa (rho + rho1)) D(kappa (rho - rho1)) / kappa^2`` with
``D = sinh, identity, sin`` so that no difference of nearly equal squares is
formed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import brentq

SIGNS = ("zero", "negative", "positive")

_GL_S, _GL_W = np.polynomial.legendre.leggauss(96)
_GL_S = 0.5 * (_GL_S + 1.0)  # nodes on [0, 1]
_GL_W = 0.5 * _GL_W


def cap(sign: str, kappa: float | None) -> float:
    """Largest geodesic radius on which G is increasing: pi/(2 kappa) or inf."""
    return math.pi / (2 * kappa) if sign == "positive" else math.inf


def G(sign: str, kappa: float | None, rho):
    """Angular coefficient of the constant-curvature model metric."""
    rho = np.asarray(rho, dtype=float)
    if sign == "zero":
        return rho
    if sign == "negative":
        return np.sinh(kappa * rho) / kappa
    return np.sin(kappa * rho) / kappa


def G_prime(sign: str, kappa: float | None, rho):
    rho = np.asarray(rho, dtype=float)
    if sign == "zero":
        return np.ones_like(rho)
    if sign == "negative":
        return np.cosh(kappa * rho)
    return np.cos(kappa * rho)


def _radicand(sign: str, kappa: float | None, rho, rho1: float):
    """G(rho)^2 - G(rho1)^2 as a product, free of cancellation."""
    if sign == "zero":
        return (rho + rho1) * (rho - rho1)
    D = np.sinh if sign == "negative" else np.sin
    return D(kappa * (rho + rho1)) * D(kappa * (rho - rho1)) / kappa**2


def modulus_of_slope(sign: str, kappa: float | None, rho1: float, rho2: float,
                     v0: float) -> float:
    """T(v0) by 96-point Gauss-Legendre quadrature in the variable s (float64)."""
    delta = rho2 - rho1
    s = _GL_S
    rho = rho1 + delta * s * s
    integrand = 2 * delta * s / np.sqrt(v0 * v0 + _radicand(sign, kappa, rho, rho1))
    return float(np.dot(_GL_W, integrand))


def critical_modulus_mp(sign: str, kappa: float | None, rho1: float, rho2: float,
                        dps: int = 30) -> float:
    """T(0) by mpmath.quad at ``dps`` digits; acosh(rho2/rho1) in the flat case."""
    with mpmath.workdps(dps):
        r1, delta = mpmath.mpf(rho1), mpmath.mpf(rho2) - mpmath.mpf(rho1)
        k = mpmath.mpf(kappa) if kappa is not None else None
        if sign == "zero":
            plus, minus = (lambda x: x), (lambda x: x)
        elif sign == "negative":
            plus = minus = mpmath.sinh
        else:
            plus = minus = mpmath.sin

        def integrand(s):
            rho_plus = 2 * r1 + delta * s * s
            if k is None:
                q = plus(rho_plus) * minus(delta * s * s) / (s * s)
            else:
                q = plus(k * rho_plus) * minus(k * delta * s * s) / (k * k * s * s)
            return 2 * delta / mpmath.sqrt(q)

        return float(mpmath.quad(integrand, [0, 1]))


def critical_modulus_fast(sign: str, kappa: float | None, rho1: float, rho2: float) -> float:
    """T(0) in float64, for building inputs; agrees with the mpmath value to ~1e-13."""
    return modulus_of_slope(sign, kappa, rho1, rho2, 0.0)


def inner_slope(sign: str, kappa: float | None, rho1: float, rho2: float, mod: float) -> float:
    """Inner slope v0 of the monotone radial solution with modulus ``mod``.

    T is strictly decreasing in v0 and T(v0) <= (rho2 - rho1)/v0, so the root
    lies in [0, (rho2 - rho1)/mod]; it exists exactly when T(0) >= mod.
    """
    f = lambda v: modulus_of_slope(sign, kappa, rho1, rho2, v) - mod
    if f(0.0) < 0:
        raise ValueError("modulus exceeds the critical modulus: no monotone solution")
    if f(0.0) == 0:
        return 0.0
    return brentq(f, 0.0, (rho2 - rho1) / mod, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def psi_reported(sign: str, kappa: float | None, rho1: float) -> float:
    """Reported constant sinh(k rho1)/(2 k rho1), 1/2, sin(k rho1)/(2 k rho1)."""
    if sign == "zero":
        return 0.5
    D = math.sinh if sign == "negative" else math.sin
    return D(kappa * rho1) / (2 * kappa * rho1)


def psi_sharp_coeff(sign: str, kappa: float | None, rho1: float, rho2: float) -> float:
    """min over {rho1, rho2} of sinh(2 k rho)/(2 k), rho, sin(2 k rho)/(2 k), over 2 rho1."""
    def one(rho):
        if sign == "zero":
            return rho
        D = math.sinh if sign == "negative" else math.sin
        return D(2 * kappa * rho) / (2 * kappa)

    return min(one(rho1), one(rho2)) / (2 * rho1)


def bound_sides(sign: str, kappa: float | None, rho1: float, rho2: float, mod: float) -> dict:
    """Both sides of rho2/rho1 >= Psi Mod^2 + 1, reported and sharp."""
    lhs = rho2 / rho1
    rhs = psi_reported(sign, kappa, rho1) * mod * mod + 1.0
    rhs_sharp = psi_sharp_coeff(sign, kappa, rho1, rho2) * mod * mod + 1.0
    return {"lhs": lhs, "rhs": rhs, "rhs_sharp": rhs_sharp,
            "margin": lhs - rhs, "margin_sharp": lhs - rhs_sharp}


def eps_grid(mod: float, n_r: int, n_theta: int) -> float:
    """Grid tolerance 10 h^2 with h the coarser of the two log-polar spacings."""
    return 10.0 * max(mod / (n_r - 1), 2 * math.pi / n_theta) ** 2


# Minimal surfaces of the catalog: density a + b s^p on the unit disk, so
# the radial distance is d(s) = a s + b s^(p+1)/(p+1).
SURFACE_DENSITY = {
    "planar": (1.0, 0.0, 0),
    "enneper": (1.0, 1.0, 2),
    "enneper2": (1.0, 1.0, 4),
    "enneper_scaled": (2.0, 2.0, 2),
    "enneper_rotated": (1.0, 1.0, 2),
}


def surface_distance(name: str, s):
    a, b, p = SURFACE_DENSITY[name]
    s = np.asarray(s, dtype=float)
    return a * s + b * s ** (p + 1) / (p + 1)


def surface_chart_radius(name: str, rho: float) -> float:
    """Inverse of the closed-form distance, by bracketed root finding on [0, 1]."""
    return brentq(lambda s: float(surface_distance(name, s)) - rho, 0.0, 1.0,
                  xtol=1e-16, rtol=4 * np.finfo(float).eps)


def self_test() -> list[str]:
    """Cross-checks of the oracles against closed forms; returns error messages."""
    errors = []
    for rho1, rho2 in ((0.4, 1.1), (1.0, 2.0)):
        exact = math.acosh(rho2 / rho1)
        for name, value in (("mpmath", critical_modulus_mp("zero", None, rho1, rho2)),
                            ("gauss", critical_modulus_fast("zero", None, rho1, rho2))):
            if abs(value - exact) > 1e-12 * exact:
                errors.append(f"oracle {name} T(0) flat {value!r} != acosh {exact!r}")
    s = surface_chart_radius("enneper", 0.9)
    if abs(s + s**3 / 3 - 0.9) > 1e-14:
        errors.append("oracle enneper inverse distance")
    return errors
