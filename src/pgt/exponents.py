"""Numeric solvers for the exponent-balancing systems.

The short-interval error exponent beta(nu) comes from balancing a
zero-density term against a smoothing term: sigma in [1/2, 1) solves

    20(1-sigma)/(3-sigma) - nu = (sigma-1)(3nu-1)/(4-3sigma)        (B)

and then beta = (1-sigma)(3nu-1)/(4-3sigma).  The circle-problem variant
solves, for eta < nu,

    20(1-sigma)/(3-sigma) = eta + (nu-eta)(1-eta)/(2-eta-sigma)     (A)

with alpha = (nu-eta)(1-sigma)/(2-eta-sigma).  Both left/right sides change
sign between sigma = 1/2 and sigma -> 1, so plain bisection is guaranteed a
root; roots are polished to ~1e-14 interval width and every returned root
is re-substituted as a residual check.

The pointwise system couples beta = (8 nu - 5)/4 with (B); its closed forms

    sigma = (619 - sqrt(31049))/472,   nu = (197 - sqrt(31049))/32,
    beta/2 = (177 - sqrt(31049))/32,

are returned alongside the bisection output as a cross-check.

Corollary-style exponents are exact rational arithmetic (fractions.Fraction):
3/2 + 4 theta/7,  3/2 + (24 theta - 1)/46,  3/2 + 2 theta/3, and the
balancing choices Y = X^((21-16 theta)/28), V = (X^(2 theta - 1/3) Y)^(6/5).
"""

from __future__ import annotations

import math
from fractions import Fraction


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def beta_of(nu: float, sigma: float) -> float:
    return (1.0 - sigma) * (3.0 * nu - 1.0) / (4.0 - 3.0 * sigma)


def solve_beta(nu: float) -> tuple[float, float]:
    """(sigma, beta) for the short-interval balance at Y = X^nu."""
    if not (1.0 / 3.0 < nu <= 1.0):
        raise ValueError("nu must lie in (1/3, 1]")

    def f(sigma):
        return 20.0 * (1.0 - sigma) / (3.0 - sigma) - nu + beta_of(nu, sigma)

    sigma = _bisect(f, 0.5, 1.0 - 1e-15)
    resid = abs(f(sigma))
    if resid > 1e-10:
        raise ArithmeticError(f"bisection residual {resid} too large")
    return sigma, beta_of(nu, sigma)


def alpha_of(nu: float, eta: float, sigma: float) -> float:
    return (nu - eta) * (1.0 - sigma) / (2.0 - eta - sigma)


def solve_alpha(nu: float, eta: float) -> tuple[float, float]:
    """(sigma, alpha) for the circle-problem balance; needs eta < nu <= 1."""
    if not (0.25 < eta <= 0.5):
        raise ValueError("eta must lie in (1/4, 1/2]")
    if not (eta < nu <= 1.0):
        raise ValueError("nu must lie in (eta, 1]")

    def f(sigma):
        return (20.0 * (1.0 - sigma) / (3.0 - sigma)
                - eta - (nu - eta) * (1.0 - eta) / (2.0 - eta - sigma))

    sigma = _bisect(f, 0.5, 1.0 - 1e-15)
    resid = abs(f(sigma))
    if resid > 1e-10:
        raise ArithmeticError(f"bisection residual {resid} too large")
    return sigma, alpha_of(nu, eta, sigma)


def uncond_system() -> dict:
    """Solve beta = (8 nu - 5)/4 jointly with the beta balance.

    Eliminating beta from (8 nu - 5)/4 = nu - 20(1-sigma)/(3-sigma) gives
    nu(sigma) = 5/4 - 20(1-sigma)/(3-sigma); the remaining one-dimensional
    root in sigma is bisected and checked against the closed forms.
    """
    def nu_of(sigma):
        return 5.0 / 4.0 - 20.0 * (1.0 - sigma) / (3.0 - sigma)

    def f(sigma):
        nu = nu_of(sigma)
        return (8.0 * nu - 5.0) / 4.0 - beta_of(nu, sigma)

    sigma = _bisect(f, 0.8, 1.0 - 1e-15)
    nu = nu_of(sigma)
    beta = (8.0 * nu - 5.0) / 4.0
    pointwise = 13.0 / 8.0 - beta / 2.0
    root = math.sqrt(31049.0)
    closed = {
        "sigma": (619.0 - root) / 472.0,
        "nu": (197.0 - root) / 32.0,
        "beta_half": (177.0 - root) / 32.0,
    }
    resid = max(abs(f(closed["sigma"])),
                abs(beta / 2.0 - closed["beta_half"]))
    return {
        "sigma": sigma,
        "nu": nu,
        "beta": beta,
        "pointwise_exponent": pointwise,
        "closed_forms": closed,
        "closed_form_residual": resid,
    }


def corollary_exponents(theta: Fraction | float) -> dict:
    """Exact rational pointwise exponents as functions of theta in [0, 1/4]."""
    th = Fraction(theta).limit_denominator(10**9) if not isinstance(theta, Fraction) \
        else theta
    if not (0 <= th <= Fraction(1, 4)):
        raise ValueError("theta must lie in [0, 1/4]")
    return {
        "theta": th,
        "pointwise": Fraction(3, 2) + 4 * th / 7,
        "pointwise_mean_lindelof": Fraction(3, 2) + (24 * th - 1) / 46,
        "pointwise_trivial_spectral": Fraction(3, 2) + 2 * th / 3,
        "balancing_Y_exponent": (21 - 16 * th) / 28,
    }


def short_interval_exponents(theta: Fraction | float) -> dict:
    """Exact exponent records for the two conditional short-interval regimes."""
    th = Fraction(theta).limit_denominator(10**9) if not isinstance(theta, Fraction) \
        else theta
    if not (0 <= th <= Fraction(1, 4)):
        raise ValueError("theta must lie in [0, 1/4]")
    return {
        "theta": th,
        # error O(X^a Y^b) in the subconvex regime
        "subconvex_X_exponent": (4 * th + 6) / 5,
        "subconvex_Y_exponent": Fraction(2, 5),
        # conjectural circle-problem regime
        "gauss_X_exponent": Fraction(11, 10),
        "gauss_Y_exponent": Fraction(3, 5),
        # smoothing-length choice V = (X^(2 theta - 1/3) Y)^(6/5)
        "V_X_exponent": (2 * th - Fraction(1, 3)) * Fraction(6, 5),
        "V_Y_exponent": Fraction(6, 5),
    }
