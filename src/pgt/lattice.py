"""Shifted-circle lattice counts and the empirical remainder exponent.

circle_count counts |Z^2 intersect B(b, sqrt(M))| (closed ball) exactly,
row by row: for each integer y the admissible x form an interval whose
endpoints are computed with integer square roots whenever the center is
rational, so boundary points (lattice points exactly on the circle) are
included without any epsilon games.  Float centers fall back to float
endpoints with a documented 1e-9 nudge; the seeded random sweeps only use
centers drawn from [0,1)^2 where exact ties do not occur.

residue_class_count reduces counting n = b (mod q), N(n) <= Z over Z[i] to
a shifted-circle count with rational center -b/q and radius^2 Z/N(q) in the
rescaled lattice, so it is exact as well.

eta_fit runs the sweep max-over-centers remainder against M and fits the
growth exponent on log-log axes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CutoffExceededError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from .harness import fit_exponent

CIRCLE_M_CAP = 1.0e9
REMAINDER_C = 8.0       # crude perimeter bound |count - pi M| <= C sqrt(M) + c0
REMAINDER_C0 = 2.0
_FLOAT_EDGE_EPS = 1e-9  # float-center boundary nudge (documented, not exact)


@dataclass
class LatticeCountResult:
    center: tuple
    M: float
    count: int
    remainder: float  # count - pi*M

    def __post_init__(self):
        if abs(self.remainder) > REMAINDER_C * math.sqrt(max(self.M, 0.0)) + REMAINDER_C0:
            raise ValueError("remainder violates the crude perimeter bound")


@dataclass
class EtaFit:
    samples: list          # (M, max remainder over centers)
    fitted_exponent: float
    constant: float
    residuals: list
    seed: int
    n_centers: int


def _count_row_rational(b1: Fraction, rem: Fraction) -> int:
    """#{x in Z : (x - b1)^2 <= rem} for rational b1, rem >= 0; exact."""
    if rem < 0:
        return 0
    # x in [b1 - sqrt(rem), b1 + sqrt(rem)]
    # right endpoint: largest x with (x - b1)^2 <= rem
    p, q = b1.numerator, b1.denominator
    rn, rd = rem.numerator, rem.denominator
    # (x*q - p)^2 * rd <= rn * q^2 ; let t = x*q - p
    bound = rn * q * q
    # t ranges over integers congruent to -p mod q; largest |t| with t^2*rd <= bound,
    # which for an integer t is t^2 <= floor(bound / rd)
    tmax = math.isqrt(bound // rd)
    # x <= (tmax + p)/q  and  x >= (-tmax + p)/q
    hi = (tmax + p) // q
    lo = -((tmax - p) // q)
    return hi - lo + 1 if hi >= lo else 0


def circle_count(b, M) -> LatticeCountResult:
    """Exact |Z^2 intersect closed ball of radius sqrt(M) at center b|.

    b is a pair of finite reals; int/Fraction components take the exact
    integer path.  M lies in [0, 1e9]; a larger finite M is refused as
    beyond the cap, a negative or non-finite M as invalid.
    """
    if not 0 <= M < math.inf:
        raise ValueError(f"M must lie in [0, {CIRCLE_M_CAP:g}], got {M!r}")
    if M > CIRCLE_M_CAP:
        raise CutoffExceededError(f"M = {M} beyond cap {CIRCLE_M_CAP}")
    b1, b2 = b
    if not all(-math.inf < c < math.inf for c in (b1, b2)):
        raise ValueError(f"b must be a pair of finite reals, got {b!r}")
    exact = all(isinstance(c, (int, Fraction)) for c in (b1, b2)) and \
        isinstance(M, (int, Fraction))
    count = 0
    if exact:
        b1f, b2f, Mf = Fraction(b1), Fraction(b2), Fraction(M)
        r = math.isqrt(int(Mf)) + 2
        ylo = math.floor(b2f) - r
        yhi = math.ceil(b2f) + r
        for y in range(ylo, yhi + 1):
            rem = Mf - (y - b2f) ** 2
            count += _count_row_rational(b1f, rem)
    else:
        rt = math.sqrt(float(M))
        ylo = math.ceil(float(b2) - rt - _FLOAT_EDGE_EPS)
        yhi = math.floor(float(b2) + rt + _FLOAT_EDGE_EPS)
        for y in range(ylo, yhi + 1):
            rem = float(M) - (y - float(b2)) ** 2
            if rem < 0:
                continue
            rr = math.sqrt(rem)
            hi = math.floor(float(b1) + rr + _FLOAT_EDGE_EPS)
            lo = math.ceil(float(b1) - rr - _FLOAT_EDGE_EPS)
            if hi >= lo:
                count += hi - lo + 1
    return LatticeCountResult(center=(b1, b2), M=float(M), count=count,
                              remainder=count - math.pi * float(M))


@dataclass
class ResidueClassCount:
    b: GaussianInt
    q: CanonicalIdealRep
    Z: float
    count: int
    main: float              # pi Z / N(q)
    remainder: float
    below_main_one: bool     # flagged when Z < N(q)


def residue_class_count(b: GaussianInt, q: CanonicalIdealRep, Z) -> ResidueClassCount:
    """Exact #{n = b (mod q), 0 <= N(n) <= Z} with main term pi Z / N(q).

    Elements n = b + q m; |b + q m|^2 <= Z is |m + b/q|^2 <= Z/N(q), a
    rational-center circle count (exact path).  Z is finite and >= 0.
    """
    if not 0 <= Z < math.inf:
        raise ValueError(f"Z must be finite and >= 0, got {Z!r}")
    nq = q.norm()
    qp = q.pair
    # b/q = b * conj(q) / N(q); center of the m-disk is -b/q
    t = g.mul(b.pair, g.conj(qp))
    center = (Fraction(-t[0], nq), Fraction(-t[1], nq))
    zfrac = Fraction(Z) if isinstance(Z, (int, Fraction)) else Fraction(float(Z))
    res = circle_count(center, zfrac / nq)
    main = math.pi * float(Z) / nq
    return ResidueClassCount(b=b, q=q, Z=float(Z), count=res.count, main=main,
                             remainder=res.count - main,
                             below_main_one=float(Z) < nq)


def eta_fit(m_grid, n_centers: int = 100, seed: int = 7) -> EtaFit:
    """Max shifted-circle remainder over seeded centers, per M, with a
    log-log least-squares growth exponent; n_centers is an int >= 1."""
    ms = sorted(set(float(m) for m in m_grid))
    if len(ms) < 2:
        raise ValueError("fit needs at least two distinct M values")
    if isinstance(n_centers, bool) or not isinstance(n_centers, int) or n_centers < 1:
        raise ValueError(f"fit needs an int n_centers >= 1, got {n_centers!r}")
    rng = random.Random(seed)
    centers = [(rng.random(), rng.random()) for _ in range(n_centers)]
    samples = []
    for M in ms:
        worst = 0.0
        for c in centers:
            worst = max(worst, abs(circle_count(c, M).remainder))
        samples.append((M, worst))
    fit = fit_exponent((M, max(w, 1e-300)) for M, w in samples)
    residuals = [math.log(y) - (fit.slope * math.log(x) + fit.intercept)
                 for x, y in fit.samples]
    return EtaFit(samples=samples, fitted_exponent=fit.slope,
                  constant=math.exp(fit.intercept), residuals=residuals,
                  seed=seed, n_centers=n_centers)
