"""Counting functions rho_q / lambda_q and Kloosterman sums over Z[i].

Definitions (all sums over Z[i], ideals represented canonically):

  rho_q(delta)    = #{ x mod (2q) : x^2 = delta (mod 4q) }
  lambda_q(delta) = sum over ideal factorizations q1^2 q2 q3 = q of
                    mu(q2) * rho_{q3}(delta)
  S(m, n, c)      = sum over units a of Z[i]/(c) of
                    e(<m, a/c>) e(<n, a^-1/c>)

where <x, y> is the standard inner product on R^2 = C.  For delta = n^2 - 4
there is a bijection x = 2y + n between square roots of delta mod 4q and
roots of y^2 + n y + 1 mod q, so rho_q(n^2-4) is also a root count mod q.
The fast path is multiplicative, and each local rule at pi^e is stated
once, for Python ints and for the int64 arrays of trace_engine alike.  At
odd pi, lambda_odd is 0 for odd v and N^(v/2) s^(e-v) for even v, where
v = v_pi(delta) capped at e and s = (delta pi^-v / pi), and
rho_{pi^c} = lambda_{pi^c} + lambda_{pi^(c-1)} follows from it.  At every
pi, lambda_from_rho is lambda_{pi^e} = sum over c <= e of (-1)^(e-c)
rho_{pi^c}.  At (1+i), rho has two forms: _rho_levels lifts the roots of
one n through the two residues mod (1+i) per level, and
trace_engine._even_rho_table counts them over Z[i]/((1+i)^c) for arrays.
The scalar walk keeps the lift, the tables' oracle: it reaches c = 21 at
V = 1e5, where the tables for every c <= 21 take 160 MB and 0.4 s (2 vCPUs).
lambda = (1_sq * mu) * rho is one Dirichlet convolution, lambda_table: over
the divisors of q in lambda_, over all N(q) <= Qmax in szmidt_coefficient_check.

The phase <m, a/c> equals an exact integer divided by N(c), so every
exponential here is a root of unity evaluated from an exact rational angle;
a sum takes one math.fsum per real and imaginary part (correctly rounded).  A
Kloosterman sum reads the units of Z[i]/(c) and their inverses from _units,
one int64 numpy pass over the transversal, primitive c or not: the power
a^(phi(c)-1) both tests each residue a for a unit and inverts it.  The pass
depends on c alone and is cached per process up to a norm ceiling (bound
derived at KLOOSTERMAN_CACHE_NORM).  The trig is math.cos/math.sin per term,
as in the reference sums: numpy's need not match it bit for bit on every
platform.  The brute-force rho_q is one int64 numpy predicate over the whole
of Z[i]/(2q).  The trace partial sums run over gaussian.disk_rows, one
residue-class bincount per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import CutoffExceededError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt, ResidueRing

RHO_BRUTE_NORM_CUTOFF = 10**6   # refuse brute enumeration beyond N(2q) > 1e6
# brute rho values kept per (q, delta).  szmidt_coefficient_check takes each
# once; the reuse is the decode at (1+i) when n is unknown, which
# pin_even_unit_values (unmemoized, called by T_l_poly) repeats per D
RHO_BRUTE_MEMO = 2**10
KLOOSTERMAN_NORM_CUTOFF = 10**6
KLOOSTERMAN_CHUNK = 1 << 16     # residues per vector pass of _units
# unit enumerations kept per process.  Criterion 3 in full mode and the
# scalar bench revisit the 395 moduli of norm <= 500 (Weil sweep, S(0, 0, c),
# identity check); the ceiling is twice that norm and 512 the power of two
# above 395.  An entry is 2 x phi(c) < 2000 int32s, so the cache holds < 4 MiB.
KLOOSTERMAN_CACHE_NORM = 1000
KLOOSTERMAN_CACHE_SIZE = 512


# ---------------------------------------------------------------------------
# rho: brute force (x-form) and fast (one local rule per prime power + CRT)
# ---------------------------------------------------------------------------

def rho_bruteforce(q: CanonicalIdealRep, delta: GaussianInt) -> int:
    """Count x mod (2q) with x^2 = delta (mod 4q) by full enumeration.

    Every residue x = x0 + x1*i of the HNF transversal of Z[i]/(2q) is tested
    at once, as int64 arrays: 4q | w = x^2 - delta iff both components of
    w * conj(4q) vanish mod N(4q).  No int64 overflows: x0, x1 < N(2q) <= 1e6,
    the components of 4q are below 2e3 in size and those of delta below 2^31,
    so every product is below 2^63.  Shares no code with rho_fast.  Memoized
    per (q, delta) pair in one bounded cache, which lambda_'s bruteforce
    method shares.
    """
    return _rho_brute(q.pair, delta.pair)


@lru_cache(maxsize=RHO_BRUTE_MEMO)
def _rho_brute(qp, dp) -> int:
    """rho_bruteforce at the canonical pair qp and the pair dp of delta."""
    twoq = g.mul((2, 0), qp)
    f0, f1 = g.mul((4, 0), qp)
    if g.norm(twoq) > RHO_BRUTE_NORM_CUTOFF:
        raise CutoffExceededError(f"N(2q) = {g.norm(twoq)} exceeds brute-force cutoff")
    n4 = f0 * f0 + f1 * f1
    da, db = dp
    ring = ResidueRing(twoq)
    x0, x1 = np.divmod(np.arange(ring.n_elements, dtype=np.int64), ring.d2)
    wa = x0 * x0 - x1 * x1 - da
    wb = 2 * x0 * x1 - db
    hit = ((wa * f0 + wb * f1) % n4 == 0) & ((wb * f0 - wa * f1) % n4 == 0)
    return int(np.count_nonzero(hit))


def lambda_odd(e: int, v, s, npi: int):
    """lambda_{pi^e}(delta) at an odd prime pi of norm npi, the package's one
    closed form of lambda or rho there, from v = v_pi(delta) capped at e (so
    that e - v >= 0) and the symbol s = (delta pi^-v / pi).  At v = e it is
    N^(e/2) or 0 (e even or odd) whatever s, as s^0 = 1, also for s = 0.
    Branch-free: v and s may be ints or int arrays, elementwise."""
    return (1 - v % 2) * npi ** (v // 2) * s ** (e - v)


def lambda_from_rho(rho):
    """lambda_{pi^e} from rho = [rho_{pi^c} for c = 0..e], ints or int64
    arrays: only q1 = pi^k, q2 in {1, pi} survive the Mobius convolution at
    a prime power, and the alternating sum is taken as rho_c - lambda_(c-1)."""
    lam = 0
    for r in rho:
        lam = r - lam
    return lam


def _rho_levels(pi, e: int, delta, n) -> list:
    """[rho_{pi^c}(delta) for c = 0..e] at a prime pair pi, delta = n^2 - 4.

    At odd pi, rho_c = lambda_c + lambda_(c-1) (lambda_from_rho inverted),
    with each lambda_c from lambda_odd at the valuation capped at c; n is
    not read.  At (1+i) a root y of y^2 + n y + 1 mod (1+i)^c lies under
    the two residues y and y + (1+i)^c mod (1+i)^(c+1); the roots are
    lifted one level at a time, keeping the candidates that are roots one
    level up.  delta and n are pairs.
    """
    npi = g.norm(pi)
    if npi != 2:
        v, u = g.valuation(pi, delta, e)
        s = g.euler_symbol(u, pi)
        lam = [lambda_odd(c, min(v, c), s, npi) for c in range(e + 1)]
        return lam[:1] + [a + b for a, b in zip(lam[1:], lam)]
    roots, pik, out = [(0, 0)], (1, 0), [1]
    for _ in range(e):
        up = g.mul(pik, pi)
        roots = [y for r in roots for y in (r, g.add(r, pik))
                 if g.divides(up, g.add(g.mul(g.add(y, n), y), (1, 0)))]
        pik = up
        out.append(len(roots))
    return out


def rho_fast(q: CanonicalIdealRep, n: GaussianInt) -> int:
    """rho_q(n^2 - 4) from the local rule _rho_levels at each prime power
    of q (CRT); agrees with rho_bruteforce wherever both are defined.
    """
    delta = g.sub(g.mul(n.pair, n.pair), (4, 0))
    return g.multiplicative(q.pair, lambda pi, e: _rho_levels(pi, e, delta, n.pair)[-1])


def sqrt_perfect_square(delta_plus_4: GaussianInt) -> GaussianInt:
    """A Gaussian square root of a perfect square, via factorization."""
    if delta_plus_4.is_zero():
        return GaussianInt(0, 0)
    fac = g.factor(delta_plus_4)
    root = (1, 0)
    for p, e in fac.factors:
        if e % 2:
            raise ValueError(f"{delta_plus_4} is not a perfect square")
        for _ in range(e // 2):
            root = g.mul(root, p.pair)
    u = fac.unit.pair
    if u == (1, 0):
        pass
    elif u == (-1, 0):
        root = g.mul(root, (0, 1))
    else:
        raise ValueError(f"{delta_plus_4} is not a perfect square")
    return GaussianInt.from_pair(root)


def lambda_table(pairs, delta: GaussianInt, *, n: GaussianInt | None = None,
                 method: str = "fast") -> dict:
    """{q: lambda_q(delta)} at every canonical pair q of `pairs`.

    The package's one Mobius convolution of rho, lambda = (1_sq * mu) * rho,
    over `pairs`, sorted by (norm, re) and closed under taking divisors:
    each product canonical_pair(d e) in the list is one term, and the inner
    loop stops once N(d) N(e) passes the largest norm.  rho is taken once
    per ideal: rho_fast, or the x-enumeration with method="bruteforce".
    """
    if method == "fast" and n is None:
        n = sqrt_perfect_square(delta + GaussianInt(4, 0))
    top = g.norm(pairs[-1])
    norms = [g.norm(p) for p in pairs]

    def convolve(f, h):
        out = dict.fromkeys(pairs, 0)
        for d, nd in zip(pairs, norms):
            for e, ne in zip(pairs, norms):
                if nd * ne > top:
                    break
                if h[e] and (q := g.canonical_pair(g.mul(d, e))) in out:
                    out[q] += f[d] * h[e]
        return out

    squares = {g.canonical_pair(g.mul(d, d)) for d in pairs}
    square = {p: int(p in squares) for p in pairs}
    mu = {p: g.multiplicative(p, lambda pi, e: -1 if e == 1 else 0) for p in pairs}
    if method == "bruteforce":
        rho = {p: _rho_brute(p, delta.pair) for p in pairs}
    else:
        rho = {p: rho_fast(CanonicalIdealRep(GaussianInt.from_pair(p)), n) for p in pairs}
    return convolve(convolve(mu, square), rho)


def lambda_(q: CanonicalIdealRep, delta: GaussianInt, *, n: GaussianInt | None = None,
            method: str = "fast") -> int:
    """lambda_q(delta): exact Mobius convolution over factorizations q1^2 q2 q3 = q.

    lambda_table over the divisors of q.  delta must be of the form n^2 - 4;
    if n is not supplied it is recovered as a Gaussian square root of
    delta + 4.  method="bruteforce" takes the x-enumeration rho instead
    (memoized, see rho_bruteforce).
    """
    pairs = sorted(g.divisor_pairs(q.pair), key=lambda d: (g.norm(d), d[0]))
    return lambda_table(pairs, delta, n=n, method=method)[q.pair]


def lambda_at_prime_power(pi, e: int, delta: GaussianInt,
                          n: GaussianInt | None = None) -> int:
    """lambda_{pi^e}(delta) for a prime pair pi, delta = n^2 - 4.

    lambda_odd at odd pi, where n is not needed; at (1+i), lambda_from_rho
    over the lifted levels of _rho_levels, with n recovered from delta + 4
    when not supplied.  Agrees with lambda_() everywhere (property-tested);
    this is the fast path used by the smoothed series.
    """
    npi = g.norm(pi)
    if npi != 2:
        v, u = g.valuation(pi, delta.pair, e)
        return lambda_odd(e, v, g.euler_symbol(u, pi), npi)
    if n is None:
        n = sqrt_perfect_square(delta + GaussianInt(4, 0))
    return lambda_from_rho(_rho_levels(pi, e, delta.pair, n.pair))


# ---------------------------------------------------------------------------
# partial sums of lambda over traces (element convention)
# ---------------------------------------------------------------------------

def mu_square_local(npi, e: int):
    """Local factor at pi^e, N(pi) = npi, of the multiplicative
    sum over q1^2 q2 = q of mu(q2)/N(q2): 1 for even e, -1/N(pi) for odd.
    npi may be a float64 array of norms (at odd e)."""
    return 1.0 if e % 2 == 0 else -1.0 / npi


def _mu_square_coeff(qpair) -> float:
    """sum over q1^2 q2 = q of mu(q2)/N(q2), the Mobius factor of the main term."""
    return float(g.multiplicative(qpair, lambda pi, e: mu_square_local(g.norm(pi), e)))


def _lambda_residues(q: CanonicalIdealRep):
    """(ring, int64 array): lambda_q(n^2-4), which depends on n mod q only,
    at every residue n of Z[i]/(q) in index order, from the local rule."""
    ring = ResidueRing(q.pair)
    ns = [GaussianInt.from_pair(rep) for rep in ring.representatives()]
    return ring, np.array([g.multiplicative(q.pair, lambda pi, e: lambda_at_prime_power(
        pi, e, nn * nn - GaussianInt(4, 0), nn)) for nn in ns], dtype=np.int64)


def lambda_partial_sum(q: CanonicalIdealRep, Z: float):
    """(sum, main, remainder) of sum_{0 < N(n) <= Z} lambda_q(n^2-4).

    The sum runs over *elements* n (all four associates counted; n^2 - 4 is
    not associate-invariant), so the main term is pi*Z times the Mobius
    factor, pi*Z being the element count of the disk.  Z is finite and >= 1.
    """
    if not 1 <= Z < math.inf:
        raise ValueError(f"Z must be finite and >= 1, got {Z!r}")
    ring, table = _lambda_residues(q)
    # count elements per residue class, row by row over the disk 0 < N(n) <= Z
    # (one bincount per row keeps memory flat in Z)
    total = 0
    for b, a in g.disk_rows(0, Z):
        counts = np.bincount(ring.index((a, b)), minlength=ring.n_elements)
        total += int(np.dot(counts, table))
    main = math.pi * Z * _mu_square_coeff(q.pair)
    return total, main, total - main


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------

@dataclass
class KloostermanValue:
    """S(m, n, c) with its arguments; value is real when m = n."""

    m: GaussianInt
    n: GaussianInt
    c: CanonicalIdealRep
    value: complex


def _phases(v, c, nc, x, y):
    """Exact numerators of <v, a/c> = <v, a*conj(c)>/N(c), reduced mod N(c),
    at the residues a = x + y*i given as int64 arrays of components.

    <v, a*conj(c)> = Re(conj(v*c) * a), so with w = v*c reduced mod N(c)
    the numerator is w0*x + w1*y mod N(c).  v may have components up to
    2^31 - 1; w is formed in Python integers and reduced before any array
    product, so for 0 <= x, y < N(c) <= 1e6 every product stays below 1e12.
    """
    w0, w1 = g.mul(v, c)
    return ((w0 % nc) * x + (w1 % nc) * y) % nc


def _ring_mul(ring, a, b):
    """Product of two arrays of residues (x, y) of ring, reduced to the
    transversal.  On the transversal (x < d1, y < d2, d1*d2 = N(m) <= 1e6)
    every int64 term of the product and of ring.reduce stays below 2^42."""
    (x1, y1), (x2, y2) = a, b
    return ring.reduce((x1 * x2 - y1 * y2, x1 * y2 + y1 * x2))


@lru_cache(maxsize=2048)
def rho_table(q: CanonicalIdealRep):
    """(ring, values): rho_q(b^2-4) at every representative b of Z[i]/(q).

    Values are aligned with ring.representatives(); memoized because the
    identity checks and acceptance sweeps revisit the same moduli many times.
    """
    ring = ResidueRing(q.pair)
    return ring, [rho_fast(q, GaussianInt.from_pair(b)) for b in ring.representatives()]


def _units(cp):
    """The units of the HNF transversal of Z[i]/(cp), in transversal order,
    over their inverses: a read-only (2, phi(c)) int32 array of indices
    x*d2 + y of the transversal.

    One vector pass, KLOOSTERMAN_CHUNK residues at a time: each residue a is
    raised to e = phi(c) - 1 by square-and-multiply in Z[i]/(c) (_ring_mul).
    a is a unit exactly when a * a^e = 1, and then a^e is its inverse (the
    unit group has order phi(c)).  At c = 1 and c = 1+i, where e = 0, the
    pass takes a^1 instead, which is the inverse of the one unit there, 1
    (at c = 1, where 0 = 1, the unit is 0).
    """
    ring = ResidueRing(cp)
    nc = ring.n_elements
    one = ring.reduce((1, 0))
    e = g.euler_phi(CanonicalIdealRep(GaussianInt.from_pair(cp))) - 1
    chunks = []
    for lo in range(0, nc, KLOOSTERMAN_CHUNK):
        idx = np.arange(lo, min(lo + KLOOSTERMAN_CHUNK, nc), dtype=np.int64)
        a = np.divmod(idx, ring.d2)
        inv = a
        for bit in bin(e)[3:]:  # a^e, from the leading bit of e down
            inv = _ring_mul(ring, inv, inv)
            if bit == "1":
                inv = _ring_mul(ring, inv, a)
        x, y = _ring_mul(ring, a, inv)
        unit = (x == one[0]) & (y == one[1])
        chunks.append(np.stack((idx, inv[0] * ring.d2 + inv[1]))[:, unit])
    out = np.concatenate(chunks, axis=1).astype(np.int32)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=KLOOSTERMAN_CACHE_SIZE)
def _cached_units(cp):
    """_units, kept for moduli of norm <= KLOOSTERMAN_CACHE_NORM."""
    return _units(cp)


def kloosterman(m: GaussianInt, n: GaussianInt, c: CanonicalIdealRep) -> KloostermanValue:
    """S(m, n, c) by exact enumeration of the unit group of Z[i]/(c).

    The units and their inverses come from _units, cached for N(c) <=
    KLOOSTERMAN_CACHE_NORM and enumerated afresh above it.  Each phase is an
    exact integer over N(c) (_phases), the same for any representative of
    the inverse; the real and imaginary parts are each one math.fsum over
    math.cos and math.sin of the phases.
    """
    nc = c.norm()
    if nc > KLOOSTERMAN_NORM_CUTOFF:
        raise CutoffExceededError(f"N(c) = {nc} exceeds Kloosterman cutoff")
    cp = c.pair
    d2 = ResidueRing(cp).d2
    units = (_cached_units if nc <= KLOOSTERMAN_CACHE_NORM else _units)(cp)
    (x, xi), (y, yi) = np.divmod(units.astype(np.int64), d2)
    k = (_phases(m.pair, cp, nc, x, y) + _phases(n.pair, cp, nc, xi, yi)) % nc
    theta = (2.0 * math.pi / nc * k).tolist()
    value = complex(math.fsum(map(math.cos, theta)), math.fsum(map(math.sin, theta)))
    return KloostermanValue(m=m, n=n, c=c, value=value)


def weil_ratio(m: GaussianInt, n: GaussianInt, c: CanonicalIdealRep,
               value: complex | None = None) -> float:
    """|S(m,n,c)| / (|(m,n,c)| d(c) N(c)^(1/2)) -- the Weil-bound ratio."""
    if value is None:
        value = kloosterman(m, n, c).value
    # fold c in first so gcd never sees (0, 0) even when m = n = 0
    gall = g.gcd_pair(g.gcd_pair(c.pair, m.pair), n.pair)
    denom = math.sqrt(g.norm(gall)) * g.divisor_count(c) * math.sqrt(c.norm())
    return abs(value) / denom


def kloosterman_identity_check(q: CanonicalIdealRep, k: GaussianInt) -> float:
    """|sum_b rho_q(b^2-4) e(<k, b qbar/N(q)>) - S(k, k, q)|.

    The left side uses rho_fast's local rule; the right side enumerates
    units and their inverses, so the two sides share only the exact phase
    numerators (_phases).
    """
    nq = q.norm()
    if nq > 10**4:
        raise CutoffExceededError(f"N(q) = {nq} exceeds identity-check cutoff")
    ring, rho_values = rho_table(q)
    rho = np.asarray(rho_values, dtype=np.int64)
    b = np.flatnonzero(rho)
    x, y = np.divmod(b, ring.d2)
    theta = (2.0 * math.pi / nq * _phases(k.pair, q.pair, nq, x, y)).tolist()
    r = rho[b].tolist()
    lhs = complex(math.fsum(map(mul, r, map(math.cos, theta))),
                  math.fsum(map(mul, r, map(math.sin, theta))))
    return abs(lhs - kloosterman(k, k, q).value)
