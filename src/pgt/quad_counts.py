"""Counting functions rho_q / lambda_q and Kloosterman sums over Z[i].

Definitions (all sums over Z[i], ideals represented canonically):

  rho_q(delta)    = #{ x mod (2q) : x^2 = delta (mod 4q) }
  lambda_q(delta) = sum over ideal factorizations q1^2 q2 q3 = q of
                    mu(q2) * rho_{q3}(delta)
  S(m, n, c)      = sum over units a of Z[i]/(c) of
                    e(<m, a/c>) e(<n, a^-1/c>)

where <x, y> is the standard inner product on R^2 = C.  For delta = n^2 - 4
there is a bijection x = 2y + n between square roots of delta mod 4q and
roots of y^2 + n y + 1 mod q, so rho_q(n^2-4) is also a root count mod q;
this is what the fast path computes (multiplicatively, with Hensel lifting
at each prime power).

The phase <m, a/c> equals an exact integer divided by N(c), so every
exponential here is a root of unity evaluated from an exact rational angle;
sums are accumulated by harness.compensated_sum (Kahan summation).  A
Kloosterman sum is one int64 numpy pass over the transversal of Z[i]/(c),
primitive or not: the power a^(phi(c)-1) both tests each residue a for a
unit and inverts it.  The brute-force rho_q is one int64 numpy predicate
over the whole of Z[i]/(2q).  The trace partial sums run over
gaussian.disk_rows, one residue-class bincount per row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffExceededError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt, ResidueRing
from .harness import compensated_sum

RHO_BRUTE_NORM_CUTOFF = 10**6   # refuse brute enumeration beyond N(2q) > 1e6
# brute rho values kept per (q, delta): one szmidt_coefficient_check at its
# Qmax cap of 1e4 needs at most 7,854 of them (every ideal of norm <= 1e4)
RHO_BRUTE_MEMO = 2**13
KLOOSTERMAN_NORM_CUTOFF = 10**6
KLOOSTERMAN_CHUNK = 1 << 16     # residues per vector pass of kloosterman
_ROOT_ENUM_CUTOFF = 2**20       # largest prime norm for root enumeration


# ---------------------------------------------------------------------------
# rho: brute force (x-form) and fast (y-form, Hensel + CRT)
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


def _roots_mod_prime(pi, n):
    """Roots of y^2 + n y + 1 = 0 in Z[i]/(pi), pi prime, by enumeration."""
    npi = g.norm(pi)
    if npi > _ROOT_ENUM_CUTOFF:
        raise CutoffExceededError(f"prime norm {npi} too large for root enumeration")
    p0, p1 = pi
    roots = []
    for (a, b) in ResidueRing(pi).representatives():
        va = a * a - b * b + n[0] * a - n[1] * b + 1
        vb = 2 * a * b + n[0] * b + n[1] * a
        if (va * p0 + vb * p1) % npi == 0 and (vb * p0 - va * p1) % npi == 0:
            roots.append((a, b))
    return roots


def _count_roots_prime_power(pi, e, n):
    """#roots of y^2 + n y + 1 mod pi^e via Hensel lifting from level 1.

    Simple roots (f'(y) invertible mod pi) lift uniquely by a Newton step;
    singular roots are lifted by enumerating all N(pi) children per level.
    """
    roots = _roots_mod_prime(pi, n)
    if e == 1:
        return len(roots)
    ring1 = ResidueRing(pi)
    small = ring1.representatives()
    level = 1
    pik = pi  # pi^level
    while level < e:
        pik_next = g.mul(pik, pi)
        new_roots = []
        for y in roots:
            fy = (y[0] * y[0] - y[1] * y[1] + n[0] * y[0] - n[1] * y[1] + 1,
                  2 * y[0] * y[1] + n[0] * y[1] + n[1] * y[0])
            fprime = (2 * y[0] + n[0], 2 * y[1] + n[1])
            if not g.divides(pi, fprime):
                # Newton: t = -(f(y)/pi^level) * f'(y)^{-1} mod pi
                fred = g.exact_div(fy, pik)
                inv = g.invert_mod(fprime, pi)
                t = ring1.reduce(g.mul((-fred[0], -fred[1]), inv))
                new_roots.append(g.add(y, g.mul(t, pik)))
            else:
                for t in small:
                    cand = g.add(y, g.mul(t, pik))
                    fc = (cand[0] * cand[0] - cand[1] * cand[1]
                          + n[0] * cand[0] - n[1] * cand[1] + 1,
                          2 * cand[0] * cand[1] + n[0] * cand[1] + n[1] * cand[0])
                    if g.divides(pik_next, fc):
                        new_roots.append(cand)
        roots = new_roots
        pik = pik_next
        level += 1
    return len(roots)


def rho_fast(q: CanonicalIdealRep, n: GaussianInt) -> int:
    """rho_q(n^2 - 4) through the root count of y^2 + n y + 1 mod q.

    Multiplicative over the prime powers of q (CRT); agrees with
    rho_bruteforce wherever both are defined.
    """
    return g.multiplicative(q.pair, lambda pi, e: _count_roots_prime_power(pi, e, n.pair))


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


def lambda_(q: CanonicalIdealRep, delta: GaussianInt, *, n: GaussianInt | None = None,
            method: str = "fast") -> int:
    """lambda_q(delta): exact Mobius convolution over factorizations q1^2 q2 q3 = q.

    delta must be of the form n^2 - 4; if n is not supplied it is recovered as
    a Gaussian square root of delta + 4.  method="bruteforce" takes the
    x-enumeration rho instead (memoized, see rho_bruteforce), as the
    independent coefficient oracle does; this is the package's only Mobius
    convolution of rho.
    """
    if method == "fast" and n is None:
        n = sqrt_perfect_square(delta + GaussianInt(4, 0))

    def rho(q3_pair):
        if method == "bruteforce":
            return _rho_brute(q3_pair, delta.pair)
        return rho_fast(CanonicalIdealRep(GaussianInt.from_pair(q3_pair)), n)

    qpair = q.pair
    total = 0
    for q1 in g.divisor_pairs(qpair):
        q1sq = g.canonical_pair(g.mul(q1, q1))
        if not g.divides(q1sq, qpair):
            continue
        rest = g.canonical_pair(g.exact_div(qpair, q1sq))
        for q2 in g.divisor_pairs(rest):
            mu = g.mobius(CanonicalIdealRep(GaussianInt.from_pair(q2)))
            if mu == 0:
                continue
            q3 = g.canonical_pair(g.exact_div(rest, q2))
            total += mu * rho(q3)
    return total


def lambda_at_prime_power(pi, e: int, delta: GaussianInt,
                          n: GaussianInt | None = None) -> int:
    """lambda_{pi^e}(delta) for a prime pair pi, in O(log) at odd primes.

    At odd pi, write delta = pi^v * u: completing the square in
    y^2 + n y + 1 turns the root count into a square-root count of delta/4,
    which depends only on v (capped at e) and the symbol s = (u / pi):

        lambda = N^(e/2)        if v >= e and e even,   0 if v >= e and e odd,
        lambda = 0              if v < e and v odd,
        lambda = N^(v/2) s^(e-v) otherwise.

    At pi = (1+i) the value is lambda_() itself, over the Hensel root counts
    of the (1+i)^c.  Agrees with lambda_() everywhere (property-tested);
    this is the fast path used by the smoothed series.
    """
    npi = g.norm(pi)
    if npi == 2:  # (1+i)^e is 2^(e/2) for even e, 2^((e-1)/2) (1+i) for odd
        h = 1 << (e // 2)
        return lambda_(CanonicalIdealRep(GaussianInt(h, h * (e % 2))), delta, n=n)
    v = 0
    cur = delta.pair
    while v < e and g.divides(pi, cur):
        cur = g.exact_div(cur, pi)
        v += 1
    if v >= e:
        return npi ** (e // 2) if e % 2 == 0 else 0
    if v % 2:
        return 0
    s = g.euler_symbol(cur, pi)
    return npi ** (v // 2) * (s ** (e - v))


# ---------------------------------------------------------------------------
# partial sums of lambda over traces (element convention)
# ---------------------------------------------------------------------------

def mu_square_local(npi, e: int) -> float:
    """Local factor at pi^e, N(pi) = npi, of the multiplicative
    sum over q1^2 q2 = q of mu(q2)/N(q2): 1 for even e, -1/N(pi) for odd."""
    return 1.0 if e % 2 == 0 else -1.0 / npi


def _mu_square_coeff(qpair) -> float:
    """sum over q1^2 q2 = q of mu(q2)/N(q2), the Mobius factor of the main term."""
    return float(g.multiplicative(qpair, lambda pi, e: mu_square_local(g.norm(pi), e)))


def lambda_partial_sum(q: CanonicalIdealRep, Z: float):
    """(sum, main, remainder) of sum_{0 < N(n) <= Z} lambda_q(n^2-4).

    The sum runs over *elements* n (all four associates counted; n^2 - 4 is
    not associate-invariant), so the main term is pi*Z times the Mobius
    factor, pi*Z being the element count of the disk.  Z is finite and >= 1.
    """
    if not 1 <= Z < math.inf:
        raise ValueError(f"Z must be finite and >= 1, got {Z!r}")
    qpair = q.pair
    ring = ResidueRing(qpair)
    # lambda table over residues mod q (lambda_q(n^2-4) depends on n mod q)
    nq = ring.n_elements
    table = np.empty(nq, dtype=np.int64)
    for rep in ring.representatives():
        nn = GaussianInt.from_pair(rep)
        d = nn * nn - GaussianInt(4, 0)
        table[ring.index(rep)] = lambda_(q, d, n=nn)
    # count elements per residue class, row by row over the disk 0 < N(n) <= Z
    # (one bincount per row keeps memory flat in Z)
    d1, d2, eoff = ring.d1, ring.d2, ring.eoff
    total = 0
    for b, a in g.disk_rows(0, Z):
        k = b // d2
        y = b - k * d2
        x = (a - k * eoff) % d1
        idx = x * d2 + y
        counts = np.bincount(idx, minlength=nq)
        total += int(np.dot(counts, table))
    main = math.pi * Z * _mu_square_coeff(qpair)
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


def kloosterman(m: GaussianInt, n: GaussianInt, c: CanonicalIdealRep) -> KloostermanValue:
    """S(m, n, c) by exact enumeration of the unit group of Z[i]/(c).

    One vector pass over the HNF transversal, KLOOSTERMAN_CHUNK residues at
    a time: each residue a is raised to e = phi(c) - 1 by square-and-multiply
    in Z[i]/(c) (_ring_mul).  a is a unit exactly when a * a^e = 1, and then
    a^e is its inverse (the unit group has order phi(c)).  At c = 1 and
    c = 1+i, where e = 0, the pass takes a^1 instead, which is the inverse
    of the one unit there, 1 (at c = 1, where 0 = 1, S = 1).  Each phase is
    an exact integer over N(c), the same for any representative of the
    inverse; accumulation is Kahan-compensated separately in the real and
    imaginary parts, in transversal order, with math.cos and math.sin per
    term.
    """
    nc = c.norm()
    if nc > KLOOSTERMAN_NORM_CUTOFF:
        raise CutoffExceededError(f"N(c) = {nc} exceeds Kloosterman cutoff")
    cp = c.pair
    ring = ResidueRing(cp)
    one = ring.reduce((1, 0))
    e = g.euler_phi(c) - 1
    tau = 2.0 * math.pi / nc

    def phases():
        for lo in range(0, nc, KLOOSTERMAN_CHUNK):
            a = np.divmod(np.arange(lo, min(lo + KLOOSTERMAN_CHUNK, nc), dtype=np.int64),
                          ring.d2)
            inv = a
            for bit in bin(e)[3:]:  # a^e, from the leading bit of e down
                inv = _ring_mul(ring, inv, inv)
                if bit == "1":
                    inv = _ring_mul(ring, inv, a)
            x, y = _ring_mul(ring, a, inv)
            unit = (x == one[0]) & (y == one[1])
            yield from ((_phases(m.pair, cp, nc, a[0][unit], a[1][unit])
                         + _phases(n.pair, cp, nc, inv[0][unit], inv[1][unit])) % nc).tolist()

    terms = (complex(math.cos(tau * k), math.sin(tau * k)) for k in phases())
    return KloostermanValue(m=m, n=n, c=c, value=compensated_sum(terms))


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

    The left side uses the Hensel root-count rho; the right side enumerates
    units and their inverses, so the two sides share only the exact phase
    numerators (_phases).
    """
    nq = q.norm()
    if nq > 10**4:
        raise CutoffExceededError(f"N(q) = {nq} exceeds identity-check cutoff")
    qp = q.pair
    ring, rho_values = rho_table(q)
    rho = np.asarray(rho_values, dtype=np.int64)
    b = np.flatnonzero(rho)
    x, y = np.divmod(b, ring.d2)
    tau = 2.0 * math.pi / nq
    phases = _phases(k.pair, qp, nq, x, y).tolist()
    lhs = compensated_sum(cmath.rect(r, tau * ph) for r, ph in zip(rho[b].tolist(), phases))
    return abs(lhs - kloosterman(k, k, q).value)
