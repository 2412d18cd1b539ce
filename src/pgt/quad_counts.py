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
sums are accumulated by harness.compensated_sum (Kahan summation).  The
trace partial sums run over gaussian.disk_rows, one residue-class bincount
per row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffExceededError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt, ResidueRing
from .harness import compensated_sum

RHO_BRUTE_NORM_CUTOFF = 10**6   # refuse brute enumeration beyond N(2q) > 1e6
KLOOSTERMAN_NORM_CUTOFF = 10**6
_ROOT_ENUM_CUTOFF = 2**20       # largest prime norm for root enumeration


# ---------------------------------------------------------------------------
# rho: brute force (x-form) and fast (y-form, Hensel + CRT)
# ---------------------------------------------------------------------------

def rho_bruteforce(q: CanonicalIdealRep, delta: GaussianInt) -> int:
    """Count x mod (2q) with x^2 = delta (mod 4q) by full enumeration."""
    qp = q.pair
    twoq = g.mul((2, 0), qp)
    fourq = g.mul((4, 0), qp)
    if g.norm(twoq) > RHO_BRUTE_NORM_CUTOFF:
        raise CutoffExceededError(f"N(2q) = {g.norm(twoq)} exceeds brute-force cutoff")
    n4 = g.norm(fourq)
    f0, f1 = fourq
    da, db = delta.pair
    count = 0
    for (x0, x1) in ResidueRing(twoq).representatives():
        wa = x0 * x0 - x1 * x1 - da
        wb = 2 * x0 * x1 - db
        # 4q | w  iff  w * conj(4q) = 0 componentwise mod N(4q)
        if (wa * f0 + wb * f1) % n4 == 0 and (wb * f0 - wa * f1) % n4 == 0:
            count += 1
    return count


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
    if q.norm() == 1:
        return 1
    out = 1
    np_ = n.pair
    for pi, e in g.factor_pair_cached(q.pair):
        out *= _count_roots_prime_power(pi, e, np_)
        if out == 0:
            return 0
    return out


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
    a Gaussian square root of delta + 4.  method="bruteforce" forces the
    x-enumeration rho (used by the independent coefficient oracle).
    """
    if method == "fast" and n is None:
        n = sqrt_perfect_square(delta + GaussianInt(4, 0))

    def rho(q3_pair):
        rep = CanonicalIdealRep(GaussianInt.from_pair(q3_pair))
        if method == "bruteforce":
            return rho_bruteforce(rep, delta)
        return rho_fast(rep, n)

    qpair = q.pair
    total = 0
    for q1 in g.divisor_pairs(qpair):
        q1sq = g.canonical_pair(g.mul(q1, q1)) if q1 != (0, 0) else q1
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

    At pi = (1+i) the value is assembled from Hensel root counts.  Agrees
    with lambda_() everywhere (property-tested); this is the fast path used
    by the smoothed series.
    """
    npi = g.norm(pi)
    dp = delta.pair
    if npi == 2:
        if n is None:
            n = sqrt_perfect_square(delta + GaussianInt(4, 0))
        np_ = n.pair
        rho_c = {0: 1}
        for c in range(1, e + 1):
            rho_c[c] = _count_roots_prime_power(pi, c, np_)
        out = 0
        for c in range(e % 2, e + 1, 2):
            out += rho_c[c]
        for c in range((e - 1) % 2, e, 2):
            out -= rho_c[c]
        return out
    v = 0
    cur = dp
    while v < e and g.divides(pi, cur):
        cur = g.exact_div(cur, pi)
        v += 1
    if v >= e:
        return npi ** (e // 2) if e % 2 == 0 else 0
    if v % 2:
        return 0
    s = g.euler_symbol(cur, pi)
    return npi ** (v // 2) * (s ** (e - v))


@dataclass
class RhoLambdaTable:
    """rho/lambda values of a fixed delta at all ideals of norm <= cutoff."""

    delta: GaussianInt
    cutoff: int
    entries: dict  # CanonicalIdealRep -> (rho, lambda)

    def validate(self):
        for rep, (rho, lam) in self.entries.items():
            nq = rep.norm()
            if not 0 <= rho <= nq:
                raise ValueError(f"rho out of range at {rep}: {rho}")
            dq = g.divisor_count(rep)
            if abs(lam) > dq * max(rho, 1):
                raise ValueError(f"lambda exceeds crude bound at {rep}")
        return True


def build_rho_lambda_table(delta: GaussianInt, cutoff: int,
                           n: GaussianInt | None = None) -> RhoLambdaTable:
    """Tabulate (rho_q, lambda_q)(delta) for every ideal q of norm <= cutoff."""
    if n is None:
        n = sqrt_perfect_square(delta + GaussianInt(4, 0))
    entries = {}
    for pair in g.ideal_reps_upto(cutoff):
        rep = CanonicalIdealRep(GaussianInt.from_pair(pair))
        entries[rep] = (rho_fast(rep, n), lambda_(rep, delta, n=n))
    table = RhoLambdaTable(delta=delta, cutoff=cutoff, entries=entries)
    table.validate()
    return table


# ---------------------------------------------------------------------------
# partial sums of lambda over traces (element convention)
# ---------------------------------------------------------------------------

def _mu_square_coeff(qpair) -> float:
    """sum over q1^2 q2 = q of mu(q2)/N(q2); multiplicative, per prime power:
    1 for even exponents, -1/N(pi) for odd."""
    out = 1.0
    for pi, e in g.factor_pair_cached(qpair):
        if e % 2:
            out *= -1.0 / g.norm(pi)
    return out


def lambda_partial_sum(q: CanonicalIdealRep, Z: float):
    """(sum, main, remainder) of sum_{0 < N(n) <= Z} lambda_q(n^2-4).

    The sum runs over *elements* n (all four associates counted; n^2 - 4 is
    not associate-invariant), so the main term is pi*Z times the Mobius
    factor, pi*Z being the element count of the disk.
    """
    if Z < 1:
        raise ValueError("Z must be >= 1")
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


def _phase_int(v, x, cbar, nc):
    """Exact numerator of <v, x/c> = (v, x*conj(c))/N(c), reduced mod N(c)."""
    t = g.mul(x, cbar)
    return (v[0] * t[0] + v[1] * t[1]) % nc


_rho_table_memo: dict = {}


def rho_table(q: CanonicalIdealRep):
    """(ring, values): rho_q(b^2-4) at every representative b of Z[i]/(q).

    Values are aligned with ring.representatives(); memoized because the
    identity checks and acceptance sweeps revisit the same moduli many times.
    """
    key = q.pair
    hit = _rho_table_memo.get(key)
    if hit is not None:
        return hit
    ring = ResidueRing(key)
    values = [rho_fast(q, GaussianInt.from_pair(b)) for b in ring.representatives()]
    if len(_rho_table_memo) > 2048:
        _rho_table_memo.clear()
    _rho_table_memo[key] = (ring, values)
    return ring, values


def kloosterman(m: GaussianInt, n: GaussianInt, c: CanonicalIdealRep) -> KloostermanValue:
    """S(m, n, c) by exact enumeration of the unit group of Z[i]/(c).

    Each phase is an exact integer over N(c); accumulation is Kahan-compensated
    separately in the real and imaginary parts.
    """
    nc = c.norm()
    if nc > KLOOSTERMAN_NORM_CUTOFF:
        raise CutoffExceededError(f"N(c) = {nc} exceeds Kloosterman cutoff")
    cp = c.pair
    cbar = g.conj(cp)
    ring = ResidueRing(cp)
    mp, np_ = m.pair, n.pair
    tau = 2.0 * math.pi / nc

    def terms():
        for a in ring.representatives():
            if g.norm(g.gcd_pair(a, cp)) != 1:
                continue
            ainv = g.invert_mod(a, cp)
            ang = tau * ((_phase_int(mp, a, cbar, nc) + _phase_int(np_, ainv, cbar, nc)) % nc)
            yield complex(math.cos(ang), math.sin(ang))

    return KloostermanValue(m=m, n=n, c=c, value=compensated_sum(terms()))


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
    units and their inverses, so the two sides share no code path.
    """
    nq = q.norm()
    if nq > 10**4:
        raise CutoffExceededError(f"N(q) = {nq} exceeds identity-check cutoff")
    qp = q.pair
    qbar = g.conj(qp)
    ring, rho_values = rho_table(q)
    kp = k.pair
    tau = 2.0 * math.pi / nq
    lhs = compensated_sum(cmath.rect(rho, tau * _phase_int(kp, b, qbar, nq))
                          for b, rho in zip(ring.representatives(), rho_values) if rho)
    return abs(lhs - kloosterman(k, k, q).value)
