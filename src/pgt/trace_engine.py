"""Vectorized evaluation of smoothed form-L-function values over many traces.

The geodesic counting function needs G_V(n^2 - 4) for every trace n in a
disk or annulus -- tens of thousands of values whose smoothed series share
the same ideals q.  Summing per trace is hopeless; instead the sum is run
ideal-major:

    acc[n] = sum over ideals N(q) <= 40V of
             e^(-N(q)/V)/N(q) * prod over pi^e || q of lambda_{pi^e}(n^2-4)

where for each prime power the vector lambda_{pi^e}(.) over all traces is
computed at once:

  * split pi over p:  Z[i]/(pi) = Z/p via the ring map i -> t of
    gaussian.i_mod_split (the one the scalar Euler criterion uses); for
    e = 1 the value is the Legendre symbol of (n^2-4 mod pi), read from a
    marked square table mod p or, for p beyond the norms of the prime
    factors of n^2-4 and p^2 beyond the cutoff, by quadratic reciprocity
    from the symbols of pi at those factors (_DeltaFactors);
    for e >= 2, gaussian.valuation divides pi out of n^2-4 (capped at e),
    the rest is mapped the same way, and the value is quad_counts.lambda_odd,
    the closed form of the scalar path.
  * inert p:          the symbol is legendre(N(x) mod p) since the norm is
    the Frobenius trace map to F_p; the same for e >= 2.
  * pi = (1+i):       quad_counts.lambda_from_rho, the scalar path's
    alternating sum, over rows of one table of rho_{(1+i)^c} over
    Z[i]/((1+i)^c) per c and process (_even_rho_table), built from the unit
    histogram of y + y^(-1) with inverses via a vectorized Newton iteration
    mod 2^f (no loops in Python).  The scalar path lifts the roots of one n
    instead (quad_counts._rho_levels), the tables' oracle.

The traces themselves are the gaussian.disk_rows points of an annulus in
N(n), filtered and ordered by the vectorized `thresholds`.  The sum is
gv_sweep's own, on the package's one ideal walker, gaussian.walk_ideals
(lfunctions.smoothed_sums, the other caller, sums the scalar series).  The
depth-first walk over the sorted prime list fixes the term order (hence
floating-point rounding), and a prime power whose product vector vanishes
on every trace prunes its subtree.  The walk visits only the ideals with
a multiple in range (1,248 of 31,407 at the 40,000 cutoff of V = 1000)
and the higher prime powers.  Each visit adds its term before its subtree
and its prime leaves q * pi after it, in one step over one int8 row per
norm N: lambda_pi(n^2-4) where one ideal has that norm, and
lambda_pi + lambda_conj(pi), in -2..2, for a split pair, whose two leaves
share the weight w_N = e^(-N(q) N/V) / (N(q) N); the step adds
val_q * sum_N w_N row_N.  A range that starts at conj(pi), past pi (the
visit ends in pi, or the leaf bound falls between the two), adds
conj(pi)'s own row, its e = 1 vector, first.  (A scalar series records
its visits and sums them after the walk.)
Every vector and row builder is property-tested against the scalar
quad_counts.lambda_.

No work is done twice for an answer already known:

  * orbit representatives: n, -n, conj(n) and -conj(n) give delta and
    conj(delta), and G_V(conj(delta)) = G_V(delta) because
    lambda_q(conj(delta)) = lambda_{conj(q)}(delta) and N(conj(q)) = N(q).
    So the walk runs over one trace per class {delta, conj(delta)}, the
    member with Im(delta) >= 0, and the values are scattered back.  The
    representative depends only on the class, so a value never depends on
    which other traces share the set: each column of a leaf sum is summed
    in the order of the primes, whatever the other columns.  In floating
    point a trace with Im(delta) < 0 gets conj(delta)'s walk, which adds
    the same terms in another order: within ~1e-14 of walking delta itself.
  * several V in one walk: `gv_sweep` keeps an accumulator for each V,
    bit-identical to its own `gv_per_trace`.  The quarter-V validation of
    geodesics rides along the V sweep this way.
  * one symbol build per rational prime: a Legendre table mod p, or the
    local symbols of reciprocity when p^2 lies beyond the cutoff and p
    beyond the factor bound, fills the one row of both split ideals over p
    at once; a table is kept only while the walk can ask for a higher power
    over p (p^2 within the cutoff).  The n^2 - 4 are factored, through
    n - 2 and n + 2, once per sweep, before the first block of prime rows
    when the walk reaches a prime that takes the local symbols, and their
    factors' Legendre tables, kept as one bitmap, serve the rows over
    those factors too.  On 2 vCPUs at 7,891 traces a local row costs 15 to
    20 us whatever p, a table row 65 us at p = 2 * 7,891 and more beyond,
    so every split prime past the factor bound takes the local symbols.
  * a byte budget: vectors, kept tables and blocks of prime rows are
    cached while a later visit can read them and they fit in CACHE_BYTES
    (64 MiB), and a cached entry is never evicted.  A visit q reads an
    entry of norm N only when N(q) N lies within a cutoff, and every visit
    but the unit ideal has N(q) >= 2, so the blocks of the primes above
    half the largest cutoff and above the second largest, which the unit
    alone reads, once, are not cached (30 of 66 blocks, 15 MB, in psi(1e4)
    at V = 1000).  The walk reads the rows of the small primes at every
    node and those of the large ones at few, in ascending scans that repeat;
    on that pattern least-recently-used eviction keeps nothing once a scan
    outgrows the budget, while admission keeps the rows that are read most,
    built once each.  A vector is stored in int8 or int16 when its values
    fit, as they do at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import gaussian as g
from .lfunctions import CUTOFF_MULT, _exp_weight, _sweep_limits
from .quad_counts import lambda_from_rho, lambda_odd


# ---------------------------------------------------------------------------
# trace enumeration
# ---------------------------------------------------------------------------

def thresholds(na, nb) -> np.ndarray:
    """max(|z|^2, |z^-1|^2) for z = (n + sqrt(n^2-4))/2, n = na + nb*i.

    Vectorized over integer arrays.  Exactly 1.0 for the finitely many
    unit-circle traces (those are excluded by the strict lower bound
    elsewhere).  Double precision keeps the relative error near 1e-15 at desk
    scale; |z| is taken by hypot, the rounding of the scalar abs(complex).
    """
    n = np.asarray(na, dtype=np.float64) + 1j * np.asarray(nb, dtype=np.float64)
    root = np.sqrt(n * n - 4)
    z1 = (n + root) / 2.0
    z2 = (n - root) / 2.0
    t1 = np.hypot(z1.real, z1.imag)
    t2 = np.hypot(z2.real, z2.imag)
    return np.maximum(t1 * t1, t2 * t2)


def threshold_of_pair(a: int, b: int) -> float:
    """thresholds() of the single trace a + b*i."""
    return float(thresholds([a], [b])[0])


@dataclass
class TraceSet:
    """Traces n with threshold in (lo, hi], as parallel arrays.

    weight[j] = sqrt(N(n_j^2 - 4)); da/db are the exact components of
    n^2 - 4 (int64 is ample at the 3e4 desk cap).
    """

    lo: float
    hi: float
    na: np.ndarray
    nb: np.ndarray
    weight: np.ndarray
    thr: np.ndarray
    da: np.ndarray = field(init=False)
    db: np.ndarray = field(init=False)

    def __post_init__(self):
        self.da = self.na * self.na - self.nb * self.nb - 4
        self.db = 2 * self.na * self.nb

    def __len__(self):
        return len(self.na)


def trace_set(lo: float, hi: float) -> TraceSet:
    """All traces n with lo < threshold(n) <= hi, sorted by (threshold, re, im).

    Candidates are the gaussian.disk_rows points of the annulus
    lo - 3 < N(n) <= hi + 3 (the threshold differs from N(n) by at most
    2 + 1/N boundary terms), filtered by the exact threshold.  Both bounds
    must be finite; lo may be negative.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound!r}")
    rows = list(g.disk_rows(lo - 3.0, hi + 3.0))
    empty = np.zeros(0, dtype=np.int64)
    na = np.concatenate([empty] + [a for _, a in rows])
    nb = np.concatenate([empty] + [np.full(len(a), b, dtype=np.int64) for b, a in rows])
    thr = thresholds(na, nb)
    keep = np.flatnonzero((thr > lo) & (thr <= hi) & (thr > 1.0))
    order = keep[np.lexsort((nb[keep], na[keep], thr[keep]))]
    na, nb, thr = na[order], nb[order], thr[order]
    da = na * na - nb * nb - 4
    db = 2 * na * nb
    weight = np.sqrt((da * da + db * db).astype(np.float64))
    return TraceSet(lo=lo, hi=hi, na=na, nb=nb, weight=weight, thr=thr)


# ---------------------------------------------------------------------------
# per-prime-power lambda vectors
# ---------------------------------------------------------------------------

def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an int64 array and an int p > 0: floor division by a
    scalar is several times faster than numpy's %."""
    return x - (x // p) * p


def _sq_char_table(p: int) -> np.ndarray:
    """tab[r] = legendre(r, p) in {-1, 0, +1} for r in [0, p)."""
    tab = np.full(p, -1, dtype=np.int8)
    r = np.arange((p - 1) // 2 + 1, dtype=np.int64)
    tab[_mod(r * r, p)] = 1
    tab[0] = 0
    return tab


@cache
def _even_rho_table(c: int):
    """(rho, ring): rho[index of n in ring] = rho_{(1+i)^c}(n^2-4), over the
    HNF transversal of ring = Z[i]/((1+i)^c), vectorized; built once per c.

    rho counts the units y with y + y^(-1) = -n, the roots of y^2 + n y + 1.
    Units y are those with odd norm; y^(-1) = conj(y) * N(y)^(-1) computed
    mod 2^f with a Newton iteration (2f >= c so the reduction is exact).
    """
    m = (1, 0)
    for _ in range(c):
        m = g.mul(m, (1, 1))
    ring = g.ResidueRing(g.canonical_pair(m))
    x, y = np.divmod(np.arange(ring.n_elements, dtype=np.int64), ring.d2)
    f = (c + 1) // 2
    M = 1 << f
    units = (x + y) % 2 == 1
    ua, ub = x[units] % M, y[units] % M
    nrm = (ua * ua + ub * ub) % M
    inv = np.ones_like(nrm)
    k = 1
    while k < f:
        inv = (inv * (2 - nrm * inv)) % M
        k *= 2
    inv = (inv * (2 - nrm * inv)) % M
    ia = (ua * inv) % M
    ib = (-ub * inv) % M
    ba = -(ua + ia)
    bb = -(ub + ib)
    idx = ring.index((ba, bb))
    rho = np.bincount(idx, minlength=ring.n_elements).astype(np.int64)
    rho.flags.writeable = False  # shared by every sweep of the process
    return rho, ring


# ---------------------------------------------------------------------------
# prime rows by quadratic reciprocity
# ---------------------------------------------------------------------------

def _supplements(a, b):
    """The supplementary laws at a primary pi = a + bi over p = a^2 + b^2:
    ([i/pi], [(1+i)/pi]) = ((-1)^((p-1)/4), (-1)^((a-b-b^2-1)/4)), for int64
    arrays a, b (exact while p < 2^63)."""
    return 1 - 2 * (((a * a + b * b) >> 2) & 1), 1 - 2 * (((a - b - b * b - 1) >> 2) & 1)


def _smallest_factors(bound: int) -> np.ndarray:
    """spf[m] = the smallest prime factor of m, for 2 <= m <= bound (int32)."""
    spf = np.arange(bound + 1, dtype=np.int32)
    for p in range(math.isqrt(bound), 1, -1):  # the smallest p writes last
        spf[p * p::p] = p
    return spf


class _DeltaFactors:
    """delta = n^2 - 4 of each trace as u (1+i)^k prod w^e, over the primary
    primes w of norm <= bound, and the quadratic symbols [delta/pi] at split
    primes pi beyond it from the symbols at those factors.

    Every prime factor of delta = (n - 2)(n + 2) has norm <= bound, which
    must be >= max N(n +- 2).  For pi primary over p > bound, reciprocity
    and the supplementary laws give

        [delta/pi] = [i/pi]^m [(1+i)/pi]^k prod_{e odd} [pi/w]     (u = i^m),

    and [pi/w] is a + s_w b mod q in the Legendre table mod q for a split w
    over q (i = s_w mod w), p mod q for an inert w = (q).  So the symbols of
    pi form one row of a matrix over the columns w, with [i/pi] and
    [(1+i)/pi] as two more columns, and each trace multiplies the columns of
    its factor list.

    n - 2 and n + 2 differ by 4, so they share no odd prime, and both are
    factored in one vectorized loop with one step per prime factor: the
    smallest prime factor q of the odd part of the norm names the next
    factor, (q) when q = 3 (mod 4), else pi over q or conj(pi), whichever
    divides (the real part of x conj(pi) is 0 mod q for pi | x, since q
    divides N(x)), and the step divides it out of x exactly.  The odd part
    of delta, delta / (1+i)^k, is u times a product of primaries, and u is
    +-i exactly when its real part is even (gaussian.primary_associate).
    table(q) gives the Legendre table mod q (LambdaVectors._chartab); the
    tables of the factors are kept as one bitmap of non-residues, from
    which table() gives them back for the walk's rows over q, so that each
    is built once.
    """

    def __init__(self, traces: TraceSet, bound: int, table):
        T = len(traces)
        x0 = np.concatenate([traces.na - 2, traces.na + 2])
        x1 = np.concatenate([traces.nb, traces.nb])
        m = x0 * x0 + x1 * x1
        if m.max(initial=0) > bound:
            raise ArithmeticError(f"n +- 2 has norm {m.max()}, beyond the factor bound {bound}")
        # generator of the first prime ideal over each odd q <= bound: a split
        # pi = (a, b) and its conjugate (b, a), or (q, 0) for an inert q
        spf = _smallest_factors(bound)
        gen = np.zeros((bound + 1, 2), dtype=np.int64)
        primes = g.prime_ideals_upto(bound)[1:]
        split = primes[primes[:, 2] != 0][0::2]
        inert = primes[primes[:, 2] == 0, 1]
        gen[split[:, 0]], gen[inert, 0] = split[:, 1:], inert
        m //= m & -m  # N of the odd part of n +- 2
        # the factors of an x come in ascending order of their keys, 2q for pi
        # or an inert (q), 2q + 1 for conj(pi), in one run of steps per prime:
        # a run of odd length is an odd exponent, listed when the run ends
        j = np.tile(np.arange(T), 2)
        key, odd = np.zeros(2 * T, dtype=np.int64), np.zeros(2 * T, dtype=bool)
        at, col = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]  # odd exponents
        while len(m):
            live = m > 1
            j, x0, x1, m, key, odd = j[live], x0[live], x1[live], m[live], key[live], odd[live]
            q = spf[m].astype(np.int64)
            a, b = gen[q].T
            conj = (x0 * a + x1 * b) % q != 0
            a, b = np.where(conj, b, a), np.where(conj, a, b)
            d = a * a + b * b  # q for a split prime, q^2 for an inert one
            x0, x1 = (x0 * a + x1 * b) // d, (x1 * a - x0 * b) // d
            m //= d
            new = 2 * q + conj
            ends = (new != key) & odd
            at.append(j[ends])
            col.append(key[ends])
            odd = (new != key) | ~odd
            key = new
            at.append(j[(m == 1) & odd])
            col.append(key[(m == 1) & odd])
        # one column per key, ascending, then [i/pi] and [(1+i)/pi]: the unit
        # u = +-i and an odd k list those two
        at, col = np.concatenate(at), np.concatenate(col)
        seen = np.zeros(2 * bound + 2, dtype=bool)
        seen[col] = True
        keys = np.flatnonzero(seen)
        col = (np.cumsum(seen) - 1)[col]
        self.q = keys >> 1
        self.inert = self.q % 4 == 3
        w = gen[self.q]
        w[keys & 1 == 1] = w[keys & 1 == 1, ::-1]  # conj(pi) = (b, a)
        self.s = np.array([0 if i else g.i_mod_split(tuple(wi), q) for i, wi, q
                           in zip(self.inert.tolist(), w.tolist(), self.q.tolist())], dtype=np.int64)
        k, (c0, _) = g.valuation((1, 1), (traces.da, traces.db), 64)
        unit, two = np.flatnonzero(c0 % 2 == 0), np.flatnonzero(k % 2)
        at = np.concatenate([at, unit, two])
        col = np.concatenate([col, np.full(len(unit), len(keys)), np.full(len(two), len(keys) + 1)])
        # the non-residues mod each q as one bitmap, q's from byte off[q]
        qs = sorted(set(self.q.tolist()))
        nbytes = [(q + 7) // 8 for q in qs]
        self.off = dict(zip(qs, np.cumsum([0] + nbytes[:-1]).tolist()))
        self.nonres = np.empty(sum(nbytes), dtype=np.uint8)
        for q, o in self.off.items():
            self.nonres[o:o + (q + 7) // 8] = np.packbits(table(q) < 0, bitorder="little")
        # s_w, q and the bit offset of q's table, as float64 columns
        self.columns = np.array([self.s, self.q, [8 * self.off[q] for q in self.q.tolist()]],
                                dtype=np.float64)[:, :, None]
        # the traces in descending order of factor count, trace j at position
        # pos[j]: the f-th factors of the traces with more than f are cols[f],
        # one per position of a prefix
        count = np.bincount(at, minlength=T)
        order = np.argsort(-count, kind="stable")
        self.pos = np.argsort(order).astype(np.int32)
        col = col[np.argsort(self.pos[at], kind="stable")].astype(np.int32)
        count = count[order]
        first = np.cumsum(count) - count
        self.cols = [col[first[count > f] + f] for f in range(count.max(initial=0))]

    def table(self, q: int):
        """The Legendre table mod a factor q, from the bitmap; None for
        another q."""
        o = self.off.get(q)
        if o is None:
            return None
        tab = np.unpackbits(self.nonres[o:o + (q + 7) // 8], count=q, bitorder="little").view(np.int8)
        tab *= -2
        tab += 1
        tab[0] = 0
        return tab

    def rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int8 rows [delta/pi] over the traces, one per primary pi = a + bi
        (int64 arrays) over a split p > bound.

        The symbols of a column w are the bits of 64-bit words, bit r set
        when row r's symbol is -1, and each trace XORs the words of its
        factor list.  The residues a + s_w b mod q (p mod q for an inert w)
        are taken in float64 by floor division, a chunk of columns at a
        time.  That is exact while p and sqrt(p) (1 + bound) are below
        2^53: no value is a multiple of q, so its quotient lies 1/q or more
        from an integer."""
        R = len(a)
        af, bf = a.astype(np.float64), b.astype(np.float64)
        p = af * af + bf * bf
        packed = np.zeros((len(self.q) + 2, -(-R // 64) * 8), dtype=np.uint8)
        packed[-2:, :-(-R // 8)] = np.packbits((1 - np.stack(_supplements(a, b))) >> 1,
                                               axis=1, bitorder="little")
        for c in range(0, len(self.q), 256):  # 256 columns of R float64s stay in cache
            s, q, bit_at = self.columns[:, c:c + 256]
            x = np.multiply(s, bf)
            x += af
            x[self.inert[c:c + 256]] = p
            y = x / q
            np.floor(y, out=y)
            y *= q
            x -= y
            x += bit_at
            at = x.astype(np.int64)
            bits = self.nonres[at >> 3]
            bits >>= (at & 7).astype(np.uint8)
            bits &= 1
            packed[c:c + len(at), :-(-R // 8)] = np.packbits(bits, axis=1, bitorder="little")
        words = packed.view(np.uint64).T.copy()
        acc = np.zeros((len(self.pos), len(words)), dtype=np.uint64)
        for w in self.cols:
            for k, word in enumerate(words):
                acc[:len(w), k] ^= word[w]
        sym = np.unpackbits(acc[self.pos].view(np.uint8).T, axis=0, count=R,
                            bitorder="little").view(np.int8)
        sym *= -2
        sym += 1
        return sym


# 64 MiB holds every row and vector that psi(1e4) at V = 1000 reads twice
# (36 of its 66 row blocks over 7,950 orbit representatives, one int8 row
# per norm, and 106 int8 or int16 vectors, 10 MB).  psi(1e4) at V = 1e4
# would keep 71 MiB; the cache keeps what it admits first, which is the
# rows of the small primes that every node of the walk reads, and a block
# it did not admit is rebuilt when a later node asks for it again.  Each of
# the 690 rational primes that the walk reaches up to the factor bound
# 10,405 gets one Legendre table; beyond it a rebuild takes the local
# symbols, whose cost does not grow with p (34,202 local rows, 32,540, one
# per split ideal, with a 1 GiB budget).  The call takes 2.3 to 2.9 s and
# 127 to 129 MB of peak RSS on 2 vCPUs, 2.2 to 2.8 s and 135 MB with a
# 1 GiB budget
CACHE_BYTES = 1 << 26

# leaf rows are built and cached in blocks of this many consecutive prime
# ideals of the walk (one more where a block would cut a conjugate pair),
# one row per norm among them; a fixed count, so that the pieces a range is
# summed in depend neither on the traces nor on the cutoff
ROW_BLOCK = 64

def _residues(da, db, npj: int, pj):
    """(p, [x mod pi]) for an inert pi = (p), whose map to Z/p is the
    norm; (p, [x mod pi, x mod conj(pi)]) for a split pi over p, since
    i = t (mod pi) and i = -t (mod conj(pi)), whose canonical pair is pi's
    reversed; x = da + db*i, int64 arrays."""
    if pj[1] == 0:
        p = pj[0]
        return p, [_mod(_mod(da, p) ** 2 + _mod(db, p) ** 2, p)]
    t = g.i_mod_split(pj, npj)
    return npj, [_mod(da + t * db, npj), _mod(da - t * db, npj)]


def _block_start(primes, k: int) -> int:
    """Index of the first prime of row block k: k * ROW_BLOCK, moved past
    the first prime of a conjugate pair (both have the same norm)."""
    s = min(k * ROW_BLOCK, len(primes))
    return s + bool(0 < s < len(primes) and primes[s, 0] == primes[s - 1, 0])


def _narrowest(vec: np.ndarray) -> np.ndarray:
    """vec as int8 or int16, the narrower that holds its values, else
    unchanged.  At an odd pi, |lambda_{pi^e}| <= sqrt(N(pi^e)), 200 at the
    cutoff 40,000 of V = 1000."""
    lo, hi = vec.min(initial=0), vec.max(initial=0)
    for t in (np.int8, np.int16):
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max:
            return vec.astype(t, copy=False)
    return vec


class LambdaVectors:
    """Per-trace lambda_{pi^e}(n^2-4) vectors and prime rows for a walk to
    the cutoffs `limits`, kept while a later visit can read them and they
    fit in CACHE_BYTES.  The rows are one per norm: a split pair's row is
    lambda_pi + lambda_conj(pi), and a leaf range that starts at conj(pi)
    reads conj(pi)'s own row as a vector (head).

    The cache holds vectors, Legendre tables and blocks of prime rows.  It
    admits an entry that a later (visit, V) pair of the walk can read while
    the entry fits in what is left of CACHE_BYTES, and never evicts one, so
    what the walk builds first, the rows of the small primes that every
    node reads, stays for the whole sweep.  A visit q reads an entry of
    norm N (a vector: N(pi^e); a row block: its first prime's norm) only
    when N(q) N lies within a cutoff, and every visit but the unit ideal
    has N(q) >= 2.  The unit extends by a vector once, whatever V, and
    reads a block once for each cutoff at or above N; so a vector is kept
    when 2N lies within the largest cutoff, and a block also when N lies
    within the second largest.  The blocks of the top primes, which the
    unit alone reads, once, are not kept.  Vectors are stored in the
    narrowest integer type that holds them (_narrowest).

    A table is kept when the walk can ask for it again, i.e. when a second
    power over its prime lies within the cutoff (p*p <= limit); a larger
    split prime's symbol serves both ideals over p, whose rows are built
    together and summed.  Each rational prime's symbols come from one
    build: its Legendre table (p bytes), or, for a split p beyond
    `local_from` = max(bound, isqrt(limit)), so p*p > limit, the local
    symbols of _DeltaFactors.  That factors the traces' n^2 - 4 once,
    before the first row block of a walk that reaches such a p, and its
    factors' tables, which it keeps as one bitmap, serve the walk's rows
    over them.
    """

    def __init__(self, traces: TraceSet, limits):
        self.tr = traces
        # the largest cutoff and the second largest (0 for one cutoff)
        self.limit, self.second = (sorted(limits, reverse=True) + [0])[:2]
        self.cached_bytes = 0
        self._cache: dict = {}
        # max N(n +- 2), a bound on the norm of every prime factor of n^2 - 4
        self.bound = int(((np.abs(traces.na) + 2) ** 2 + traces.nb ** 2).max(initial=0))
        self.local_from = max(self.bound, math.isqrt(int(self.limit)))
        self._factors = None

    def _put(self, key, arr: np.ndarray) -> None:
        if key not in self._cache and self.cached_bytes + arr.nbytes <= CACHE_BYTES:
            self._cache[key] = arr
            self.cached_bytes += arr.nbytes

    def _chartab(self, p: int) -> np.ndarray:
        tab = self._cache.get(p)
        if tab is None and self._factors is not None:
            tab = self._factors.table(p)
        if tab is None:
            tab = _sq_char_table(p)
            if p * p <= self.limit:
                self._put(p, tab)
        return tab

    def _delta_factors(self) -> _DeltaFactors:
        if self._factors is None:
            self._factors = _DeltaFactors(self.tr, self.bound, self._chartab)
        return self._factors

    def _build(self, npj: int, pj, e: int) -> np.ndarray:
        """lambda vector; int8 for exponent 1 (values in {-1,0,1}), int64 else."""
        tr = self.tr
        if pj == (1, 1):
            # rho_(1) = 1, then one table of rho_{(1+i)^c} per level c
            return lambda_from_rho([1] + [rho[ring.index((tr.na, tr.nb))] for rho, ring
                                          in map(_even_rho_table, range(1, e + 1))])
        if e == 1:
            p, res = _residues(tr.da, tr.db, npj, pj)
            rows = self._chartab(p)[np.stack(res)]
            if len(rows) == 2 and 2 * npj <= self.limit:  # one table serves both ideals over p
                self._put((pj[::-1], 1), rows[1])
            return rows[0]
        v, u = g.valuation(pj, (tr.da, tr.db), e)
        p, res = _residues(*u, npj, pj)
        return lambda_odd(e, v, self._chartab(p)[res[0]], npj)

    def vec(self, npj: int, pj, e: int) -> np.ndarray:
        key = (pj, e)
        out = self._cache.get(key)
        if out is None:
            out = _narrowest(self._build(npj, pj, e))
            if 2 * npj ** e <= self.limit:
                self._put(key, out)
        return out

    # A leaf range that starts at the second ideal of a conjugate pair adds
    # that ideal's own row, its e = 1 vector, first: the same cached read
    # under a second name, so that vec stays the walk's extend alone (the
    # benchmark's tracer times and counts its calls)
    head = vec

    def _prime_rows(self, primes, a: int, b: int) -> np.ndarray:
        """int8 rows over the traces, one per norm of primes[a:b], a
        conjugate pair never cut: lambda_pi(n^2-4) (e = 1) for (1+i) and an
        inert pi, and lambda_pi + lambda_conj(pi), in -2..2, for a split
        pair, whose leaves share one weight.  A split p beyond local_from
        (the factor bound, or the square root of the cutoff if larger) takes
        both its rows from reciprocity, in one _DeltaFactors.rows call for
        the block; every other prime reads a Legendre table, one per
        rational prime, at the residues da + t db with t < p, exact in int64
        while |n^2 - 4| (1 + p) < 2^63."""
        tr = self.tr
        if self.local_from < self.limit:
            # the walk reaches local symbols: factor the n^2 - 4 before the
            # first block builds the tables of their factors
            self._delta_factors()
        rows = primes[a:b].tolist()
        out = np.empty((np.count_nonzero(np.diff(primes[a:b, 0], prepend=0)), len(tr)),
                       dtype=np.int8)
        local, at = [], []  # the local pairs' prime rows, and their norm rows
        j = r = 0
        while j < b - a:
            npj, re, im = rows[j]
            if npj == 2:
                out[r] = self._build(npj, (re, im), 1)
                j += 1
            elif im and npj > self.local_from:
                # a split prime is followed by its conjugate
                local += [j, j + 1]
                at.append(r)
                j += 2
            else:
                p, res = _residues(tr.da, tr.db, npj, (re, im))
                tab = self._chartab(p)
                out[r] = sum(tab[x] for x in res)
                j += len(res)
            r += 1
        if local:
            sym = self._delta_factors().rows(*g.primary_associate(*primes[a:b][local, 1:].T))
            out[at] = sym[0::2] + sym[1::2]
        return out

    def rows(self, primes, rank, lo: int, hi: int):
        """The rows of _prime_rows for the norms of primes[lo:hi] (primes:
        the walk's array of rows (norm, re, im), prime_ideals_upto(limit);
        lo and hi at the first ideal of a norm or the end; rank[j] the
        number of norms among primes[:j]) as consecutive pieces, one per
        block, built as they are consumed: a block the cache does not admit
        is not held for the rest of the range."""
        k = lo // ROW_BLOCK
        if lo < _block_start(primes, k):
            k -= 1
        a = _block_start(primes, k)
        while a < hi:
            b = _block_start(primes, k + 1)
            block = self._cache.get(("rows", a))
            if block is None:
                block = self._prime_rows(primes, a, b)
                nrm = int(primes[a, 0])
                if 2 * nrm <= self.limit or nrm <= self.second:
                    self._put(("rows", a), block)
            yield block[rank[max(lo, a)] - rank[a]:rank[min(hi, b)] - rank[a]]
            k, a = k + 1, b


# ---------------------------------------------------------------------------
# the ideal-major sweep
# ---------------------------------------------------------------------------

def _orbit_reps(traces: TraceSet):
    """(reps, inverse): one trace per class {delta, conj(delta)} of
    delta = n^2 - 4, and for each trace the index of its representative, so
    that values[inverse] scatters back.

    The representative is the member with Im(delta) >= 0: a trace with
    db < 0 is swept as conj(n) = (na, -nb).  It depends only on the class.
    A class is keyed on one int64, ascending in (da, |db|) as the rows of a
    two-column unique are, which sorts an order of magnitude faster.
    """
    adb = np.abs(traces.db)
    key = (traces.da - traces.da.min(initial=0)) * (adb.max(initial=0) + 1) + adb
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    nb = np.where(traces.db < 0, -traces.nb, traces.nb)
    reps = TraceSet(lo=traces.lo, hi=traces.hi, na=traces.na[first], nb=nb[first],
                    weight=traces.weight[first], thr=traces.thr[first])
    return reps, inverse.reshape(-1)


def _row_sum(w, rows):
    """sum_j w[j] * rows[j, m] for each column m of rows: over the norms j of
    a leaf range, each row the sum of lambda over the ideals of that norm.

    einsum sums each column of `rows` in the order of j, so one column's
    sum does not depend on the others; numpy reduces a single column as one
    contiguous vector, in another order, so that column is summed as the
    first of two equal ones.
    """
    if rows.shape[1] == 1:
        return np.einsum("j,jm->m", w, np.repeat(rows, 2, axis=1))[:1]
    return np.einsum("j,jm->m", w, rows)


def gv_sweep(traces: TraceSet, Vs, cutoff_mult: float = CUTOFF_MULT) -> list:
    """[G_V(n^2-4) for every trace in `traces`, for V in Vs] from one walk.

    One gaussian.walk_ideals over the orbit representatives, to the largest
    cutoff max(int(cutoff_mult * V), 1), with one accumulator per V; each
    array is bit-identical to gv_per_trace at its V.  The running product
    over prime powers is a float64 vector (lambda values at desk scale stay
    far below 2^53, so products are exact), and a product that vanishes on
    every trace prunes its subtree.  A visited ideal adds its term before
    its subtree, for each V whose cutoff its reach lies within, and its
    prime leaves after it, for each V a range found by bisection, as
    val_q * (w_head head + sum_N w_N row_N): row_N the int8 row of norm N
    from the blocks of LambdaVectors.rows, which sums a conjugate pair, so
    that each pair is added as w_N (a + b), and head the row of conj(pi)
    alone (LambdaVectors.head) when the range starts past pi.  Each column
    is summed in the order of the norms, so a trace's value never depends
    on the traces beside it.

    The order is load-bearing: the leaves go after the subtree, so the deep
    nodes, whose ranges hold the small primes only, ask for rows first, and
    the cache, which admits what comes first, keeps the rows that the most
    nodes read.  Summed before the subtree, the unit ideal's range (every
    prime above sqrt(cutoff)) would fill the budget with the large primes'
    blocks.  CACHE_BYTES bounds the LambdaVectors cache, rows included; the
    values do not depend on it.  Vs must be a non-empty sequence, and
    cutoff_mult and every V positive and finite.
    """
    limits = _sweep_limits(Vs, cutoff_mult)
    if len(traces) == 0:
        # no walk, which would build the rows of every prime up to the
        # cutoff for an empty window such as (X, X+1]
        return [np.zeros(0) for _ in Vs]
    reps, inverse = _orbit_reps(traces)
    prov = LambdaVectors(reps, limits)
    primes = g.prime_ideals_upto(max(limits))
    pnorms, pairs = primes[:, 0], g.leaf_pairs(primes)
    # the rows are summed per norm: rank[j] norms lie below prime row j
    first = np.diff(pnorms, prepend=0) > 0
    rank = np.append(0, np.cumsum(first))
    norms = pnorms[first].astype(np.float64)
    sums = [np.zeros(len(reps)) for _ in Vs]

    def extend(vec, npj, pj, e):
        child = vec * prov.vec(npj, pj, e)
        return child if child.any() else None

    def term(i, nrm, val, reach):
        for k, limit in enumerate(limits):
            if reach <= limit:
                sums[k] += val * _exp_weight(Vs[k], nrm)

    def leaves(i, nrm, val, reach):
        for k, limit in enumerate(limits):
            m = limit // nrm
            lo = max(i, int(pairs.searchsorted(m, "right")))
            hi = int(pnorms.searchsorted(m, "right"))
            if lo < hi:
                total = 0.0
                if not first[lo]:
                    # the range starts at conj(pi), past pi: its own row first
                    npj, re, im = primes[lo].tolist()
                    total = _exp_weight(Vs[k], nrm * npj) * prov.head(npj, (re, im), 1)
                    lo += 1
                if lo < hi:
                    w = _exp_weight(Vs[k], nrm * norms[rank[lo]:rank[hi]])
                    at = 0
                    for piece in prov.rows(primes, rank, lo, hi):
                        total = total + _row_sum(w[at:at + len(piece)], piece)
                        at += len(piece)
                sums[k] += val * total

    g.walk_ideals(primes, max(limits), extend, term, leaves, root=np.ones(len(reps)))
    return [acc[inverse] for acc in sums]


def gv_per_trace(traces: TraceSet, V: float, cutoff_mult: float = CUTOFF_MULT) -> np.ndarray:
    """G_V(n^2-4) for every trace in `traces` (ideal convention): the
    one-V gv_sweep."""
    return gv_sweep(traces, (V,), cutoff_mult)[0]
