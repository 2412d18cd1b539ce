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
    factors of n^2-4 and large against the number of traces, by quadratic
    reciprocity from the symbols of pi at those factors (_DeltaFactors);
    for e >= 2 the unit part of n^2-4 is mapped the same way and the value
    follows the valuation pattern N^(v/2) s^(e-v) (see
    quad_counts.lambda_at_prime_power).
  * inert p:          the symbol is legendre(N(x) mod p) since the norm is
    the Frobenius trace map to F_p; same valuation pattern for e >= 2.
  * pi = (1+i):       lambda_{(1+i)^e} = sum over c <= e of
    (-1)^(e-c) rho_{(1+i)^c}, with rho_(1) = 1, summed per trace from one
    table of rho_{(1+i)^c} over Z[i]/((1+i)^c) per c and process, built
    from the unit histogram of y + y^(-1) with inverses via a vectorized
    Newton iteration mod 2^f (no loops in Python).

The traces themselves are the gaussian.disk_rows points of an annulus in
N(n), filtered and ordered by the vectorized `thresholds`.  The sum is
lfunctions.smoothed_sums, the one evaluator of every smoothed series in
the package, here with a vector root.  Its depth-first gaussian.walk_ideals
over the sorted prime list fixes the term order (hence floating-point
rounding), and a prime power whose product vector vanishes on every trace
prunes its subtree.  The walk visits only the ideals with a multiple in
range (1,248 of 31,407 at the 40,000 cutoff of V = 1000) and the higher
prime powers; the prime leaves q * pi_j of an ideal q are summed in one
step, one int8 row lambda_pi_j(n^2-4) per prime, as
val_q * sum_j w_j row_j with w_j = e^(-N(q) N(pi_j)/V) / (N(q) N(pi_j)).
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
  * several V in one walk: `gv_sweep` hands its Vs to smoothed_sums, whose
    accumulator for each V is bit-identical to its own `gv_per_trace`.  The
    quarter-V validation of geodesics rides along the V sweep this way.
  * one symbol build per rational prime: a Legendre table mod p, or the
    local symbols of reciprocity when p^2 lies beyond the cutoff and p
    beyond the factor bound and large against the number of traces, fills
    the rows of both split ideals over p at once; a table is kept only while
    the walk can ask for a higher power over p (p^2 within the cutoff).  The
    n^2 - 4 are factored once per sweep, at the first prime that takes the
    local symbols, and their factors' Legendre tables are built with them.
  * a byte budget: vectors, kept tables and blocks of prime rows are
    cached while they fit in CACHE_BYTES (64 MiB), and a cached entry is
    never evicted.  The walk reads the rows of the small primes at every
    node and those of the large ones at few, in ascending scans that repeat;
    on that pattern least-recently-used eviction keeps nothing once a scan
    outgrows the budget, while admission keeps the rows that are read most,
    built once each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import gaussian as g
from .lfunctions import CUTOFF_MULT, _require_positive, smoothed_sums


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
    2 + 1/N boundary terms), filtered by the exact threshold.
    """
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


def _pattern_from_valuation(e: int, v: np.ndarray, s: np.ndarray, N: int) -> np.ndarray:
    """Vector lambda_{pi^e} from capped valuation v and unit symbol s."""
    out = np.zeros(len(v), dtype=np.float64)
    sat = v >= e
    if e % 2 == 0:
        out[sat] = float(N) ** (e // 2)
    lo = (~sat) & (v % 2 == 0)
    if lo.any():
        sv = s[lo].astype(np.float64)
        out[lo] = (float(N) ** (v[lo] // 2)) * sv ** (e - v[lo])
    return out


def _valuation_divide(da, db, p0, p1, npi, e):
    """(v, ua, ub): valuation of da+db*i at the prime p0+p1*i, capped at e."""
    ca = da.copy()
    cb = db.copy()
    v = np.zeros(len(da), dtype=np.int64)
    active = np.ones(len(da), dtype=bool)
    for _ in range(e):
        ta = ca * p0 + cb * p1
        tb = cb * p0 - ca * p1
        div = active & (ta % npi == 0) & (tb % npi == 0)
        if not div.any():
            break
        ca = np.where(div, ta // npi, ca)
        cb = np.where(div, tb // npi, cb)
        v += div
        active = div
    return v, ca, cb


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
    idx = ring.index_arrays(ba, bb)
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


class _DeltaFactors:
    """delta = n^2 - 4 of each trace as u (1+i)^k prod w^e, over the primary
    primes w of norm <= bound, and the quadratic symbols [delta/pi] at split
    primes pi beyond it from the symbols at those factors.

    Every prime factor of delta = (n - 2)(n + 2) has norm <= bound when bound
    >= max N(n +- 2).  For pi primary over p > bound, reciprocity and the
    supplementary laws give

        [delta/pi] = [i/pi]^m [(1+i)/pi]^k prod_{e odd} [pi/w]     (u = i^m),

    and [pi/w] is a + s_w b mod q in the Legendre table mod q for a split w
    over q (i = s_w mod w), p mod q for an inert w = (q).  So the symbols of
    pi form one row of a matrix over the columns w, with [i/pi] and
    [(1+i)/pi] as two more columns, and each trace multiplies the columns of
    its factor list.  The trial division is exact in int64 while
    |delta| (1 + bound) < 2^62.
    """

    def __init__(self, traces: TraceSet, bound: int):
        k, ca, cb = _valuation_divide(traces.da, traces.db, 1, 1, 2, 64)
        at, col, q, s = [], [], [], []  # odd-exponent incidences; each column's q and s_w
        for npi, pi in g.prime_ideals_upto(bound):
            if pi == (1, 1):
                continue
            if pi[1]:
                qw, sw = npi, g.i_mod_split(pi, npi)
                hit = np.flatnonzero(_mod(ca + sw * cb, qw) == 0)
            else:
                qw, sw = pi[0], 0
                hit = np.flatnonzero((_mod(ca, qw) == 0) & (_mod(cb, qw) == 0))
            if len(hit) == 0:
                continue
            v, ca[hit], cb[hit] = _valuation_divide(ca[hit], cb[hit],
                                                    *g.primary_associate(*pi), npi, 64)
            odd = hit[v % 2 == 1]
            if len(odd):
                at.append(odd)
                col.append(np.full(len(odd), len(q)))
                q.append(qw)
                s.append(sw)
        if np.any(np.abs(ca) + np.abs(cb) != 1):
            raise ArithmeticError(f"a prime factor of n^2 - 4 has norm beyond {bound}")
        # the unit u = ca + cb*i is +-1 or +-i, and [-1/pi] = 1: u = +-i and
        # an odd k list the columns [i/pi] and [(1+i)/pi]
        for c, odd in enumerate((np.flatnonzero(cb), np.flatnonzero(k % 2))):
            at.append(odd)
            col.append(np.full(len(odd), len(q) + c))
        self.q = np.array(q, dtype=np.int64)
        self.s = np.array(s, dtype=np.int64)
        self.inert = self.s == 0
        # one int8 array of the Legendre tables mod each q, at offset off
        qs, inv = np.unique(self.q, return_inverse=True)
        base = np.cumsum(qs) - qs
        self.off = base[inv.reshape(-1)]
        self.tab = np.full(int(qs.sum()), -1, dtype=np.int8)
        for qw, o in zip(qs.tolist(), base.tolist()):
            r = np.arange((qw + 1) // 2, dtype=np.int64)
            self.tab[o + _mod(r * r, qw)] = 1
        self.tab[base] = 0
        # the traces in descending order of factor count, trace j at position
        # pos[j]: the f-th factors of the traces with more than f are cols[f],
        # one per position of a prefix
        at, col = np.concatenate(at), np.concatenate(col)
        count = np.bincount(at, minlength=len(traces))
        order = np.argsort(-count, kind="stable")
        self.pos = np.argsort(order)
        col = col[np.argsort(self.pos[at], kind="stable")]
        count = count[order]
        first = np.cumsum(count) - count
        self.cols = [col[first[count > f] + f] for f in range(count.max(initial=0))]

    def rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int8 rows [delta/pi] over the traces, one per primary pi = a + bi
        (int64 arrays) over a split p > bound.  The columns take
        |a| + s_w |b| < sqrt(p) (1 + bound) in int64."""
        top = a[:, None] + self.s * b[:, None]
        top[:, self.inert] = (a * a + b * b)[:, None]
        sym = np.empty((len(a), len(self.q) + 2), dtype=np.int8)
        sym[:, :-2] = self.tab[self.off + _mod(top, self.q)]
        sym[:, -2], sym[:, -1] = _supplements(a, b)
        acc = np.ones((len(a), len(self.pos)), dtype=np.int8)
        for w in self.cols:
            acc[:, :len(w)] *= sym[:, w]
        return acc[:, self.pos]


# 64 MiB holds every row and vector of psi(1e4) at V = 1000 (4,195 prime
# rows of 7,950 orbit representatives, 33 MB).  psi(1e4) at V = 1e4 needs
# 257 MiB of rows; the cache keeps what it admits first, which is the rows
# of the small primes that every node of the walk reads, and a block it
# did not admit is rebuilt when a later node asks for it again.  Each of
# the 3,233 rational primes below p = 8 * 7,950 still gets one Legendre
# table; above it a rebuild takes the local symbols, whose cost does not
# grow with p (43,630 local rows, 27,454 with a 1 GiB budget).  The call
# takes 7-9.5 s on 2 vCPUs, 6 s with a 1 GiB budget
CACHE_BYTES = 1 << 26

# leaf rows are built and cached in blocks of this many consecutive primes
# of the walk (one more where a block would cut a conjugate pair); a fixed
# count, so that the pieces a range is summed in depend neither on the
# traces nor on the cutoff
ROW_BLOCK = 64

# a split p beyond the bound of the traces' prime factors and with p^2
# beyond the cutoff takes its rows from reciprocity once
# p > RECIPROCITY_PER_TRACE * traces.  Measured on 2 vCPUs at 7,950 traces,
# a table row costs 65 us at p = 2 * traces, 126 us at 8 * traces and 514 us
# at 16 * traces, a local row 64 to 80 us at any p.  At 5 or less,
# psi(X ~ 1e4) at V = 1000 (~7,900 traces, cutoff 40,000) would cross, and
# factoring its n^2 - 4 (0.1 s) would cost more than its rows save
RECIPROCITY_PER_TRACE = 8


def _residues(tr: TraceSet, npj: int, pj):
    """(p, [n^2-4 mod pi]) for an inert pi = (p), whose map to Z/p is the
    norm; (p, [n^2-4 mod pi, n^2-4 mod conj(pi)]) for a split pi over p,
    since i = t (mod pi) and i = -t (mod conj(pi)), whose canonical pair is
    pi's reversed."""
    if pj[1] == 0:
        p = pj[0]
        return p, [_mod(_mod(tr.da, p) ** 2 + _mod(tr.db, p) ** 2, p)]
    t = g.i_mod_split(pj, npj)
    return npj, [_mod(tr.da + t * tr.db, npj), _mod(tr.da - t * tr.db, npj)]


def _block_start(primes, k: int) -> int:
    """Index of the first prime of row block k: k * ROW_BLOCK, moved past
    the first prime of a conjugate pair (both have the same norm)."""
    s = min(k * ROW_BLOCK, len(primes))
    return s + (0 < s < len(primes) and primes[s][0] == primes[s - 1][0])


class LambdaVectors:
    """Per-trace lambda_{pi^e}(n^2-4) vectors and prime rows, kept while they
    fit in CACHE_BYTES.

    The cache holds vectors, Legendre tables and blocks of prime rows.  It
    admits an entry while the entry fits in what is left of CACHE_BYTES and
    never evicts one, so what the walk builds first, the rows of the small
    primes that every node reads, stays for the whole sweep.  A table is
    cached only when the walk to `limit` can ask for it again, i.e. when a
    second power over its prime lies within limit (p*p <= limit); a larger
    split prime's symbol serves the rows of both ideals over p, built
    together.  Each rational prime's symbols come from one build: its
    Legendre table (p bytes), or, for a split p with p*p > limit, beyond
    `bound` and large against the number of traces, the local symbols of
    _DeltaFactors, which factors the traces' n^2 - 4 once.
    """

    def __init__(self, traces: TraceSet, limit: float):
        self.tr = traces
        self.limit = limit
        self.cached_bytes = 0
        self._cache: dict = {}
        # max N(n +- 2), a bound on the norm of every prime factor of n^2 - 4
        self.bound = int(((np.abs(traces.na) + 2) ** 2 + traces.nb ** 2).max(initial=0))
        self._factors = None

    def _put(self, key, arr: np.ndarray) -> None:
        if key not in self._cache and self.cached_bytes + arr.nbytes <= CACHE_BYTES:
            self._cache[key] = arr
            self.cached_bytes += arr.nbytes

    def _chartab(self, p: int) -> np.ndarray:
        tab = self._cache.get(p)
        if tab is None:
            tab = _sq_char_table(p)
            if p * p <= self.limit:
                self._put(p, tab)
        return tab

    def _build(self, npj: int, pj, e: int) -> np.ndarray:
        """lambda vector; int8 for exponent 1 (values in {-1,0,1}), float64 else."""
        tr = self.tr
        if pj == (1, 1):
            # lambda_{(1+i)^e} = sum over c <= e of (-1)^(e-c) rho_{(1+i)^c}
            # with rho_(1) = 1, summed as rho_c minus the sum up to c - 1
            out = np.ones(len(tr), dtype=np.int64)
            for c in range(1, e + 1):
                rho, ring = _even_rho_table(c)
                out = rho[ring.index_arrays(tr.na, tr.nb)] - out
            return out
        if e == 1:
            p, res = _residues(tr, npj, pj)
            rows = self._chartab(p)[np.stack(res)]
            if len(rows) == 2:  # one table serves both ideals over p
                self._put((pj[::-1], 1), rows[1])
            return rows[0]
        if pj[1] == 0:  # inert p, norm p^2
            p = pj[0]
            v, ca, cb = _valuation_divide(tr.da, tr.db, p, 0, p * p, e)
            s = self._chartab(p)[_mod(_mod(ca, p) ** 2 + _mod(cb, p) ** 2, p)]
            return _pattern_from_valuation(e, v, s, p * p)
        p = npj
        t = g.i_mod_split(pj, p)
        v, ca, cb = _valuation_divide(tr.da, tr.db, pj[0], pj[1], p, e)
        s = self._chartab(p)[_mod(ca + t * cb, p)]
        return _pattern_from_valuation(e, v, s, p)

    def vec(self, npj: int, pj, e: int) -> np.ndarray:
        key = (pj, e)
        out = self._cache.get(key)
        if out is None:
            out = self._build(npj, pj, e)
            self._put(key, out)
        return out

    def _prime_rows(self, primes, a: int, b: int) -> np.ndarray:
        """int8 rows lambda_pi(n^2-4) (e = 1) for primes[a:b], a conjugate
        pair never cut.  A split p beyond self.bound, with p^2 beyond the
        cutoff and p > RECIPROCITY_PER_TRACE * traces, takes both its rows
        from reciprocity, in one _DeltaFactors.rows call for the block (the
        traces' n^2 - 4 are factored at the first such p of the sweep); every
        other prime reads a Legendre table, one per rational prime, at the
        residues da + t db with t < p, exact in int64 while
        |n^2 - 4| (1 + p) < 2^63."""
        tr = self.tr
        out = np.empty((b - a, len(tr)), dtype=np.int8)
        local = []
        j = a
        while j < b:
            npj, pj = primes[j]
            if pj == (1, 1):
                out[j - a] = self._build(npj, pj, 1)
                j += 1
                continue
            # a split pj is followed by its conjugate
            if (pj[1] and npj > self.bound and npj * npj > self.limit
                    and npj > RECIPROCITY_PER_TRACE * len(tr)):
                local += [j - a, j + 1 - a]
                j += 2
                continue
            p, r = _residues(tr, npj, pj)
            out[j - a:j - a + len(r)] = self._chartab(p)[np.stack(r)]
            j += len(r)
        if local:
            if self._factors is None:
                self._factors = _DeltaFactors(tr, self.bound)
            pis = np.array([primes[a + j][1] for j in local], dtype=np.int64)
            out[local] = self._factors.rows(*g.primary_associate(pis[:, 0], pis[:, 1]))
        return out

    def rows(self, primes, lo: int, hi: int):
        """The e = 1 rows of primes[lo:hi] (primes: the walk's prime list,
        prime_ideals_upto(limit)) as consecutive pieces, one per block,
        built as they are consumed: a block the cache does not admit is not
        held for the rest of the range."""
        k = lo // ROW_BLOCK
        if lo < _block_start(primes, k):
            k -= 1
        a = _block_start(primes, k)
        while a < hi:
            b = _block_start(primes, k + 1)
            block = self._cache.get(("rows", a))
            if block is None:
                block = self._prime_rows(primes, a, b)
                self._put(("rows", a), block)
            yield block[max(lo, a) - a:min(hi, b) - a]
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
    """
    _, first, inverse = np.unique(np.stack((traces.da, np.abs(traces.db)), axis=1),
                                  axis=0, return_index=True, return_inverse=True)
    nb = np.where(traces.db < 0, -traces.nb, traces.nb)
    reps = TraceSet(lo=traces.lo, hi=traces.hi, na=traces.na[first], nb=nb[first],
                    weight=traces.weight[first], thr=traces.thr[first])
    return reps, inverse.reshape(-1)


def gv_sweep(traces: TraceSet, Vs, cutoff_mult: float = CUTOFF_MULT) -> list:
    """[G_V(n^2-4) for every trace in `traces`, for V in Vs] from one walk.

    One lfunctions.smoothed_sums walk over the orbit representatives, with
    one accumulator per V; each array is bit-identical to gv_per_trace at
    its V.  The running product over prime powers is a float64 vector
    (lambda values at desk scale stay far below 2^53, so products are
    exact); the prime leaves below it come from LambdaVectors.rows.
    CACHE_BYTES bounds the LambdaVectors cache, rows included; the values do
    not depend on it.  cutoff_mult and every V must be positive and finite.
    """
    if len(traces) == 0:
        # no walk, which would build the rows of every prime up to the
        # cutoff for an empty window such as (X, X+1]; the inputs are
        # checked all the same
        for V in Vs:
            _require_positive(V=V)
        _require_positive(cutoff_mult=cutoff_mult)
        return [np.zeros(0) for _ in Vs]
    reps, inverse = _orbit_reps(traces)
    prov = LambdaVectors(reps, cutoff_mult * max(Vs))

    def extend(vec, npj, pj, e):
        child = vec * prov.vec(npj, pj, e)
        return child if child.any() else None

    sums = smoothed_sums(Vs, extend, root=np.ones(len(reps)), cutoff_mult=cutoff_mult,
                         rows=prov.rows)
    return [acc[inverse] for acc in sums]


def gv_per_trace(traces: TraceSet, V: float, cutoff_mult: float = CUTOFF_MULT) -> np.ndarray:
    """G_V(n^2-4) for every trace in `traces` (ideal convention): the
    one-V gv_sweep."""
    return gv_sweep(traces, (V,), cutoff_mult)[0]
