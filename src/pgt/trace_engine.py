"""Vectorized evaluation of smoothed form-L-function values over many traces.

The geodesic counting function needs G_V(n^2 - 4) for every trace n in a
disk or annulus -- tens of thousands of values whose smoothed series share
the same ideals q.  Summing per trace is hopeless; instead the sum is run
ideal-major:

    acc[n] = sum over ideals N(q) <= 40V of
             e^(-N(q)/V)/N(q) * prod over pi^e || q of lambda_{pi^e}(n^2-4)

where for each prime power the vector lambda_{pi^e}(.) over all traces is
computed at once:

  * split pi over p:  Z[i]/(pi^e) = Z/p^e via i -> t, t^2 = -1 (mod p^e);
    for e = 1 the value is the Legendre symbol of (n^2-4 mod p) from a
    marked square table; for e >= 2 it follows the valuation pattern
    N^(v/2) s^(e-v) (see quad_counts.lambda_at_prime_power).
  * inert p:          the symbol is legendre(N(x) mod p) since the norm is
    the Frobenius trace map to F_p; same valuation pattern for e >= 2.
  * pi = (1+i):       an explicit table over Z[i]/((1+i)^e), built from the
    unit histogram of y + y^(-1) with inverses via a vectorized Newton
    iteration mod 2^f (no loops in Python).

The traces themselves are the gaussian.disk_rows points of an annulus in
N(n), filtered and ordered by the vectorized `thresholds`.  The ideal
enumeration is gaussian.walk_ideals, the depth-first walk over the
sorted prime list that the scalar series in lfunctions use as well, so term
order (hence floating-point rounding) is deterministic; a prime power whose
product vector vanishes on every trace prunes its subtree.  Every vector
builder is property-tested against the scalar quad_counts.lambda_.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian as g
from .lfunctions import CUTOFF_MULT


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

def _sq_char_table(p: int) -> np.ndarray:
    """tab[r] = legendre(r, p) in {-1, 0, +1} for r in [0, p)."""
    tab = np.full(p, -1, dtype=np.int8)
    r = np.arange((p - 1) // 2 + 1, dtype=np.int64)
    tab[(r * r) % p] = 1
    tab[0] = 0
    return tab


def _t_for_split(pi, p: int) -> int:
    """t with i = t (mod pi); pi = a+bi a split prime over p."""
    a, b = pi
    t = (-a * pow(b, -1, p)) % p
    if (t * t + 1) % p:
        raise ArithmeticError(f"bad split data for {pi}")
    return t


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


_EVEN_TABLE_CACHE: dict = {}


def _even_rho_table(c: int):
    """rho_{(1+i)^c} over the HNF transversal of Z[i]/((1+i)^c), vectorized.

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
    return rho, ring


def even_lambda_table(e: int):
    """(table, ring) with table[index of n] = lambda_{(1+i)^e}(n^2-4)."""
    hit = _EVEN_TABLE_CACHE.get(e)
    if hit is not None:
        return hit
    m = (1, 0)
    for _ in range(e):
        m = g.mul(m, (1, 1))
    ring = g.ResidueRing(g.canonical_pair(m))
    x, y = np.divmod(np.arange(ring.n_elements, dtype=np.int64), ring.d2)
    out = np.zeros(ring.n_elements, dtype=np.int64)
    for parity, sign in ((e % 2, 1), ((e - 1) % 2, -1)):
        c = parity
        while c <= (e if sign == 1 else e - 1):
            if c == 0:
                out += sign
            else:
                # rho tables are functions of the trace residue n mod (1+i)^c
                rho, rc = _even_rho_table(c)
                out += sign * rho[rc.index_arrays(x, y)]
            c += 2
    _EVEN_TABLE_CACHE[e] = (out, ring)
    return out, ring


class LambdaVectors:
    """Per-trace lambda_{pi^e}(n^2-4) vectors with a norm-bounded cache."""

    def __init__(self, traces: TraceSet, cache_norm: int = 32768):
        self.tr = traces
        self.cache_norm = cache_norm
        self._cache: dict = {}
        self._chartabs: dict = {}

    def _chartab(self, p: int) -> np.ndarray:
        tab = self._chartabs.get(p)
        if tab is None:
            tab = _sq_char_table(p)
            if p <= self.cache_norm:  # large tables are built per use
                self._chartabs[p] = tab
        return tab

    def _build(self, npj: int, pj, e: int) -> np.ndarray:
        """lambda vector; int8 for exponent 1 (values in {-1,0,1}), float64 else."""
        tr = self.tr
        if pj == (1, 1):
            tab, ring = even_lambda_table(e)
            return tab[ring.index_arrays(tr.na, tr.nb)]
        if pj[1] == 0:  # inert p, norm p^2
            p = pj[0]
            tab = self._chartab(p)
            if e == 1:
                nrm = (tr.da % p) ** 2 + (tr.db % p) ** 2
                return tab[nrm % p]
            v, ca, cb = _valuation_divide(tr.da, tr.db, p, 0, p * p, e)
            s = tab[((ca % p) ** 2 + (cb % p) ** 2) % p]
            return _pattern_from_valuation(e, v, s, p * p)
        p = npj
        tab = self._chartab(p)
        t = _t_for_split(pj, p)
        if e == 1:
            d = (tr.da + t * tr.db) % p
            return tab[d]
        v, ca, cb = _valuation_divide(tr.da, tr.db, pj[0], pj[1], p, e)
        s = tab[(ca + t * cb) % p]
        return _pattern_from_valuation(e, v, s, p)

    def vec(self, npj: int, pj, e: int) -> np.ndarray:
        key = (pj, e)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._build(npj, pj, e)
        if npj**e <= self.cache_norm:
            self._cache[key] = out
        return out


# ---------------------------------------------------------------------------
# the ideal-major sweep
# ---------------------------------------------------------------------------

def gv_per_trace(traces: TraceSet, V: float, cutoff_mult: float = CUTOFF_MULT,
                 cache_norm: int = 32768) -> np.ndarray:
    """G_V(n^2-4) for every trace in `traces` (ideal convention).

    One gaussian.walk_ideals pass over all ideals of norm <= cutoff_mult * V;
    the running product over prime powers is a float64 vector (lambda values
    at desk scale stay far below 2^53, so products are exact).
    """
    m = len(traces)
    acc = np.zeros(m)
    if m == 0 or V <= 0:
        return acc
    prov = LambdaVectors(traces, cache_norm=cache_norm)

    def extend(vec, npj, pj, e):
        child = vec * prov.vec(npj, pj, e)
        return child if np.any(child) else None

    def term(nrm, vec):
        np.add(acc, vec * (math.exp(-nrm / V) / nrm), out=acc)

    g.walk_ideals(int(cutoff_mult * V), extend, term, root=np.ones(m))
    return acc
