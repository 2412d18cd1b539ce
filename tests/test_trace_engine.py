"""Property tests: the vector lambda builders and their cache, which admits
the entries a later visit can read up to a byte budget and never evicts one,
the factored-ideal walker, the disk enumerator, the orbit invariance of G_V,
and the orbit and two-accumulator sweep against one-trace, one-V sweeps."""

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pgt.characters import is_perfect_square
from pgt.gaussian import (UNIT_PAIRS, CanonicalIdealRep, GaussianInt, canonical_pair,
                          disk_rows, euler_symbol, exact_div, factor_pair_cached, i_mod_split,
                          ideal_reps_upto, leaf_pairs, mul, norm, primary_associate,
                          prime_ideals_upto, walk_ideals)
from pgt.lfunctions import smoothed_sums, zagier_L1
from pgt import trace_engine
from pgt.quad_counts import lambda_, lambda_at_prime_power
from pgt.trace_engine import (CACHE_BYTES, LambdaVectors, TraceSet, gv_per_trace,
                              gv_sweep, trace_set)

G = GaussianInt
PP_NORM_MAX = 2000

# every prime power pi^e of norm <= PP_NORM_MAX: split, inert and (1+i)
PRIME_POWERS = [(npi, (a, b), e)
                for npi, a, b in prime_ideals_upto(PP_NORM_MAX).tolist()
                for e in range(1, 12) if npi**e <= PP_NORM_MAX]


def _trace_set(pairs) -> TraceSet:
    """The traces a + b*i for (a, b) in pairs, in that order."""
    ones = np.ones(len(pairs))
    return TraceSet(lo=1.0, hi=2.0, na=np.array([a for a, _ in pairs], dtype=np.int64),
                    nb=np.array([b for _, b in pairs], dtype=np.int64),
                    weight=ones, thr=ones)


def _power(pi, e):
    q = (1, 0)
    for _ in range(e):
        q = mul(q, pi)
    return CanonicalIdealRep(G(*canonical_pair(q)))


# traces with n^2 - 4 != 0, small enough for the scalar lambda_
traces_st = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30))
    .filter(lambda n: n not in ((2, 0), (-2, 0))),
    min_size=1, max_size=4, unique=True)


# traces anywhere, on the real axis and on the imaginary axis (delta != 0)
any_trace_st = st.one_of(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    st.tuples(st.integers(-30, 30), st.just(0)),
    st.tuples(st.just(0), st.integers(-30, 30)),
).filter(lambda n: n not in ((2, 0), (-2, 0)))


def _budgets(n):
    """Cache budgets for n traces: below one int8 vector (n bytes), between
    it and one float64 vector, above both, and the default."""
    return [n - 1, n + 1, 4 * n, 8 * n + 1, 64 * n, CACHE_BYTES]


@settings(max_examples=12, deadline=None)
@given(traces_st, st.data(), st.booleans())
def test_lambda_vectors_match_scalar_lambda(pairs, data, descending):
    budget = data.draw(st.sampled_from(_budgets(len(pairs))))
    ns = [G(a, b) for a, b in pairs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_engine, "CACHE_BYTES", budget)
        prov = LambdaVectors(_trace_set(pairs), [PP_NORM_MAX])
        # PRIME_POWERS lists pi = (a, b) before its conjugate (b, a) when
        # a < b; descending asks for the conjugate first, whose e = 1 build
        # fills pi's
        for npi, pi, e in (PRIME_POWERS[::-1] if descending else PRIME_POWERS):
            q = _power(pi, e)
            want = [lambda_at_prime_power(pi, e, n * n - G(4, 0), n) for n in ns]
            # second call: served from the cache when the budget admitted it
            for _ in range(2):
                assert prov.vec(npi, pi, e).tolist() == want, (pi, e, pairs)
            assert want == [lambda_(q, n * n - G(4, 0), n=n) for n in ns], (pi, e)
            if e >= 2:
                # the vector and the scalar lambda both take lambda_odd at an
                # odd pi; the x-enumeration rho shares no code with it
                assert want == [lambda_(q, n * n - G(4, 0), method="bruteforce")
                                for n in ns], (pi, e)


def _two_power_traces():
    """Traces n = 2 + (1+i)^k m, k = 5..15: n^2 - 4 = (n - 2)(n + 2) has
    (1+i)-valuation k + 4, since n + 2 = (n - 2) + 4 has valuation 4."""
    pairs = [(3, 1), (7, 3)]
    for k in range(5, 16):
        m = (1, 0)
        for _ in range(k):
            m = mul(m, (1, 1))
        for d in (m, mul(m, (1, 2))):
            pairs.append((d[0] + 2, d[1]))
    return pairs


def test_deep_two_power_vectors_match_scalar_lambda():
    # PRIME_POWERS stops at (1+i)^10; the sweeps reach (1+i)^16 to (1+i)^18
    pairs = _two_power_traces()
    prov = LambdaVectors(_trace_set(pairs), [1])
    ns = [G(a, b) for a, b in pairs]
    seen = set()
    for e in range(11, 19):
        want = [lambda_at_prime_power((1, 1), e, n * n - G(4, 0), n) for n in ns]
        assert prov.vec(2, (1, 1), e).tolist() == want, e
        seen.update(want)
    assert min(seen) < 0 < max(seen) and len(seen) > 5, seen


def test_narrowed_vectors_equal_their_int64_builds():
    # each vector is stored in int8 or int16 and equals its build element by
    # element: every prime power of norm <= PP_NORM_MAX over GRID, and the
    # deep (1+i) powers, whose values leave int8
    dtypes = set()
    for pairs, powers in ((GRID, PRIME_POWERS),
                          (_two_power_traces(), [(2, (1, 1), e) for e in range(11, 19)])):
        prov = LambdaVectors(_trace_set(pairs), [1])
        for npi, pi, e in powers:
            got, built = prov.vec(npi, pi, e), prov._build(npi, pi, e)
            assert built.dtype == (np.int8 if e == 1 and pi != (1, 1) else np.int64)
            assert got.tolist() == built.tolist(), (pi, e)
            dtypes.add(got.dtype)
    assert dtypes == {np.dtype(np.int8), np.dtype(np.int16)}


def test_narrowest_keeps_int64_beyond_int16():
    for vals, dtype in (([-128, 0, 127], np.int8), ([-129], np.int16), ([128], np.int16),
                        ([-32768, 32767], np.int16), ([32768], np.int64),
                        ([-32769, 5], np.int64), ([], np.int8)):
        got = trace_engine._narrowest(np.array(vals, dtype=np.int64))
        assert got.dtype == dtype and got.tolist() == vals, vals


@settings(max_examples=12, deadline=None)
@given(traces_st, st.randoms(use_true_random=False))
def test_lambda_vector_cache_stays_within_its_budget(pairs, rng):
    # the cache admits an entry while it fits and never evicts one: its keys
    # only grow and the bytes it holds never fall
    asks = PRIME_POWERS * 3
    rng.shuffle(asks)
    for budget in _budgets(len(pairs)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_engine, "CACHE_BYTES", budget)
            prov = LambdaVectors(_trace_set(pairs), [PP_NORM_MAX])
            keys, held_before = set(), 0
            for npi, pi, e in asks:
                prov.vec(npi, pi, e)
                held = sum(a.nbytes for a in prov._cache.values())
                assert prov.cached_bytes == held <= budget, budget
                assert held >= held_before and keys <= prov._cache.keys(), budget
                keys, held_before = set(prov._cache), held


def _count_tables(monkeypatch, record):
    """Have _sq_char_table call record(p) for each Legendre table built."""
    real = trace_engine._sq_char_table
    monkeypatch.setattr(trace_engine, "_sq_char_table", lambda p: record(p) or real(p))


def test_one_symbol_build_per_rational_prime(monkeypatch):
    # a budget that holds every row and vector: each odd prime the walk to
    # 40V reaches gets one symbol build, never both kinds, never twice:
    # either its Legendre table, which serves both split ideals over p and,
    # below the square root of the cutoff, their higher powers, or the
    # local symbols of reciprocity for both split ideals over p, in one call.
    # The table of a prime factor of some n^2 - 4 serves _DeltaFactors and
    # the walk's rows alike (each of the 75 was built twice); a factor the
    # walk does not reach, an inert q with q^2 beyond the cutoff, gets one
    tables, local, factors = [], [], []
    real_rows = trace_engine._DeltaFactors.rows

    def counted_rows(self, a, b):
        ps = (a * a + b * b).tolist()
        for p in set(ps):
            assert ps.count(p) == 2, p
        local.extend(set(ps))
        return real_rows(self, a, b)

    real_init = trace_engine._DeltaFactors.__init__

    def init(self, *args):
        real_init(self, *args)
        factors.extend(self.q.tolist())

    _count_tables(monkeypatch, tables.append)
    monkeypatch.setattr(trace_engine._DeltaFactors, "rows", counted_rows)
    monkeypatch.setattr(trace_engine._DeltaFactors, "__init__", init)
    monkeypatch.setattr(trace_engine, "CACHE_BYTES", 1 << 30)
    V = 2000.0
    gv_sweep(trace_set(2000.0, 2100.0), (V,))
    limit = int(40 * V)
    # the rational prime under each odd prime ideal: p for inert (p), N for split
    reached = {a if b == 0 else npi for npi, a, b in prime_ideals_upto(limit).tolist()
               if npi != 2}
    assert tables and local  # both sides of the crossover
    assert len(set(factors) & reached) > 70
    assert sorted(tables + local) == sorted(reached | set(factors))


class _CountedReads(dict):
    """A cache dict that counts the lookups of each key."""

    def __init__(self):
        super().__init__()
        self.reads = {}

    def get(self, key, default=None):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().get(key, default)


@pytest.mark.parametrize("ratios", [(1.0,), (1.0, 0.25), (1.0, 0.9)])
def test_row_blocks_are_kept_when_a_later_visit_reads_them(monkeypatch, ratios):
    # a budget that holds the sweep builds each row block once, and the
    # cache keeps no block that the walk reads once: the blocks of the top
    # primes, which only the unit ideal reads, at the largest cutoff.  With
    # a second cutoff above half the first, the unit reads the blocks
    # between them twice, and they are kept (a rule of 2N within the
    # largest cutoff alone built 90 blocks for 66 at V = 1000 and 900)
    caches, built = [], []
    real_init, real_rows = LambdaVectors.__init__, LambdaVectors._prime_rows

    def init(self, *args):
        real_init(self, *args)
        self._cache = _CountedReads()
        caches.append(self._cache)

    monkeypatch.setattr(LambdaVectors, "__init__", init)
    monkeypatch.setattr(LambdaVectors, "_prime_rows",
                        lambda self, primes, a, b: built.append(a) or real_rows(self, primes, a, b))
    monkeypatch.setattr(trace_engine, "CACHE_BYTES", 1 << 30)
    gv_sweep(trace_set(2000.0, 2100.0), [2000.0 * r for r in ratios])
    (cache,) = caches
    # block keys are ("rows", a), table keys ints and vector keys (pi, e)
    reads = {key[1]: n for key, n in cache.reads.items() if type(key) is tuple and key[0] == "rows"}
    kept = {key[1] for key in cache if type(key) is tuple and key[0] == "rows"}
    assert sorted(built) == sorted(reads) and len(built) > 100
    assert all(reads[a] >= 2 for a in kept)
    assert kept == {a for a, n in reads.items() if n >= 2}
    assert len(kept) < len(reads)


def test_rows_beyond_the_budget_build_one_table_per_prime(monkeypatch):
    # a budget of half the walk's prime rows, one per norm: the cache admits
    # the blocks of the small primes, which the most nodes of the walk read,
    # and keeps them, so each prime that takes a Legendre table takes one,
    # as under a budget that holds everything (least-recently-used eviction
    # built 383 tables for these 195 primes)
    traces, V = trace_set(2000.0, 2100.0), 2000.0
    reps, _ = trace_engine._orbit_reps(traces)
    row_bytes = len(reps) * len(np.unique(prime_ideals_upto(int(40 * V))[:, 0]))
    built = {}
    _count_tables(monkeypatch, lambda p: built[budget].append(p))
    for budget in (1 << 30, row_bytes // 2):
        built[budget] = []
        monkeypatch.setattr(trace_engine, "CACHE_BYTES", budget)
        gv_sweep(traces, (V,))
    assert sorted(built[row_bytes // 2]) == sorted(built[1 << 30]) == sorted(set(built[1 << 30]))


def test_row_cache_keys_are_plain_ints(monkeypatch):
    # the prime array is read through .tolist(), so no numpy scalar reaches
    # a cache key or a block index
    keys = []
    real = LambdaVectors._put
    monkeypatch.setattr(LambdaVectors, "_put",
                        lambda self, key, arr: keys.append(key) or real(self, key, arr))
    gv_sweep(trace_set(1000.0, 1100.0), (1000.0,))

    def plain(key):
        return all(map(plain, key)) if type(key) is tuple else type(key) in (int, str)

    assert {type(k[0]) for k in keys if type(k) is tuple} == {tuple, str}
    assert all(map(plain, keys))


def test_walk_extends_only_ideals_with_multiples_in_range(monkeypatch):
    # the walk builds a prime leaf q * pi (q * pi * pi' beyond the cutoff)
    # only as one row of a batch: of the 31,406 ideals of norm <= 40,000
    # other than the unit, gv_per_trace at V = 1000 extends 1,247; of the
    # 102,771 at the deep cutoff 130,854, it extends 2,840 (no product
    # vanishes on all 81 representatives, so nothing is pruned)
    calls = []
    real = LambdaVectors.vec
    monkeypatch.setattr(LambdaVectors, "vec", lambda self, *a: calls.append(a) or real(self, *a))
    traces = trace_set(1000.0, 1100.0)
    for V, extended in ((1000.0, 1247), (130854.5 / 40, 2840)):
        calls.clear()
        gv_per_trace(traces, V)
        assert len(calls) == extended, V


def test_leaf_ranges_from_conj_pi_add_its_own_row_first(monkeypatch):
    # a leaf range starts at conj(pi), past pi, when the visit ends in pi or
    # the leaf bound falls between the two; the sweep adds conj(pi)'s own
    # row first, read from the vector cache through LambdaVectors.head, so
    # that vec still counts the walk's extends alone
    calls, heads = [], []
    for name, seen in (("vec", calls), ("head", heads)):
        real = getattr(LambdaVectors, name)
        monkeypatch.setattr(LambdaVectors, name,
                            lambda self, *a, real=real, seen=seen: seen.append(a) or real(self, *a))
    gv_per_trace(trace_set(1000.0, 1100.0), 1000.0)
    # the 290 heads are second ideals of a pair: (norm, (re, im)) after a row of that norm
    primes = prime_ideals_upto(40000).tolist()
    second = {(npi, (a, b)) for (npi, a, b), (n0, _, _) in zip(primes[1:], primes) if npi == n0}
    assert len(calls) == 1247 and len(heads) > 100
    assert {(npi, pj) for npi, pj, _ in heads} <= second
    assert {e for _, _, e in heads} == {1}


# 1, 2 and 40 traces: the local symbols of reciprocity serve every split p
# beyond the norm bound of the factors of n^2 - 4, and never one below it
ROW_TRACES = {1: [(7, 3)], 2: [(7, 3), (-11, 5)],
              40: [(a, b) for a in range(-9, 11, 3) for b in range(1, 12, 2)][:40]}


def _norm_rank(primes):
    """rank[j]: the number of norms among primes[:j], as gv_sweep counts them."""
    return np.append(0, np.cumsum(np.diff(primes[:, 0], prepend=0) > 0))


@pytest.mark.parametrize("m", sorted(ROW_TRACES))
def test_reciprocity_rows_equal_table_rows_and_scalar_lambda(monkeypatch, m):
    # one row per norm of a prime ideal of norm <= 2e4, split, inert and
    # (1+i): through LambdaVectors, whose every split pair beyond
    # max(factor bound, sqrt(cutoff)) takes reciprocity, at the cutoffs 1
    # (every split pair beyond the factor bound) and 2e4, and from the
    # Legendre tables alone; the same bytes, and each row the sum of the
    # scalar lambda over the ideals of its norm.  A head row, the one
    # ideal's row that a leaf range starting at conj(pi) adds first, is the
    # scalar lambda at conj(pi)
    pairs = ROW_TRACES[m]
    assert len(pairs) == m
    tr = _trace_set(pairs)
    primes = prime_ideals_upto(20000)
    rank = _norm_rank(primes)
    built = []
    real_rows = trace_engine._DeltaFactors.rows
    _count_tables(monkeypatch, lambda p: built.append("table"))
    monkeypatch.setattr(trace_engine._DeltaFactors, "rows",
                        lambda self, a, b: built.append("local") or real_rows(self, a, b))

    def rows(limit):
        built.clear()
        out = np.concatenate(list(LambdaVectors(tr, [limit]).rows(primes, rank, 0, len(primes))))
        return out, set(built)

    (local, how_l), (default, how_d) = rows(1), rows(20000)
    assert how_l == how_d == {"local", "table"}
    table, norms = [], primes[:, 0].tolist()
    for j, (npi, a, b) in enumerate(primes.tolist()):
        if npi == 2:
            table.append(LambdaVectors(tr, [1]).vec(npi, (a, b), 1))
        elif j == 0 or norms[j - 1] != npi:  # a split pair's two residues at once
            p, res = trace_engine._residues(tr.da, tr.db, npi, (a, b))
            tab = trace_engine._sq_char_table(p)
            table.append(sum(tab[x] for x in res).astype(np.int8))
    table = np.stack(table)
    assert local.dtype == default.dtype == table.dtype == np.int8
    assert local.tobytes() == table.tobytes() == default.tobytes()
    ns = [G(a, b) for a, b in pairs]
    lam = {(a, b): [lambda_at_prime_power((a, b), 1, n * n - G(4, 0), n) for n in ns]
           for _, a, b in primes.tolist()}
    want = {}
    for npi, a, b in primes.tolist():
        want[npi] = [x + y for x, y in zip(want.get(npi, [0] * m), lam[(a, b)])]
    assert len(want) == rank[-1] < len(primes)
    assert table.tolist() == list(want.values())
    assert {x for row in want.values() for x in row} >= {-2, 2}
    # conj(pi) follows pi: its row is read after pi's build put it, as in a sweep
    prov = LambdaVectors(tr, [20000])
    heads = 0
    for j in np.flatnonzero(np.diff(rank) == 0).tolist():
        (npi, *pi), (_, *conj) = primes[j - 1:j + 1].tolist()
        prov.vec(npi, tuple(pi), 1)
        assert prov.head(npi, tuple(conj), 1).tolist() == lam[tuple(conj)], conj
        heads += 1
    assert heads == len(primes) - len(want) > 1000


def test_supplementary_laws_match_euler_symbol():
    # [i/pi] = (-1)^((p-1)/4) and [(1+i)/pi] = (-1)^((a-b-b^2-1)/4) at the
    # primary associate a + bi of every split prime of norm <= 2e5
    split = [(a, b) for npi, a, b in prime_ideals_upto(200000).tolist() if b and npi != 2]
    a, b = primary_associate(np.array([pi[0] for pi in split]), np.array([pi[1] for pi in split]))
    unit, two = trace_engine._supplements(a, b)
    assert unit.tolist() == [euler_symbol((0, 1), pi) for pi in split]
    assert two.tolist() == [euler_symbol((1, 1), pi) for pi in split]


def test_primary_reciprocity_matches_euler_symbol():
    # [w/pi] = [pi/w] for the primary associates of every pair of distinct
    # odd prime ideals of norm <= 3000; the canonical associates break it
    odd = [(a, b) for npi, a, b in prime_ideals_upto(3000).tolist() if npi != 2]
    for pi in odd:
        x, y = primary_associate(*pi)
        assert x % 2 == 1 and y % 2 == 0 and (x + y) % 4 == 1
        assert canonical_pair((x, y)) == pi
    prim = [primary_associate(*pi) for pi in odd]
    broken = 0
    for w, pw in zip(odd, prim):
        for pi, ppi in zip(odd, prim):
            if w != pi:
                assert euler_symbol(pw, pi) == euler_symbol(ppi, w), (w, pi)
                broken += euler_symbol(w, pi) != euler_symbol(pi, w)
    assert broken > 0


def _unit_and_k(n: GaussianInt):
    """(u, k) with n^2 - 4 = u (1+i)^k prod w^e over primary w, from the
    scalar factorization."""
    delta = (n * n - G(4, 0)).pair
    rest, k = (1, 0), 0
    for pi, e in factor_pair_cached(delta):
        if pi == (1, 1):
            k = e
        for _ in range(e):
            rest = mul(rest, pi if pi == (1, 1) else primary_associate(*pi))
    return exact_div(delta, rest), k


# traces -12..12 in each component: all four units, and k = 2 v(n - 2) when
# v(n - 2) < 4 (n + 2 = n - 2 + 4), an odd k such as 9 only beyond
GRID = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if (a, b) not in ((2, 0), (-2, 0))]


def test_reciprocity_rows_match_table_rows_on_every_unit_and_power_of_two():
    tr = _trace_set(GRID)
    shapes = {_unit_and_k(G(a, b)) for a, b in GRID}
    assert {u for u, _ in shapes} == set(UNIT_PAIRS)
    assert {k for _, k in shapes} >= {0, 2, 4, 6, 9}
    prov = LambdaVectors(tr, [1])
    fac = trace_engine._DeltaFactors(tr, prov.bound, prov._chartab)
    split = [(npi, (a, b)) for npi, a, b in prime_ideals_upto(8000).tolist()
             if npi > prov.bound and b]
    pis = np.array([pi for _, pi in split])
    local = fac.rows(*primary_associate(pis[:, 0], pis[:, 1]))
    table = np.stack([trace_engine._sq_char_table(npi)[
        trace_engine._residues(tr.da, tr.db, npi, pi)[1][0]] for npi, pi in split])
    assert local.tobytes() == table.tobytes()


def _incidences(fac, count):
    """{trace: set of (q, s_w) columns, plus "unit" and "two"} read back from
    the factor lists of a _DeltaFactors over `count` traces."""
    names = [(q, s) for q, s in zip(fac.q.tolist(), fac.s.tolist())] + ["unit", "two"]
    out = {j: set() for j in range(count)}
    for j, at in enumerate(fac.pos.tolist()):
        for w in fac.cols:
            if at < len(w):
                assert names[w[at]] not in out[j]
                out[j].add(names[w[at]])
    return out


def _scalar_incidences(n: GaussianInt):
    """The same set for one trace from the scalar factorization of n^2 - 4."""
    u, k = _unit_and_k(n)
    out = {"unit"} if u in ((0, 1), (0, -1)) else set()
    out |= {"two"} if k % 2 else set()
    for (a, b), e in factor_pair_cached((n * n - G(4, 0)).pair):
        if e % 2 and (a, b) != (1, 1):
            out.add((a, 0) if b == 0 else (a * a + b * b, i_mod_split((a, b), a * a + b * b)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(any_trace_st, min_size=1, max_size=8, unique=True))
# all four units and an odd k; and n^2 - 4 with no odd prime in n +- 2
@example(GRID)
@example([(0, 0)])
@example([(0, 2)])
def test_delta_factors_match_the_scalar_factorization(pairs):
    # the vectorized factoring of n - 2 and n + 2 lists, for each trace, the
    # odd-exponent prime factors (q, s_w) of n^2 - 4 and the columns [i/pi]
    # (unit +-i) and [(1+i)/pi] (odd k) that the scalar factorization gives
    tr = _trace_set(pairs)
    fac = trace_engine._DeltaFactors(tr, LambdaVectors(tr, [1]).bound, trace_engine._sq_char_table)
    got = _incidences(fac, len(pairs))
    assert [got[j] for j in range(len(pairs))] == [_scalar_incidences(G(*n)) for n in pairs]
    assert len(set(zip(fac.q.tolist(), fac.s.tolist()))) == len(fac.q)  # one column per ideal


@pytest.fixture(scope="module")
def grid_factors():
    """_DeltaFactors of GRID, the primary split primes beyond its bound, and
    their rows from the Legendre tables."""
    tr = _trace_set(GRID)
    bound = LambdaVectors(tr, [1]).bound
    fac = trace_engine._DeltaFactors(tr, bound, trace_engine._sq_char_table)
    split = [(npi, (a, b)) for npi, a, b in prime_ideals_upto(3000 + bound).tolist()
             if npi > bound and b][:130]
    pis = np.array([pi for _, pi in split])
    table = np.stack([trace_engine._sq_char_table(npi)[
        trace_engine._residues(tr.da, tr.db, npi, pi)[1][0]] for npi, pi in split])
    return fac, primary_associate(pis[:, 0], pis[:, 1]), table


@pytest.mark.parametrize("R", [1, 7, 8, 63, 64, 65, 130])
def test_reciprocity_rows_pack_any_number_of_primes(grid_factors, R):
    # the symbols of R rows are packed into ceil(R / 64) words per column,
    # XORed along each trace's factor list and unpacked: byte for byte the
    # table rows, across the byte and word boundaries
    fac, (a, b), table = grid_factors
    assert len(table) == 130
    rows = fac.rows(a[:R], b[:R])
    assert rows.dtype == np.int8 and rows.shape == (R, len(GRID))
    assert rows.tobytes() == table[:R].tobytes()


def test_delta_factors_refuse_a_bound_below_the_norms_of_n_pm_2():
    # the smallest-factor table covers the bound alone: a factor beyond it
    # is an ArithmeticError that names the bound, never an IndexError
    tr = _trace_set([(7, 3), (-11, 5)])
    bound = LambdaVectors(tr, [1]).bound
    assert bound == (11 + 2) ** 2 + 5 ** 2
    trace_engine._DeltaFactors(tr, bound, trace_engine._sq_char_table)
    with pytest.raises(ArithmeticError, match=f"bound {bound - 1}"):
        trace_engine._DeltaFactors(tr, bound - 1, trace_engine._sq_char_table)


@settings(max_examples=25, deadline=None)
@given(st.lists(any_trace_st, min_size=1, max_size=6, unique=True), st.integers(0, 40))
# units 1, -1, -i and i (with k = 9) of n^2 - 4 = u (1+i)^k prod w^e
@example([(0, 0), (0, -1), (0, -2), (-2, -4)], 0)
def test_reciprocity_rows_match_scalar_lambda(pairs, skip):
    # the local rows of 30 consecutive split primes beyond the factor bound,
    # from a drawn offset, against the scalar lambda
    tr = _trace_set(pairs)
    prov = LambdaVectors(tr, [1])
    split = [(a, b) for npi, a, b in prime_ideals_upto(40000).tolist()
             if npi > prov.bound and b]
    pis = np.array(split[2 * skip:2 * skip + 30])
    rows = trace_engine._DeltaFactors(tr, prov.bound, prov._chartab).rows(*primary_associate(pis[:, 0], pis[:, 1]))
    ns = [G(a, b) for a, b in pairs]
    assert rows.tolist() == [[lambda_at_prime_power(tuple(pi), 1, n * n - G(4, 0), n) for n in ns]
                             for pi in pis.tolist()]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000))
def test_walk_ideals_visits_each_ideal_once(limit, other):
    # one walk to the larger limit serves both: for each limit L, every
    # ideal of norm <= L is reached exactly once, as a visit with reach <= L
    # or as one prime of that visit's leaf range for L, the rows j >= i with
    # N(q) N(pi_j) <= L < N(q) N(pi_j) N(pi_(j+1)); the after hook sees each
    # visit once, the unit ideal's last
    limits = [limit, other]
    primes = prime_ideals_upto(max(limits))
    norms, pairs = primes[:, 0].tolist(), leaf_pairs(primes).tolist()
    before, after = [], []

    def extend(val, npj, pj, e):
        # Python ints, never numpy scalars: nrm * npj * npj must not wrap
        assert type(npj) is int and type(pj) is tuple and {type(c) for c in pj} == {int}
        for _ in range(e):
            val = mul(val, pj)
        return val

    walk_ideals(primes, max(limits), extend, lambda *visit: before.append(visit),
                lambda *visit: after.append(visit), root=(1, 0))
    assert before[0] == after[-1] == (0, 1, (1, 0), 1)
    assert sorted(before) == sorted(after)
    for L in limits:
        seen = []
        for i, nrm, val, reach in before:
            assert type(reach) is int and nrm == norm(val)
            if reach <= L:
                seen.append(canonical_pair(val))
            for j in range(i, len(norms)):
                if nrm * norms[j] > L:
                    break
                if nrm * pairs[j] > L:
                    seen.append(canonical_pair(mul(val, tuple(primes[j, 1:].tolist()))))
        assert sorted(seen) == sorted(ideal_reps_upto(L))


def test_sweep_and_series_leave_no_reference_cycles():
    # the walker's recursion refers to itself; were the cycle kept, each walk
    # would hold extend, and with it the whole LambdaVectors cache, until the
    # next cyclic collection
    gc.collect()
    gc.disable()
    try:
        gv_sweep(_trace_set([(3, 1), (5, 2)]), (30.0, 7.5))
        smoothed_sums([30.0], lambda val, npj, pj, e: val * 0.5 ** e)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("lo, hi, name", [(math.nan, 100.0, "lo"), (1.0, math.inf, "hi"),
                                          (-math.inf, 10.0, "lo"), (1.0, math.nan, "hi")])
def test_trace_set_rejects_non_finite_bounds(lo, hi, name):
    # nan used to leak math.floor's "cannot convert float NaN to integer",
    # and an infinite hi its OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        trace_set(lo, hi)


def test_trace_set_takes_a_negative_lower_bound():
    assert len(trace_set(-5.0, 10.0)) == 26


BAD_CUTOFF_MULTS = [0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("sweep", [
    lambda ts, c: gv_sweep(ts, (30.0, 7.5), cutoff_mult=c),
    lambda ts, c: gv_per_trace(ts, 30.0, cutoff_mult=c),
    lambda ts, c: gv_sweep(_trace_set([]), (30.0,), cutoff_mult=c),
], ids=["gv_sweep", "gv_per_trace", "gv_sweep_of_no_traces"])
def test_sweeps_reject_bad_cutoff_mult(sweep):
    # a cutoff_mult of -1 used to walk the unit ideal alone, and nan to die
    # in int()
    for cutoff_mult in BAD_CUTOFF_MULTS:
        with pytest.raises(ValueError):
            sweep(_trace_set([(3, 1)]), cutoff_mult)


@settings(max_examples=60, deadline=None)
@given(st.floats(-20.0, 400.0), st.floats(0.0, 300.0))
def test_disk_rows_matches_double_loop(lo, width):
    hi = lo + width
    r = math.isqrt(max(math.floor(hi), 0)) + 1
    want = sorted((b, a) for b in range(-r, r + 1) for a in range(-r, r + 1)
                  if lo < a * a + b * b <= hi)
    rows = list(disk_rows(lo, hi))
    got = [(b, int(a)) for b, row in rows for a in row]
    assert got == want  # rows in b order, entries in a order, each point once
    for b, row in rows:
        assert row.dtype == np.int64 and len(row) > 0
        assert np.all(np.diff(row) > 0)
    assert all(b0 < b1 for (b0, _), (b1, _) in zip(rows, rows[1:]))


# traces whose discriminant n^2 - 4 is not a perfect square
orbit_st = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(
    lambda n: not is_perfect_square(GaussianInt(*n) * GaussianInt(*n) - GaussianInt(4, 0)))


@settings(max_examples=10, deadline=None)
@given(orbit_st, st.sampled_from([20.0, 75.0]))
def test_gv_orbit_invariance(n, V):
    """G_V(n^2 - 4) is unchanged by n -> -n (same delta) and by n -> conj(n)
    (conjugate ideals).  The vector sweep walks conj(delta) as delta, so it
    is bit-equal on both; the scalar walk reorders the sum under conj, so
    it is equal to rounding there.

    Each trace is swept alone: in one sweep the four share a representative,
    so their equality there would hold by construction."""
    a, b = n
    gv = [gv_per_trace(_trace_set([m]), V)[0] for m in ((a, b), (-a, -b), (a, -b))]
    assert gv[1] == gv[0]
    assert gv[2] == gv[0]
    scalar = [zagier_L1(m * m - G(4, 0), V, n=m).value
              for m in (G(a, b), G(-a, -b), G(a, -b))]
    assert scalar[1] == scalar[0]
    assert abs(scalar[2] - scalar[0]) <= 1e-12 * abs(scalar[0])


@st.composite
def orbit_shaped_sets(draw):
    """Trace lists mixing +-n pairs, whole {+-n, +-conj(n)} orbits, lone
    traces and repeated traces, shuffled."""
    pairs = []
    for a, b in draw(st.lists(any_trace_st, min_size=1, max_size=5)):
        pairs.append((a, b))
        shape = draw(st.sampled_from(["lone", "pair", "conj", "repeat"]))
        if shape in ("pair", "conj"):
            pairs.append((-a, -b))
        if shape == "conj":
            pairs += [(a, -b), (-a, b)]
        elif shape == "repeat":
            pairs.append((a, b))
    return draw(st.permutations(pairs))


@settings(max_examples=40, deadline=None)
@given(orbit_shaped_sets())
def test_orbit_key_matches_two_column_unique(pairs):
    # the one-int64 class key orders the classes as the (da, |db|) rows of
    # a two-column unique: the same first members and the same inverse
    ts = _trace_set(pairs)
    _, first, inverse = np.unique(np.stack((ts.da, np.abs(ts.db)), axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    reps, got = trace_engine._orbit_reps(ts)
    assert got.tolist() == inverse.reshape(-1).tolist()
    assert reps.na.tolist() == ts.na[first].tolist()
    assert reps.nb.tolist() == np.where(ts.db < 0, -ts.nb, ts.nb)[first].tolist()


@settings(max_examples=25, deadline=None)
@given(orbit_shaped_sets(), st.sampled_from([0.05, 10.0, 30.0, 75.0]),
       st.sampled_from([0, 60, CACHE_BYTES]))
def test_gv_sweep_matches_single_trace_single_v_sweeps(pairs, V, budget):
    """One sweep per {+-n, +-conj(n)} orbit, scattered back, equals sweeping
    each trace alone; the V / V/4 sweep with two accumulators equals two
    one-V sweeps.  Both bit for bit, with vectors and Legendre tables cached
    or rebuilt."""
    ts = _trace_set(pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_engine, "CACHE_BYTES", budget)
        whole = gv_per_trace(ts, V)
        alone = [gv_per_trace(_trace_set([p]), V)[0] for p in pairs]
        assert whole.tobytes() == np.array(alone).tobytes()
        fused = gv_sweep(ts, (V, V / 4.0))
        assert fused[0].tobytes() == whole.tobytes()
        assert fused[1].tobytes() == gv_per_trace(ts, V / 4.0).tobytes()


@pytest.mark.parametrize("window", ["trace_set", "odd"])
def test_gv_sweep_leaves_the_trace_set_unchanged(monkeypatch, window):
    # both walks take local symbols, so _DeltaFactors divides the primes out
    # of n +- 2 and (1+i) out of n^2 - 4: in its own arrays, never in the
    # da and db of the TraceSet swept or of the one it reads.  No n^2 - 4
    # of the odd traces 3 and 5 + 2i is divisible by (1+i), where a
    # valuation returning its input arrays unchanged would alias them
    tr, V = (trace_set(2000.0, 2100.0), 2000.0) if window == "trace_set" else \
        (_trace_set([(3, 0), (5, 2)]), 30.0)
    before = tr.da.copy(), tr.db.copy()
    read, init = [], trace_engine._DeltaFactors.__init__

    def spy(self, traces, *args):
        read.append((traces, traces.da.copy(), traces.db.copy()))
        init(self, traces, *args)

    monkeypatch.setattr(trace_engine._DeltaFactors, "__init__", spy)
    gv_sweep(tr, (V,))
    assert len(read) == 1
    for ts, da, db in [(tr, *before)] + read:
        assert ts.da.tobytes() == da.tobytes() and ts.db.tobytes() == db.tobytes()


def test_gv_sweep_of_no_traces_builds_no_tables(monkeypatch):
    # an empty window, e.g. (X, X+1] near X = 1e4, must not walk: the walk
    # would build a Legendre table for every prime up to the cutoff
    def no_table(p):
        raise AssertionError(f"Legendre table mod {p} built for no traces")

    monkeypatch.setattr(trace_engine, "_sq_char_table", no_table)
    got = gv_sweep(_trace_set([]), (1e4, 2.5e3))
    assert [a.shape for a in got] == [(0,), (0,)]
    with pytest.raises(ValueError):  # V is checked all the same
        gv_sweep(_trace_set([]), (1e4, 0.0))


@settings(max_examples=20, deadline=None)
@given(orbit_shaped_sets(), st.sampled_from([0.05, 3.0, 10.0, 30.0]),
       st.sampled_from([1.0, 2.5]))
def test_gv_sweep_matches_scalar_definition_at_small_cutoffs(pairs, V, cutoff_mult):
    """Each accumulator of the V / V/4 sweep sums lambda_q e^(-N(q)/W)/N(q)
    over exactly the ideals of norm <= cutoff_mult * W (the unit ideal
    always), W its own V: small cutoffs make the boundary ideals count."""
    ts = _trace_set(pairs)
    for W, got in zip((V, V / 4.0), gv_sweep(ts, (V, V / 4.0), cutoff_mult=cutoff_mult)):
        ideals = [(norm(q), CanonicalIdealRep(G(*q)))
                  for q in ideal_reps_upto(max(int(cutoff_mult * W), 1))]
        for (a, b), value in zip(pairs, got):
            n = G(a, b)
            terms = [lambda_(q, n * n - G(4, 0), n=n) * math.exp(-nq / W) / nq
                     for nq, q in ideals]
            assert abs(value - math.fsum(terms)) <= 1e-12 * sum(map(abs, terms)), (n, W)
