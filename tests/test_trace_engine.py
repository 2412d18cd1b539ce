"""Property tests: the vector lambda builders, the factored-ideal walker,
the disk enumerator, and the orbit invariance of G_V."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from pgt.characters import is_perfect_square
from pgt.gaussian import (CanonicalIdealRep, GaussianInt, canonical_pair,
                          disk_rows, ideal_reps_upto, mul, prime_ideals_upto,
                          walk_ideals)
from pgt.lfunctions import zagier_L1
from pgt.quad_counts import lambda_, lambda_at_prime_power
from pgt.trace_engine import LambdaVectors, TraceSet, gv_per_trace

G = GaussianInt
PP_NORM_MAX = 2000

# every prime power pi^e of norm <= PP_NORM_MAX: split, inert and (1+i)
PRIME_POWERS = [(npi, pi, e)
                for npi, pi in prime_ideals_upto(PP_NORM_MAX)
                for e in range(1, 12) if npi**e <= PP_NORM_MAX]


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


@settings(max_examples=8, deadline=None)
@given(traces_st, st.integers(1, 2 * PP_NORM_MAX))
def test_lambda_vectors_match_scalar_lambda(pairs, cache_norm):
    na = np.array([a for a, _ in pairs], dtype=np.int64)
    nb = np.array([b for _, b in pairs], dtype=np.int64)
    ones = np.ones(len(pairs))
    prov = LambdaVectors(TraceSet(lo=1.0, hi=2.0, na=na, nb=nb, weight=ones,
                                  thr=ones), cache_norm=cache_norm)
    ns = [G(a, b) for a, b in pairs]
    for npi, pi, e in PRIME_POWERS:
        q = _power(pi, e)
        want = [lambda_at_prime_power(pi, e, n * n - G(4, 0), n) for n in ns]
        # second call: served from the cache when N(pi^e) <= cache_norm
        for _ in range(2):
            assert prov.vec(npi, pi, e).tolist() == want, (pi, e, pairs)
        assert want == [lambda_(q, n * n - G(4, 0), n=n) for n in ns], (pi, e)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000))
def test_walk_ideals_visits_each_ideal_once(limit):
    seen = []

    def extend(val, npj, pj, e):
        for _ in range(e):
            val = mul(val, pj)
        return val

    walk_ideals(limit, extend, lambda nrm, val: seen.append(canonical_pair(val)),
                root=(1, 0))
    assert sorted(seen) == sorted(ideal_reps_upto(limit))


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
    """G_V(n^2 - 4) is unchanged by n -> -n (same delta: bit-equal) and by
    n -> conj(n) (conjugate ideals, reordered sum: equal to rounding)."""
    a, b = n
    na = np.array([a, -a, a], dtype=np.int64)
    nb = np.array([b, -b, -b], dtype=np.int64)
    ones = np.ones(3)
    gv = gv_per_trace(TraceSet(lo=1.0, hi=2.0, na=na, nb=nb, weight=ones, thr=ones), V)
    assert gv[1] == gv[0]
    assert abs(gv[2] - gv[0]) <= 1e-12 * abs(gv[0])
    scalar = [zagier_L1(m * m - G(4, 0), V, n=m).value
              for m in (G(a, b), G(-a, -b), G(a, -b))]
    assert scalar[1] == scalar[0]
    assert abs(scalar[2] - scalar[0]) <= 1e-12 * abs(scalar[0])
