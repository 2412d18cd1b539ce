"""Property tests: the vector lambda builders and the factored-ideal walker."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pgt.gaussian import (CanonicalIdealRep, GaussianInt, canonical_pair,
                          ideal_reps_upto, mul, prime_ideals_upto, walk_ideals)
from pgt.quad_counts import lambda_, lambda_at_prime_power
from pgt.trace_engine import LambdaVectors, TraceSet

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
