"""Core arithmetic over Z[i]: canonicalization, gcd, factorization,
multiplicative functions, residue rings."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgt import gaussian
from pgt.errors import OverflowGuardError, ZeroInputError
from pgt.gaussian import (GaussianInt, ResidueRing,
                          canonical_rep, divisors, divisor_count, euler_phi,
                          factor, gcd, ideal_reps_upto, is_prime_ideal,
                          mobius, prime_ideals_upto, sigma_xi, split_prime_above,
                          canonical_pair, divides, gcd_pair, mul, norm)

G = GaussianInt


def test_canonical_rep_examples():
    assert canonical_rep(G(-2, 0)).pair == (2, 0)
    assert canonical_rep(G(0, 5)).pair == (5, 0)
    assert canonical_rep(G(1, -1)).pair == (1, 1)


def test_canonical_rep_unique_among_associates():
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == 0 and b == 0:
                continue
            reps = {canonical_rep(u * G(a, b)).pair
                    for u in (G(1, 0), G(0, 1), G(-1, 0), G(0, -1))}
            assert len(reps) == 1
            ca, cb = reps.pop()
            assert ca > 0 and cb >= 0


def test_canonical_rep_idempotent():
    for a in range(1, 8):
        for b in range(0, 8):
            rep = canonical_rep(G(a, b))
            assert canonical_rep(rep.value).pair == rep.pair


def test_zero_rejected():
    with pytest.raises(ZeroInputError):
        canonical_rep(G(0, 0))
    with pytest.raises(ZeroInputError):
        factor(G(0, 0))
    with pytest.raises(ZeroInputError):
        gcd(G(0, 0), G(0, 0))


def test_overflow_guard():
    with pytest.raises(OverflowGuardError):
        G(2**31, 0)
    G(2**31 - 1, -(2**31 - 1))  # boundary is allowed


def test_gcd_examples():
    assert gcd(G(5, 0), G(3, 0)).pair == (1, 0)
    assert gcd(G(0, 0), G(-7, 0)).pair == (7, 0)
    assert gcd(G(3, 1), G(1, 1)).pair == (1, 1)


def test_gcd_by_exhaustive_divisor_search():
    # independent oracle: common divisors by brute force over a box
    rng = random.Random(11)
    for _ in range(30):
        a = G(rng.randint(-9, 9), rng.randint(-9, 9))
        b = G(rng.randint(-9, 9), rng.randint(-9, 9))
        if a.is_zero() and b.is_zero():
            continue
        want = (1, 0)
        best = 0
        for x in range(-12, 13):
            for y in range(-12, 13):
                d = (x, y)
                if d == (0, 0) or norm(d) <= best:
                    continue
                if (a.is_zero() or divides(d, a.pair)) and \
                   (b.is_zero() or divides(d, b.pair)):
                    want = d
                    best = norm(d)
        assert gcd(a, b).pair == canonical_pair(want)


def test_factor_examples():
    f = factor(G(2, 0))
    assert f.unit.pair == (0, -1)
    assert f.factors == ((canonical_rep(G(1, 1)), 2),)
    f5 = factor(G(5, 0))
    assert {p.pair for p, _ in f5.factors} == {(2, 1), (1, 2)}
    f3 = factor(G(3, 0))
    assert f3.factors == ((canonical_rep(G(3, 0)), 1),)


def test_factor_reassembles_up_to_1e4():
    # every nonzero element of norm <= 1e4 factors back to itself exactly
    count = 0
    bound = 10**4
    bmax = math.isqrt(bound)
    for a in range(-bmax, bmax + 1):
        for b in range(-bmax, bmax + 1):
            if a == 0 and b == 0 or a * a + b * b > bound:
                continue
            n = G(a, b)
            f = factor(n)
            assert f.value().pair == n.pair, n
            for p, e in f.factors:
                assert is_prime_ideal(p)
                assert e >= 1
            pairs = [p.pair for p, _ in f.factors]
            assert pairs == sorted(pairs, key=lambda t: (norm(t), t[0]))
            count += 1
    assert count > 31000


def test_factor_prime_shapes():
    for p, e in factor(G(9999, 2)).factors:
        npi = p.norm()
        root = math.isqrt(npi)
        assert (npi == 2 or _is_prime(npi)
                or (root * root == npi and root % 4 == 3))


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_mobius_phi_divisor_examples():
    one = canonical_rep(G(1, 0))
    opi = canonical_rep(G(1, 1))
    two = canonical_rep(G(2, 0))
    assert mobius(one) == 1
    assert mobius(opi) == -1
    assert mobius(two) == 0
    assert euler_phi(opi) == 1
    assert euler_phi(canonical_rep(G(3, 0))) == 8
    assert euler_phi(two) == 2
    assert sigma_xi(opi, 1) == 3
    assert sigma_xi(two, 0) == 3
    z = sigma_xi(two, 0.5 + 1.0j)   # complex exponents are allowed
    assert abs(z - (1 + 2**(0.5 + 1.0j) + 4**(0.5 + 1.0j))) < 1e-12
    assert divisor_count(two) == 3
    assert divisor_count(canonical_rep(G(6, 0))) == 6


def test_phi_by_enumeration():
    for qp in ideal_reps_upto(60):
        ring = ResidueRing(qp)
        direct = sum(1 for r in ring.representatives()
                     if norm(gcd_pair(r, qp)) == 1)
        assert direct == euler_phi(canonical_rep(G(*qp)))


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(5)
    reps = ideal_reps_upto(100)
    for _ in range(200):
        a = rng.choice(reps)
        b = rng.choice(reps)
        if norm(gcd_pair(a, b)) != 1 or norm(a) * norm(b) > 10**4:
            continue
        ra = canonical_rep(G(*a))
        rb = canonical_rep(G(*b))
        rab = canonical_rep(G(*canonical_pair(mul(a, b))))
        assert mobius(rab) == mobius(ra) * mobius(rb)
        assert euler_phi(rab) == euler_phi(ra) * euler_phi(rb)
        assert divisor_count(rab) == divisor_count(ra) * divisor_count(rb)
        assert sigma_xi(rab, 1) == sigma_xi(ra, 1) * sigma_xi(rb, 1)


def test_mobius_sum_over_divisors():
    # sum_{d|n} mu(d) = [n is the unit ideal], for all N(n) <= 1e4
    for qp in ideal_reps_upto(10**4):
        rep = canonical_rep(G(*qp))
        total = sum(mobius(d) for d in divisors(rep))
        assert total == (1 if norm(qp) == 1 else 0), qp


def test_phi_over_norm_identity():
    # phi(q)/N(q) = sum_{d|q} mu(d)/N(d) for all N(q) <= 1e4
    for qp in ideal_reps_upto(10**4):
        rep = canonical_rep(G(*qp))
        lhs = euler_phi(rep) / norm(qp)
        rhs = sum(mobius(d) / d.norm() for d in divisors(rep))
        assert abs(lhs - rhs) < 1e-12, qp


def test_divisors_sorted_and_complete():
    rep = canonical_rep(G(6, 0))
    ds = divisors(rep)
    assert [d.norm() for d in ds] == sorted(d.norm() for d in ds)
    assert len(ds) == 6
    for d in ds:
        assert divides(d.pair, (6, 0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 0), (7, 0), (2, 3)]),
       st.lists(st.tuples(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20)),
                min_size=1, max_size=12),
       st.integers(0, 7), st.integers(1, 6))
def test_valuation_of_arrays_is_elementwise(pi, pairs, k, cap):
    # a * pi^k, so that v reaches cap when k >= cap, and a = 0 (v = cap)
    pik = (1, 0)
    for _ in range(k):
        pik = mul(pik, pi)
    pairs = [mul(a, pik) for a in pairs] + [(0, 0)]
    a0, a1 = np.array(pairs, dtype=np.int64).T
    v, (b0, b1) = gaussian.valuation(pi, (a0, a1), cap)
    want = [gaussian.valuation(pi, a, cap) for a in pairs]
    assert list(zip(v.tolist(), zip(b0.tolist(), b1.tolist()))) == want
    assert not (np.shares_memory(b0, a0) or np.shares_memory(b1, a1))
    for a, (w, b) in zip(pairs, want):
        pw = (1, 0)
        for _ in range(w):
            pw = mul(pw, pi)
        assert mul(b, pw) == a and (w == cap or not divides(pi, b)), (a, w, b)
        assert w >= min(k, cap)


def test_residue_ring_is_transversal():
    for m in [(2, 0), (1, 1), (3, 0), (2, 1), (4, 2), (-3, 1)]:
        if m[0] <= 0:
            m = canonical_pair(m)
        ring = ResidueRing(m)
        reps = ring.representatives()
        assert len(reps) == norm(m)
        seen = set()
        for r in reps:
            assert ring.index(r) not in seen
            seen.add(ring.index(r))
        # distinct classes
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                diff = (reps[i][0] - reps[j][0], reps[i][1] - reps[j][1])
                assert not divides(m, diff)


def test_residue_ring_reduce_consistent():
    ring = ResidueRing((3, 1))
    for a in range(-7, 8):
        for b in range(-7, 8):
            r = ring.reduce((a, b))
            assert divides((3, 1), (a - r[0], b - r[1]))
            assert ring.index((a, b)) == ring.index(r)


def _tuple_sieve(limit):
    """The canonical prime ideals of norm <= limit as (norm, (re, im))
    tuples sorted by (norm, re): a rational sieve, and the prime above each
    split p from split_prime_above."""
    out = []
    if limit >= 2:
        out.append((2, (1, 1)))
    if limit >= 4:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p:: p] = b"\x00" * ((limit - p * p) // p + 1)
        for p in range(3, limit + 1, 2):
            if not sieve[p]:
                continue
            if p % 4 == 1:
                pi = split_prime_above(p)
                out.append((p, pi))
                out.append((p, canonical_pair((pi[0], -pi[1]))))
            elif p * p <= limit:
                out.append((p * p, (p, 0)))
    out.sort(key=lambda t: (t[0], t[1][0]))
    return out


def _as_tuples(primes):
    assert primes.dtype == np.int64 and primes.shape == (len(primes), 3)
    return [(n, (a, b)) for n, a, b in primes.tolist()]


# the inert q <= 47, around whose norm q^2 the b = 0 row gains a prime
_INERT_EDGES = [q * q + d for q in (3, 7, 11, 19, 23, 31, 43, 47) for d in (-1, 0, 1)]


@pytest.mark.parametrize("limits", [range(2001), _INERT_EDGES, [40_000, 1_530_000]])
def test_sieve_matches_the_tuple_sieve(limits):
    for limit in limits:
        assert _as_tuples(gaussian._sieve_prime_ideals(limit)) == _tuple_sieve(limit), limit


def test_sieve_finds_no_split_prime_by_euclid(monkeypatch):
    # the disk gives both primes over a split p: no square root of -1 mod p
    calls = []
    for name in ("split_prime_above", "sqrt_minus_one_mod"):
        monkeypatch.setattr(gaussian, name, lambda p, name=name: calls.append(name))
    assert len(gaussian._sieve_prime_ideals(10_000)) == 1232
    assert calls == []


def test_prime_ideals_upto():
    primes = _as_tuples(prime_ideals_upto(50))
    assert (2, (1, 1)) in primes
    assert (5, (2, 1)) in primes and (5, (1, 2)) in primes
    assert (9, (3, 0)) in primes
    assert (49, (7, 0)) in primes
    norms = [n for n, _ in primes]
    assert norms == sorted(norms)
    for n, p in primes:
        assert norm(p) == n
        assert is_prime_ideal(canonical_rep(G(*p)))


def test_prime_ideals_upto_answers_from_the_largest_sieve(monkeypatch):
    # each limit gets what a fresh sieve gives, whichever larger limit was
    # sieved before, as a read-only view of the kept array
    want = {}
    sieved = []
    fresh = gaussian._sieve_prime_ideals
    monkeypatch.setattr(gaussian, "_sieved", (-1, np.zeros((0, 3), dtype=np.int64)))
    monkeypatch.setattr(gaussian, "_sieve_prime_ideals",
                        lambda limit: sieved.append(limit) or fresh(limit))
    tops = [2000, 150_000]
    for k, top in enumerate(tops):
        prime_ideals_upto(top)
        for limit in [*range(2001), 40_000, 130_854, 149_999, 150_000]:
            if limit <= top:
                if limit not in want:
                    want[limit] = _tuple_sieve(limit)
                got = prime_ideals_upto(limit)
                assert _as_tuples(got) == want[limit], (top, limit)
                assert got.base is gaussian._sieved[1]
        assert sieved == tops[:k + 1]
    kept = gaussian._sieved[1]
    for view in (prime_ideals_upto(50), prime_ideals_upto(150_000), kept):
        with pytest.raises(ValueError):
            view[0, 0] = 3
        with pytest.raises(ValueError):
            view[:, 1] += 1
    assert _as_tuples(prime_ideals_upto(50)) == want[50]
    assert _as_tuples(prime_ideals_upto(150_000)) == want[150_000]
    assert sieved == tops


def test_prime_ideals_upto_under_racing_threads(monkeypatch):
    # threads that grow the kept array under each other still each get the
    # primes of the tuple sieve
    want = {limit: _tuple_sieve(limit) for limit in range(0, 3001, 97)}
    monkeypatch.setattr(gaussian, "_sieved", (-1, np.zeros((0, 3), dtype=np.int64)))
    bad = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(60):
            limit = rng.choice(list(want))
            if _as_tuples(prime_ideals_upto(limit)) != want[limit]:
                bad.append(limit)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_split_prime_above_matches_gaussian_euclid():
    # the integer Euclid on (p, t) picks the same canonical prime as
    # gcd(p, t + i), at every split p <= 4e5
    limit = 4 * 10**5
    sieve = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    splits = [p for p in range(5, limit + 1, 4) if sieve[p]]
    assert len(splits) == 16_900
    for p in splits:
        t = gaussian.sqrt_minus_one_mod(p)
        assert split_prime_above(p) == gcd_pair((p, 0), (t, 1)), p
