"""rho/lambda counting functions, their identities, and Kloosterman sums."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pgt import gaussian as g, quad_counts as qc
from pgt.errors import CutoffExceededError
from pgt.gaussian import (GaussianInt, ResidueRing, canonical_rep,
                          canonical_pair, euler_phi, divisor_count,
                          ideal_reps_upto, mul, norm)
from pgt.quad_counts import (KLOOSTERMAN_NORM_CUTOFF, kloosterman,
                             kloosterman_identity_check,
                             lambda_, lambda_at_prime_power,
                             lambda_partial_sum, rho_bruteforce, rho_fast,
                             rho_table, sqrt_perfect_square, weil_ratio)
from pgt.harness import compensated_sum

G = GaussianInt
ONE = canonical_rep(G(1, 0))


def test_rho_trivial_modulus():
    for n in [G(3, 0), G(1, 2), G(0, 3), G(5, 4)]:
        delta = n * n - G(4, 0)
        assert rho_bruteforce(ONE, delta) == 1
        assert rho_fast(ONE, n) == 1


def test_rho_y_substitution_bijection():
    # rho_q(n^2-4) equals the root count of y^2 + n y + 1 mod q
    rng = random.Random(3)
    reps = ideal_reps_upto(60)
    for _ in range(20):
        qp = rng.choice(reps)
        q = canonical_rep(G(*qp))
        n = G(rng.randint(-6, 6), rng.randint(-6, 6))
        delta = n * n - G(4, 0)
        ring = ResidueRing(qp)
        direct = 0
        for y in ring.representatives():
            v = (y[0] * y[0] - y[1] * y[1] + n.re * y[0] - n.im * y[1] + 1,
                 2 * y[0] * y[1] + n.re * y[1] + n.im * y[0])
            t = mul(v, (qp[0], -qp[1]))
            if t[0] % norm(qp) == 0 and t[1] % norm(qp) == 0:
                direct += 1
        assert direct == rho_bruteforce(q, delta), (qp, n)


def test_rho_fast_equals_bruteforce_small_grid():
    for qp in ideal_reps_upto(50):
        q = canonical_rep(G(*qp))
        for a in range(-4, 5):
            for b in range(-4, 5):
                if a == 0 and b == 0:
                    continue
                n = G(a, b)
                assert rho_fast(q, n) == \
                    rho_bruteforce(q, n * n - G(4, 0)), (qp, a, b)


def test_rho_multiplicative_over_coprime():
    rng = random.Random(9)
    reps = ideal_reps_upto(25)
    for _ in range(40):
        q1, q2 = rng.choice(reps), rng.choice(reps)
        if norm(canonical_pair(mul(q1, q2))) > 200:
            continue
        from pgt.gaussian import gcd_pair
        if norm(gcd_pair(q1, q2)) != 1:
            continue
        n = G(rng.randint(-6, 6), rng.randint(-6, 6))
        r1 = rho_fast(canonical_rep(G(*q1)), n)
        r2 = rho_fast(canonical_rep(G(*q2)), n)
        r12 = rho_fast(canonical_rep(G(*canonical_pair(mul(q1, q2)))), n)
        assert r12 == r1 * r2


def _rho_reference(q, delta) -> int:
    """rho_q(delta) by a Python loop over the transversal of Z[i]/(2q)."""
    twoq, (f0, f1) = mul((2, 0), q.pair), mul((4, 0), q.pair)
    n4 = f0 * f0 + f1 * f1
    da, db = delta.pair
    count = 0
    for (x0, x1) in ResidueRing(twoq).representatives():
        wa = x0 * x0 - x1 * x1 - da
        wb = 2 * x0 * x1 - db
        if (wa * f0 + wb * f1) % n4 == 0 and (wb * f0 - wa * f1) % n4 == 0:
            count += 1
    return count


_BIG = 2**31 - 1
_NEAR_BIG = st.one_of(st.integers(-_BIG, _BIG), st.integers(_BIG - 64, _BIG),
                      st.integers(-_BIG, 64 - _BIG))


@settings(max_examples=60, deadline=None)
@given(qp=st.sampled_from(ideal_reps_upto(300)), delta=st.tuples(_NEAR_BIG, _NEAR_BIG),
       square=st.booleans())
@example(qp=(250, 1), delta=(_BIG, -_BIG), square=False)   # N(2q) = 250004
@example(qp=(250, 1), delta=(-_BIG, _BIG - 1), square=False)
@example(qp=(1, 0), delta=(0, 0), square=False)
def test_rho_bruteforce_matches_scalar_loop(qp, delta, square):
    # the int64 predicate against the scalar loop, with delta components up
    # to 2^31 - 1 in size; square=True makes delta a square mod 4q, so the
    # count is nonzero
    if square:
        r = (delta[0] % 32768, delta[1] % 32768)
        delta = mul(r, r)
    q, d = canonical_rep(G(*qp)), G(*delta)
    assert rho_bruteforce(q, d) == _rho_reference(q, d)


def test_rho_bruteforce_cutoff():
    big = canonical_rep(G(600, 1))
    with pytest.raises(CutoffExceededError):
        rho_bruteforce(big, G(5, 0))


def test_sqrt_perfect_square():
    for n in [G(3, 0), G(2, 3), G(-5, 1), G(0, 7)]:
        sq = n * n
        root = sqrt_perfect_square(sq)
        assert (root * root).pair == sq.pair
    with pytest.raises(ValueError):
        sqrt_perfect_square(G(5, 0))


def test_lambda_examples():
    delta5 = G(5, 0)
    assert lambda_(ONE, delta5) == 1
    # prime q: lambda = rho - 1
    for qp in [(2, 1), (3, 0), (1, 1), (1, 2)]:
        q = canonical_rep(G(*qp))
        assert lambda_(q, delta5) == rho_bruteforce(q, delta5) - 1
    # q = (1+i)^2: rho_2 - rho_(1+i) + 1
    q2 = canonical_rep(G(2, 0))
    opi = canonical_rep(G(1, 1))
    want = rho_bruteforce(q2, delta5) - rho_bruteforce(opi, delta5) + 1
    assert lambda_(q2, delta5) == want
    assert lambda_(q2, delta5, method="bruteforce") == want


def test_lambda_at_prime_power_matches_convolution():
    for pi in [(1, 1), (2, 1), (1, 2), (3, 0)]:
        for e in (1, 2, 3, 4):
            q = (1, 0)
            for _ in range(e):
                q = mul(q, pi)
            rep = canonical_rep(G(*canonical_pair(q)))
            if rep.norm() > 500:
                continue
            for n in [G(3, 0), G(4, 0), G(6, 0), G(2, 3), G(1, 1), G(5, 4)]:
                delta = n * n - G(4, 0)
                assert lambda_at_prime_power(pi, e, delta, n) == \
                    lambda_(rep, delta, n=n), (pi, e, n)


def test_rho_lambda_table_bounds():
    n, delta = G(3, 0), G(5, 0)
    for qp in ideal_reps_upto(150):
        rep = canonical_rep(G(*qp))
        rho = rho_fast(rep, n)
        lam = lambda_(rep, delta, n=n)
        assert 0 <= rho <= rep.norm()
        assert abs(lam) <= divisor_count(rep) * max(rho, 1)


def test_rho_sum_over_classes_is_phi():
    for qp in ideal_reps_upto(80):
        q = canonical_rep(G(*qp))
        _, values = rho_table(q)
        assert sum(values) == euler_phi(q), qp


def test_partial_sum_trivial_modulus():
    total, main, rem = lambda_partial_sum(ONE, 500.0)
    direct = sum(1 for a in range(-23, 24) for b in range(-23, 24)
                 if 0 < a * a + b * b <= 500)
    assert total == direct
    assert abs(main - math.pi * 500.0) < 1e-9
    assert abs(rem - (total - main)) < 1e-9


def test_partial_sum_matches_direct_elementwise():
    for qp in [(1, 1), (3, 0), (2, 1)]:
        q = canonical_rep(G(*qp))
        total, main, rem = lambda_partial_sum(q, 80.0)
        direct = 0
        for a in range(-9, 10):
            for b in range(-9, 10):
                if 0 < a * a + b * b <= 80:
                    n = G(a, b)
                    direct += lambda_(q, n * n - G(4, 0), n=n)
        assert total == direct, qp


def test_kloosterman_phi_examples():
    assert kloosterman(G(0, 0), G(0, 0), canonical_rep(G(1, 1))).value == \
        pytest.approx(1.0)
    for qp in ideal_reps_upto(60):
        q = canonical_rep(G(*qp))
        v = kloosterman(G(0, 0), G(0, 0), q).value
        assert v == pytest.approx(euler_phi(q), abs=1e-9)


def test_kloosterman_diagonal_real_and_weil():
    # S(k, k, q) pairs a with a^-1, so it is real; |S| <= phi and Weil holds
    rng = random.Random(17)
    reps = ideal_reps_upto(120)
    for _ in range(25):
        qp = rng.choice(reps)
        q = canonical_rep(G(*qp))
        k = G(rng.randint(-4, 4), rng.randint(-4, 4))
        kv = kloosterman(k, k, q)
        assert abs(kv.value.imag) < 1e-9
        assert abs(kv.value) <= euler_phi(q) + 1e-9
        assert weil_ratio(k, k, q, kv.value) <= 1.0 + 1e-9


def test_kloosterman_identity_examples():
    # k = 0 reduces to the rho-sum identity
    for qp in [(2, 1), (3, 0), (4, 1)]:
        q = canonical_rep(G(*qp))
        assert kloosterman_identity_check(q, G(0, 0)) < 1e-9
    assert kloosterman_identity_check(ONE, G(0, 0)) < 1e-12
    rng = random.Random(23)
    reps = ideal_reps_upto(100)
    for _ in range(20):
        q = canonical_rep(G(*rng.choice(reps)))
        k = G(rng.randint(-5, 5), rng.randint(-5, 5))
        assert kloosterman_identity_check(q, k) <= 1e-8, (q, k)


def _kloosterman_reference(m, n, c) -> complex:
    """S(m, n, c) over the transversal: a unit test by gcd_pair, then an
    inverse by invert_mod, for every residue."""
    nc, cp = c.norm(), c.pair
    cbar = (cp[0], -cp[1])
    tau = 2.0 * math.pi / nc

    def phase(v, x):
        t = mul(x, cbar)
        return (v[0] * t[0] + v[1] * t[1]) % nc

    terms = []
    for a in ResidueRing(cp).representatives():
        if norm(g.gcd_pair(a, cp)) != 1:
            continue
        ainv = g.invert_mod(a, cp)
        ang = tau * ((phase(m.pair, a) + phase(n.pair, ainv)) % nc)
        terms.append(complex(math.cos(ang), math.sin(ang)))
    return compensated_sum(terms)


def test_kloosterman_bit_for_bit_against_reference(monkeypatch):
    # every modulus of norm <= 200, primitive or not; no modulus reaches the
    # Gaussian Euclid inverse
    calls = []
    invert_mod = g.invert_mod
    monkeypatch.setattr(g, "invert_mod",
                        lambda a, mod: calls.append(a) or invert_mod(a, mod))
    rng = random.Random(41)
    for qp in ideal_reps_upto(200):
        c = canonical_rep(G(*qp))
        for _ in range(2):
            m = G(rng.randint(-40, 40), rng.randint(-40, 40))
            n = G(rng.randint(-40, 40), rng.randint(-40, 40))
            calls.clear()
            got = kloosterman(m, n, c).value
            assert not calls, qp
            assert got == _kloosterman_reference(m, n, c), (qp, m, n)


def test_kloosterman_extreme_components_bit_for_bit():
    # the largest components a GaussianInt takes, +-(2^31 - 1), in m and n
    big = 2**31 - 1
    rng = random.Random(43)
    for qp in [(1, 0), (1, 1), (3, 0), (2, 1), (4, 2), (6, 0), (7, 3), (10, 5)]:
        c = canonical_rep(G(*qp))
        for _ in range(3):
            m = G(rng.choice([big, -big]), rng.choice([big, -big]))
            n = G(rng.choice([big, -big]), rng.randint(-big, big))
            assert kloosterman(m, n, c).value == _kloosterman_reference(m, n, c), (qp, m, n)


def test_kloosterman_chunks_sum_as_one_pass(monkeypatch):
    # the transversal walked a few residues at a time gives the same bits
    monkeypatch.setattr(qc, "KLOOSTERMAN_CHUNK", 7)
    rng = random.Random(47)
    for qp in [(1, 0), (5, 0), (4, 2), (9, 3), (11, 4)]:
        c = canonical_rep(G(*qp))
        m = G(rng.randint(-40, 40), rng.randint(-40, 40))
        n = G(rng.randint(-40, 40), rng.randint(-40, 40))
        assert kloosterman(m, n, c).value == _kloosterman_reference(m, n, c), qp


def test_kloosterman_phi_at_the_norm_cutoff():
    # N(c) = 10^6, not primitive: walked in chunks, every term exactly 1
    c = canonical_rep(G(600, 800))
    assert c.norm() == KLOOSTERMAN_NORM_CUTOFF
    assert kloosterman(G(0, 0), G(0, 0), c).value == euler_phi(c)


def test_kloosterman_cutoff():
    with pytest.raises(CutoffExceededError):
        kloosterman(G(0, 0), G(0, 0), canonical_rep(G(1001, 0)))
