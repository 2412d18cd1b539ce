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


def _power(pi, c):
    out = (1, 0)
    for _ in range(c):
        out = mul(out, pi)
    return canonical_rep(G(*canonical_pair(out)))


@pytest.mark.parametrize("pi, e", [((2, 1), 5), ((1, 2), 4), ((3, 0), 3), ((7, 0), 2)])
def test_rho_levels_match_bruteforce_at_odd_primes(pi, e):
    # n = 2 + pi^k m with pi not dividing m gives v_pi(n^2 - 4) = k for
    # k >= 1 (n + 2 = 4 + pi^k m is prime to pi); n = 2 gives delta = 0
    seen = set()
    ns = [G(2, 0)]
    for k in range(e + 2):
        ns += [G(*g.add((2, 0), mul(_power(pi, k).pair, m)))
               for m in [(1, 0), (0, 1), (1, 1), (2, -1), (3, 1), (-2, 3)]
               if not g.divides(pi, m)]
    for n in ns:
        delta = n * n - G(4, 0)
        v, u = g.valuation(pi, delta.pair, e)
        seen.add("v >= e" if v == e else "odd v" if v % 2 else
                 ("even v", g.euler_symbol(u, pi)))
        want = [rho_bruteforce(_power(pi, c), delta) for c in range(e + 1)]
        assert qc._rho_levels(pi, e, delta.pair, n.pair) == want, (pi, n)
    assert seen == {"v >= e", "odd v", ("even v", 1), ("even v", -1)}


def test_rho_levels_match_bruteforce_at_one_plus_i():
    # n = 2 + (1+i)^k m, m odd, to c = 17, the brute-force cutoff at (1+i)
    top = 0
    for k in (0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 17):
        for m in [(1, 0), (-1, 0), (1, 2), (3, 0)]:
            n = G(*g.add((2, 0), mul(_power((1, 1), k).pair, m)))
            delta = n * n - G(4, 0)
            levels = qc._rho_levels((1, 1), 17, delta.pair, n.pair)
            assert levels == [rho_bruteforce(_power((1, 1), c), delta)
                              for c in range(18)], n
            top = max(top, levels[-1])
    assert top == 512


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
                want = lambda_(rep, delta, n=n)
                assert lambda_at_prime_power(pi, e, delta, n) == want, (pi, e, n)
                assert lambda_(rep, delta, method="bruteforce") == want, (pi, e, n)


@settings(max_examples=20, deadline=None)
@given(re_=st.integers(-10, 10), im=st.integers(-10, 10),
       qmax=st.sampled_from([1, 2, 50, 300]))
@example(re_=2, im=0, qmax=300)
@example(re_=1, im=1, qmax=300)
def test_lambda_table_matches_per_ideal_lambda(re_, im, qmax):
    # one convolution over every ideal up to qmax against the same
    # convolution over the divisors of each ideal, on both rho paths
    n = G(re_, im)
    delta = n * n - G(4, 0)
    pairs = ideal_reps_upto(qmax)
    fast = qc.lambda_table(pairs, delta, n=n)
    brute = qc.lambda_table(pairs, delta, method="bruteforce")
    assert list(fast) == pairs
    for qp in pairs:
        q = canonical_rep(G(*qp))
        assert fast[qp] == brute[qp] == lambda_(q, delta, n=n), (qp, n)
        assert brute[qp] == lambda_(q, delta, method="bruteforce"), (qp, n)


def test_lambda_residue_table_matches_lambda():
    # lambda_partial_sum's table, from the local rule, against the Mobius
    # convolution at every residue of every modulus of norm <= 50
    for qp in ideal_reps_upto(50):
        q = canonical_rep(G(*qp))
        ring, table = qc._lambda_residues(q)
        assert table.shape == (ring.n_elements,)
        for rep in ring.representatives():
            n = G(*rep)
            assert table[ring.index(rep)] == lambda_(q, n * n - G(4, 0), n=n), (qp, rep)


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
    # every modulus of norm <= 200, primitive or not, on a cold and then a
    # warm unit cache; no modulus reaches the Gaussian Euclid inverse
    calls = []
    invert_mod = g.invert_mod
    monkeypatch.setattr(g, "invert_mod",
                        lambda a, mod: calls.append(a) or invert_mod(a, mod))
    rng = random.Random(41)
    cases = []
    for qp in ideal_reps_upto(200):
        c = canonical_rep(G(*qp))
        for _ in range(2):
            m = G(rng.randint(-40, 40), rng.randint(-40, 40))
            n = G(rng.randint(-40, 40), rng.randint(-40, 40))
            cases.append((m, n, c, _kloosterman_reference(m, n, c)))
    qc._cached_units.cache_clear()
    for _ in ("cold", "warm"):
        for m, n, c, want in cases:
            calls.clear()
            got = kloosterman(m, n, c).value
            assert not calls, c
            assert got == want, (c, m, n)


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
    # the transversal walked a few residues at a time gives the same bits;
    # the cache is cleared so that every modulus is enumerated in chunks here
    monkeypatch.setattr(qc, "KLOOSTERMAN_CHUNK", 7)
    qc._cached_units.cache_clear()
    rng = random.Random(47)
    moduli = [(1, 0), (5, 0), (4, 2), (9, 3), (11, 4)]
    for qp in moduli:
        c = canonical_rep(G(*qp))
        m = G(rng.randint(-40, 40), rng.randint(-40, 40))
        n = G(rng.randint(-40, 40), rng.randint(-40, 40))
        assert kloosterman(m, n, c).value == _kloosterman_reference(m, n, c), qp
    assert qc._cached_units.cache_info().misses == len(moduli)


def test_kloosterman_phi_at_the_norm_cutoff():
    # N(c) = 10^6, not primitive: walked in chunks, every term exactly 1, and
    # above the cache's norm ceiling, so the enumeration is not kept
    c = canonical_rep(G(600, 800))
    assert c.norm() == KLOOSTERMAN_NORM_CUTOFF
    qc._cached_units.cache_clear()
    assert kloosterman(G(0, 0), G(0, 0), c).value == euler_phi(c)
    assert qc._cached_units.cache_info().currsize == 0


def test_kloosterman_enumerates_each_modulus_once(monkeypatch):
    # the Weil ratio, S(0, 0, c) and the identity check at every modulus of
    # norm <= 100: one square-and-multiply pass per modulus
    calls = []
    units = qc._units
    monkeypatch.setattr(qc, "_units", lambda cp: calls.append(cp) or units(cp))
    qc._cached_units.cache_clear()
    zero, m, n = G(0, 0), G(2, -1), G(1, 3)
    reps = ideal_reps_upto(100)
    for qp in reps:
        c = canonical_rep(G(*qp))
        weil_ratio(m, n, c)
        kloosterman(zero, zero, c)
        kloosterman_identity_check(c, m)
    assert sorted(calls) == sorted(reps)


def test_kloosterman_cached_units_are_read_only():
    # a caller writing into the cached arrays would poison every later sum
    for units in (qc._cached_units((7, 3)), qc._units((33, 2))):
        with pytest.raises(ValueError):
            units[0, 0] = 1
        with pytest.raises(ValueError):
            units[1] = 1


def test_kloosterman_cache_bound():
    # 600 moduli straddling the norm ceiling: only those below it are
    # admitted, and the cache evicts down to its maxsize
    reps = ideal_reps_upto(1100)[-600:]
    admitted = sum(norm(qp) <= qc.KLOOSTERMAN_CACHE_NORM for qp in reps)
    assert qc.KLOOSTERMAN_CACHE_SIZE < admitted < len(reps)
    qc._cached_units.cache_clear()
    for qp in reps:
        c = canonical_rep(G(*qp))
        assert kloosterman(G(0, 0), G(0, 0), c).value == pytest.approx(euler_phi(c))
    info = qc._cached_units.cache_info()
    assert info.misses == admitted and info.hits == 0
    assert info.currsize == info.maxsize == qc.KLOOSTERMAN_CACHE_SIZE


def test_kloosterman_cutoff():
    with pytest.raises(CutoffExceededError):
        kloosterman(G(0, 0), G(0, 0), canonical_rep(G(1001, 0)))
