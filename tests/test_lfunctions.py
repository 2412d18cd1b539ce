"""Dirichlet series, the coefficient factorization, and smoothed values."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pgt
from pgt.gaussian import GaussianInt, canonical_rep, canonical_pair, divides, \
    exact_div, ideal_reps_upto, divisor_pairs, gcd_pair, mobius, norm, mul
from pgt.characters import chi, discriminant_split, is_perfect_square, quadratic_character
from pgt.harness import fit_exponent
from pgt import lfunctions as lf, quad_counts as qc
from pgt.lfunctions import (L1_chi_exact, L1_exact, L_chi, R_V_estimate, T_l_poly, e1,
                            normalization_sum, smoothed_sums, szmidt_coefficient_check,
                            szmidt_product_coefficients, zagier_L1)
from pgt import trace_engine
from pgt.geodesics import trace_threshold

G = GaussianInt

# zeta(2) * Catalan, the classical closed form for the norm zeta at 2;
# Catalan's constant frozen from an independent pre-build evaluation.
ZETA_QI_AT_2 = (math.pi**2 / 6.0) * 0.915_965_594_177_219_015


def _norm_counts(limit):
    """{m: number of ideals of norm m} for m <= limit, from the ideal list."""
    counts: dict = {}
    for q in ideal_reps_upto(limit):
        counts[norm(q)] = counts.get(norm(q), 0) + 1
    return counts


def test_unit_series_at_2_is_zeta_of_q_i():
    # the Dedekind zeta of Q(i) at 2 is the unit series with weight N^-2;
    # over N(q) <= K its tail is at most 2 / K, since #ideals(t) <= t
    V = 25_000.0
    K = int(lf.CUTOFF_MULT * V)
    got, = smoothed_sums([V], lambda npj, pj, e: 1.0, weight=lambda V, nrm: nrm ** -2.0)
    assert 0 < ZETA_QI_AT_2 - got <= 2.0 / K


def test_L_chi_v_stability():
    char = quadratic_character(G(5, 0))
    vals = [L_chi(1.0, char, V, doublings=0).value.real
            for V in (1e3, 1e4, 1e5)]
    assert abs(vals[1] - vals[0]) < 1e-4
    assert abs(vals[2] - vals[1]) < 1e-4
    r = L_chi(1.0, char, 1e3)
    assert r.band <= 1e-4
    assert r.band < 1e-6


def test_L_chi_walk_runs_no_primality_test(monkeypatch):
    # the walk hands the prime pairs of the norms it extends to the pinned
    # character's cached lookup, and its prime leaves to one vector pass:
    # no Miller-Rabin; the scalar symbol only at the ideals of the norms the
    # walk extends, each at most once and never at (1+i), whose value the
    # pinning fixes (the pinning, local to (1+i), leaves the cache empty);
    # and the vector symbols agree with the scalar ones at every prime reached
    from pgt import characters, gaussian
    characters._pinned.cache_clear()
    char = quadratic_character(G(7, 3) * G(7, 3) - G(4, 0))
    assert char._prime_cache == {}
    primality, symbols, extended, passes = [], [], set(), []
    is_prime_int, euler_symbol = gaussian.is_prime_int, gaussian.euler_symbol
    euler_symbols, walk_ideals = gaussian.euler_symbols, gaussian.walk_ideals
    monkeypatch.setattr(gaussian, "is_prime_int",
                        lambda n: primality.append(n) or is_prime_int(n))
    monkeypatch.setattr(gaussian, "euler_symbol",
                        lambda x, pi: symbols.append(pi) or euler_symbol(x, pi))

    def vector_pass(x, primes):
        got = euler_symbols(x, primes)
        passes.append((x, primes, got))
        return got

    def walk(primes, limit, extend, *args, **kwargs):
        def recorded(val, npj, pj, e):
            extended.add(npj)
            return extend(val, npj, pj, e)
        walk_ideals(primes, limit, recorded, *args, **kwargs)

    monkeypatch.setattr(gaussian, "euler_symbols", vector_pass)
    monkeypatch.setattr(gaussian, "walk_ideals", walk)
    V, doublings = 25.0, 2
    L_chi(1.0, char, V, doublings=doublings)
    limit = int(lf.CUTOFF_MULT * V * 2**doublings)
    reached = {(a, b) for npi, a, b in gaussian.prime_ideals_upto(limit).tolist() if npi != 2}
    assert primality == []
    assert len(symbols) == len(set(symbols)) and (1, 1) not in symbols
    assert set(symbols) <= reached and {norm(pi) for pi in symbols} <= extended
    # both ideals of a split norm the walk extends
    assert {(b, a) for a, b in symbols if b} <= set(symbols)
    assert {norm(pi) for pi in reached} - extended  # norms reached only as leaves
    x, primes, got = passes.pop()
    assert passes == [] and x == char.D.pair
    assert {(a, b) for _, a, b in primes.tolist()} == reached
    assert got.tolist() == [euler_symbol(x, (a, b)) for _, a, b in primes.tolist()]


@settings(max_examples=25, deadline=None)
@given(n=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       V=st.floats(0.05, 150.0))
@example(n=(2, 1), V=0.1)
def test_vector_prime_leaves_match_per_prime_extend(n, V):
    # zagier_L1, L1_exact, R_V_estimate, L_chi and L1_chi_exact take their
    # prime leaves from one euler_symbols pass; with smoothed_sums' default table, filled by one
    # extend call per prime, every field comes out bit-identical.  (1+i) is
    # a prime leaf only below the cutoff 10, which V < 0.25 reaches.
    # R_V_estimate's dual sum takes the V whose walk runs to 40 V.
    n = G(*n)
    delta = n * n - G(4, 0)
    assume(not delta.is_zero() and not is_perfect_square(delta))
    char = quadratic_character(delta)

    def values():
        return [repr(v) for v in (
            zagier_L1(delta, V, n=n), zagier_L1(delta, V),
            lf._dual_remainder(delta, delta.norm() / (math.pi**2 * V)),
            L1_exact(delta, n=n), L1_chi_exact(char),
            *(L_chi(s, char, V / 8.0) for s in (1.0, 2.0, 0.75 + 0.5j, 0.5)))]

    vector = values()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf, "_leaf_rows", lambda x, first: None)
        assert values() == vector


def test_L_chi_doubling_steps_decreasing():
    # consecutive V-doublings shrink (down to the float noise floor, where
    # this character's smoothed values already sit at V = a few hundred)
    char = quadratic_character(G(12, 0))
    vals = [L_chi(1.0, char, 20.0 * 2**j, doublings=0).value.real
            for j in range(5)]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    for a, b in zip(diffs, diffs[1:]):
        assert b <= a or b < 1e-12, diffs


def test_L_chi_trivial_character_reduces_to_zeta():
    # modulus-(1) character: all values 1, smoothed sum of 1/N(q)^s
    from pgt.characters import QuadraticCharacter
    triv = QuadraticCharacter(D=G(1, 0), even_value=1, validated=True)
    got = L_chi(2.0, triv, 50.0, doublings=0).value.real
    direct = sum(c / m**2 * math.exp(-m / 50.0) for m, c in _norm_counts(2000).items())
    assert got == pytest.approx(direct, rel=1e-12)


def test_L_chi_off_the_real_axis_matches_direct_sum():
    # N(q)^(1-s) rides in smoothed_sums' weight; the direct sum takes
    # N(q)^-s per ideal and chi from its own path
    s, V = 0.75 + 0.5j, 20.0
    char = quadratic_character(G(5, 0))
    r = L_chi(s, char, V, doublings=1)
    direct = {W: sum(chi(char, canonical_rep(G(*qp))) * math.exp(-norm(qp) / W)
                     * norm(qp) ** (-s) for qp in ideal_reps_upto(int(40 * W)))
              for W in (V, 2 * V)}
    assert abs(direct[V] - direct[2 * V]) > 1e-3  # chi is not trivial here
    assert abs(r.value - direct[2 * V]) <= 1e-12
    assert abs(r.band - abs(direct[2 * V] - direct[V])) <= 1e-12


def _ext(npj, pj, e):
    # the local values a(pi^e) of a multiplicative a(q) of mixed sign with
    # non-dyadic values, different at pi and conj(pi)
    return (-1) ** e * 3.0 / (npj + e + pj[0]) if pj[1] else 0.5 ** e


def _other_weight(V, nrm):
    # not of the form e^(-N/V) N^-s, in operations valid on an int or an array
    return (nrm / V) ** -0.5 * 2.0 ** (-nrm / V)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 150.0), min_size=1, max_size=4))
def test_smoothed_sums_multi_v_is_one_v_bit_for_bit(Vs):
    for kw in ({}, {"weight": _other_weight}):
        assert smoothed_sums(Vs, _ext, **kw) == [smoothed_sums([V], _ext, **kw)[0] for V in Vs]


def _per_leaf_sums(Vs, extend, weight=lf._exp_weight):
    """The scalar sums by a walk over the prime ideals, extend(val, N(pi),
    pi, e) giving the value of q * pi^e (None to prune): one walk to each
    V's own cutoff, each visited ideal's term added before its subtree, and
    its prime leaves, found by a scan of the primes after it, with one
    weight call behind it."""
    sums = []
    for V in Vs:
        limit = max(int(lf.CUTOFF_MULT * V), 1)
        primes = pgt.gaussian.prime_ideals_upto(limit)
        norms = primes[:, 0].astype(np.float64)
        table = np.array([extend(1.0, npj, (a, b), 1) or 0.0 for npj, a, b in primes.tolist()])
        total = 0.0

        def before(i, nrm, val, reach):
            nonlocal total
            total += val * weight(V, nrm)

        def after(i, nrm, val, reach):
            nonlocal total
            leaves = []
            for j in range(i, len(norms)):
                if nrm * norms[j] > limit:
                    break
                if j + 1 == len(norms) or nrm * norms[j] * norms[j + 1] > limit:
                    leaves.append(j)
            if leaves:
                total += val * np.sum(weight(V, nrm * norms[leaves]) * table[leaves])

        pgt.gaussian.walk_ideals(primes, limit, extend, before, after, root=1.0)
        sums.append(total)
    return sums


def _close(got, want):
    # the sums add the same terms in another order: 1e-14 on values of order 1
    return all(abs(a - b) <= 1e-14 * max(1.0, abs(b)) for a, b in zip(got, want, strict=True))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.01, 150.0), min_size=1, max_size=4))
def test_scalar_series_match_the_per_leaf_walk(Vs):
    def extend(val, npj, pj, e):
        return val * _ext(npj, pj, e)

    for kw in ({}, {"weight": _other_weight}):
        assert _close(smoothed_sums(Vs, _ext, **kw), _per_leaf_sums(Vs, extend, **kw)), kw


@settings(max_examples=15, deadline=None)
@given(n=st.tuples(st.integers(-30, 30), st.integers(-30, 30)), V=st.floats(0.05, 40.0))
@example(n=(2, 1), V=0.1)
@example(n=(20, 20), V=22.137240649341198)
def test_zagier_and_L_chi_match_the_per_leaf_walk(n, V):
    # each through its own prime values: lambda at every prime power for G_V,
    # characters.chi at every prime for L_chi.  The band is the difference
    # of two sums of size ~5 at (20, 20), so it is checked as that
    # difference, bit for bit, of values each checked against the walk.
    n = G(*n)
    delta = n * n - G(4, 0)
    assume(not delta.is_zero() and not is_perfect_square(delta))
    char = quadratic_character(delta)

    def lam(val, npj, pj, e):
        return val * qc.lambda_at_prime_power(pj, e, delta, n) or None

    def chi_ext(val, npj, pj, e):
        x = chi(char, canonical_rep(G(*pj)))
        return val * x ** e if x else None

    assert _close([zagier_L1(delta, V, n=n).value], _per_leaf_sums([V], lam))
    for s in (1.0, 2.0, 0.75 + 0.5j, 0.5):
        r = L_chi(s, char, V, doublings=2)
        want = _per_leaf_sums([V, 2 * V, 4 * V], chi_ext, weight=(
            lambda W, nrm: lf._exp_weight(W, nrm) * nrm ** (1 - s)))
        half = L_chi(s, char, 2 * V, doublings=0).value
        assert _close([r.value, half], [want[-1], want[-2]]), s
        assert r.band == abs(r.value - half), s


def test_scalar_sums_do_not_depend_on_the_chunk_bound(monkeypatch):
    # each sum is math.fsum of terms computed elementwise, so a block of one
    # entry gives every value the same bits as one block of the whole list
    n = G(7, 3)
    delta = n * n - G(4, 0)
    char = quadratic_character(delta)

    def values():
        return [repr(v) for v in (
            zagier_L1(delta, 30.0, n=n), R_V_estimate(delta, 4.0), normalization_sum(30.0),
            L1_exact(delta, n=n), L1_chi_exact(char),
            *(L_chi(s, char, 4.0) for s in (1.0, 2.0, 0.75 + 0.5j, 0.5)),
            smoothed_sums([3.0, 30.0, 0.5], _ext),
            smoothed_sums([30.0, 3.0], _ext, weight=_other_weight))]

    want = values()
    for block in (1, 2, 97, 10**9):
        monkeypatch.setattr(lf, "SUM_BLOCK", block)
        assert values() == want, block


def _coefficients(limit, local, leaf=None):
    """smoothed_sums' coefficient list (norms, a_m) for the walk to `limit`,
    as _norm_coefficients hands it to the sums, and each entry's term."""
    got, real = [], lf._norm_coefficients
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf, "_norm_coefficients", lambda *args: got.append(real(*args)) or got[-1])
        smoothed_sums([(limit + 0.5) / lf.CUTOFF_MULT], local, leaf)
    norms, coef = got.pop()
    return norms.tolist(), coef.tolist()


def test_scalar_series_call_weight_once_per_pass(monkeypatch):
    # one weight call per V and block of SUM_BLOCK entries of the one
    # coefficient list of the walk to the largest cutoff (before, a call
    # per visited ideal and per leaf range)
    calls = []

    def weight(V, nrm):
        calls.append(V)
        return lf._exp_weight(V, nrm)

    Vs = [125.0, 250.0, 500.0, 1000.0]
    entries = len(_coefficients(int(lf.CUTOFF_MULT * max(Vs)), _ext)[0])
    assert entries > 9000
    for block in (10**9, 97, 1 << 14):
        monkeypatch.setattr(lf, "SUM_BLOCK", block)
        calls.clear()
        smoothed_sums(Vs, _ext, weight=weight)
        assert {V: calls.count(V) for V in Vs} == {V: -(-entries // block) for V in Vs}, block


def _power_trace(pi, k):
    """n = 2 + pi^k, so that pi^k || n - 2 and, for odd pi, v_pi(n^2 - 4) = k."""
    q = (1, 0)
    for _ in range(k):
        q = mul(q, pi)
    return G(q[0] + 2, q[1])


def _lambda_series(n):
    """(local, leaf) of lambda_q(n^2 - 4), as _zagier_sums hands them over."""
    delta = n * n - G(4, 0)

    def local(npj, pj, e):
        return qc.lambda_at_prime_power(pj, e, delta, n)

    return local, lf._leaf_rows(delta.pair, local(2, (1, 1), 1))


def _chi_series(char):
    """(local, leaf) of chi_D, as _chi_sums hands them over."""
    D_pair, ev, cache = char.D.pair, char.even_value, char._prime_cache
    return (lambda npj, pj, e: lf._prime_value(D_pair, ev, cache, pj) ** e,
            lf._leaf_rows(D_pair, ev))


def _mu_series():
    mu = qc.mu_square_local
    return (lambda npj, pj, e: mu(npj, e),
            lambda primes: mu(primes[:, 0].astype(np.float64), 1))


# lambda at traces with pi^k || n - 2 for pi over 5 (both ideals), (3) and
# (1+i), so that the valuation lies below, at and beyond e; two traces with
# small valuations; chi_D of two of them; and two float series
_PRIME_POWER_TRACES = [G(3, 1), G(7, 3)] + [
    _power_trace(pi, k) for pi, ks in (((2, 1), (1, 2, 3)), ((1, 2), (2,)), ((3, 0), (1, 2)),
                                       ((1, 1), (5, 8))) for k in ks]


def _series_cases():
    cases = [(_lambda_series(n), True) for n in _PRIME_POWER_TRACES]
    cases += [(_chi_series(quadratic_character(_delta(n))), True) for n in ((7, 3), (2, 1))]
    return cases + [((_ext, None), False), (_mu_series(), False)]


def test_coefficient_list_sums_the_ideals_of_each_norm():
    # a_m is the sum over the ideals of norm m of gaussian.multiplicative's
    # product of the same local values: exactly for lambda and chi_D, whose
    # values are integers, and to rounding for the float series, which the
    # walk multiplies per norm, not per ideal
    limit = 2000
    ideals = ideal_reps_upto(limit)
    for (local, leaf), exact in _series_cases():
        want: dict = {}
        for q in ideals:
            a = pgt.gaussian.multiplicative(q, lambda pi, e: local(norm(pi), pi, e))
            want[norm(q)] = want.get(norm(q), 0) + a
        norms, coef = _coefficients(limit, local, leaf)
        assert len(set(norms)) == len(norms) and max(norms) <= limit
        got = dict(zip(norms, coef))
        for m in range(1, limit + 1):
            a, b = got.get(m, 0), want.get(m, 0)
            assert a == b if exact else abs(a - b) <= 1e-15 * max(1.0, abs(b)), (m, a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000))
@example(24, 25)
def test_coefficient_list_does_not_depend_on_the_cutoff(limit, other):
    # each norm is listed once, and every a_m of the smaller cutoff comes
    # out the same bits in the walk to the larger one, whether m is a node
    # of one walk and a prime leaf of the other or not (a zero a_m is
    # listed as a leaf and pruned as a node)
    lo, hi = sorted((limit, other))
    for (local, leaf), _ in _series_cases():
        lists = [_coefficients(cut, local, leaf) for cut in (lo, hi)]
        for norms, _ in lists:
            assert len(set(norms)) == len(norms)
        small, large = ({m: a for m, a in zip(*pair) if a and m <= lo} for pair in lists)
        assert small == large


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 150.0))
def test_smoothed_sums_unit_coefficients_match_norm_counts(V):
    # a(q) = 1: sum over m of (#ideals of norm m) e^(-m/V)/m^power, the
    # ideals counted from the ideal list rather than walked; power 2 through
    # the weight argument
    limit = max(int(40 * V), 1)
    counts = _norm_counts(limit)
    for power, kw in ((1, {}), (2, {"weight": lambda V, nrm: np.exp(-nrm / V) / nrm**2})):
        want = math.fsum(c * math.exp(-m / V) / m**power for m, c in counts.items())
        got, = smoothed_sums([V], lambda npj, pj, e: 1.0, **kw)
        assert abs(got - want) <= 1e-13 * want, power


@pytest.mark.parametrize("V", [0.0, -1.0, math.nan, math.inf])
def test_smoothed_series_reject_bad_v(V):
    char = quadratic_character(G(5, 0))
    # R_V_estimate checks V before it picks its ladder: an infinite V used to
    # take the extrapolated branch and return proxy 0.0
    for call in (lambda: smoothed_sums([10.0, V], _ext), lambda: zagier_L1(G(5, 0), V),
                 lambda: L_chi(1.0, char, V), lambda: normalization_sum(V),
                 lambda: R_V_estimate(G(5, 0), V)):
        with pytest.raises(ValueError):
            call()
    # no V at all used to die in max() of an empty sequence
    for call in (lambda: smoothed_sums([], _ext),
                 lambda: trace_engine.gv_sweep(trace_engine.trace_set(10.0, 30.0), ())):
        with pytest.raises(ValueError, match="Vs must hold at least one V"):
            call()


@pytest.mark.parametrize("doublings", [-1, 1.5, True, "2"])
def test_L_chi_rejects_bad_doublings(doublings):
    # -1 died in max() of an empty sequence, 1.5 with a TypeError
    with pytest.raises(ValueError, match="doublings"):
        L_chi(1.0, quadratic_character(G(5, 0)), 50.0, doublings=doublings)


@pytest.mark.parametrize("s", [math.nan, -math.inf, complex(1.0, math.nan)])
def test_L_chi_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match=f"finite s, got {re.escape(repr(s))}"):
        L_chi(s, quadratic_character(G(5, 0)), 50.0)


def _callers(*names):
    """(module, innermost enclosing function) of every call in the package
    to a function of one of the given names, plain or as an attribute."""
    callers = []
    for path in sorted(Path(pgt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> innermost enclosing function (ast.walk is breadth first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, fn.name) for node in ast.walk(fn))
        callers += [(path.stem, scope.get(node, "<module>")) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and {getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)}
                    & set(names)]
    return callers


def test_walk_ideals_has_one_caller():
    # one caller per shape of series: every scalar series goes through
    # smoothed_sums, the vector of G_V over traces through gv_sweep; a third
    # walker call would fork a sum again
    assert _callers("walk_ideals") == [("lfunctions", "smoothed_sums"),
                                       ("trace_engine", "gv_sweep")]


def test_factorization_products_and_brute_rho_have_one_home():
    # every multiplicative function of an ideal is one gaussian.multiplicative
    # call, and every Mobius convolution of the brute rho is quad_counts.lambda_table
    assert sorted(set(_callers("factor_pair_cached"))) == [
        ("characters", "__post_init__"), ("characters", "_pin_full"),
        ("gaussian", "divisor_pairs"), ("gaussian", "multiplicative")]
    brute = _callers("rho_bruteforce", "_rho_brute")
    assert brute
    assert all(module == "quad_counts" or (module, fn) == ("acceptance", "criterion_2")
               for module, fn in brute), brute


def test_character_sum_cancellation():
    # sum_{N(q) <= Q} chi(q) grows strictly slower than Q
    char = quadratic_character(G(5, 0))
    pts = []
    for Q in (200, 800, 3200):
        total = sum(chi(char, canonical_rep(G(*qp))) for qp in ideal_reps_upto(Q))
        pts.append((Q, max(abs(total), 1.0)))
    assert fit_exponent(pts).slope < 1.0


def test_T_l_poly_trivial_and_prime():
    sp5 = discriminant_split(G(5, 0))
    ch5 = quadratic_character(G(5, 0))
    assert T_l_poly(1.0, sp5.D, sp5.l, ch5) == pytest.approx(1.0)

    # delta = 45 = 5 * 3^2: l = (3), an odd prime not dividing D
    delta45 = G(45, 0)
    sp = discriminant_split(delta45)
    ch = quadratic_character(delta45)
    assert sp.l.pair == (3, 0)
    s = 1.37
    npi = 9
    x = chi(ch, sp.l)
    want = 1.0 + npi ** (1.0 - 2 * s) - x * npi ** (-s)
    assert T_l_poly(s, sp.D, sp.l, ch) == pytest.approx(want, rel=1e-12)


# traces n whose l (in delta = n^2 - 4 ~ D l^2) holds (1+i) (4, 2i, 6), an
# odd prime squared (79: (3)^2; 22+7i: (2+i)^2) or a prime where chi_D
# vanishes (2i, 6, 9+2i, 11i), with the pinned l of each
_T_L_TRACES = {(4, 0): (2, 0), (0, 2): (1, 1), (6, 0): (2, 2), (79, 0): (9, 0),
               (22, 7): (3, 4), (9, 2): (1, 2), (0, 11): (5, 0)}


def _divisor_t_coefficients(sp, ch):
    """T_l's coefficients by the double divisor sum, a second path to the
    Euler product: chi_D(d) mu(d) N(e) at the ideal d e^2, d | l
    squarefree and e | l/d."""
    out: dict = {}
    for d in divisor_pairs(sp.l.pair):
        rep = canonical_rep(G(*d))
        w = mobius(rep) * chi(ch, rep)
        if w:
            for e in divisor_pairs(canonical_pair(exact_div(sp.l.pair, d))):
                f = canonical_pair(mul(d, mul(e, e)))
                out[f] = out.get(f, 0) + w * norm(e)
    return out


def _split_of_trace(n):
    delta = G(*n) * G(*n) - G(4, 0)
    return delta, discriminant_split(delta), quadratic_character(delta)


def test_T_l_poly_matches_divisor_enumeration():
    for n in [(4, 0), (2, 3), (7, 0), *_T_L_TRACES]:
        _, sp, ch = _split_of_trace(n)
        tc = _divisor_t_coefficients(sp, ch)
        for s in (1.0, 0.75 + 0.5j):
            direct = sum(w * norm(f) ** (-s) for f, w in tc.items())
            assert T_l_poly(s, sp.D, sp.l, ch) == pytest.approx(direct, rel=1e-12)


def test_product_coefficients_match_divisor_convolution():
    # [T_l L]_q = sum over f | q of t_f chi_D(q / f), at every N(q) <= 400
    for n, l_pair in _T_L_TRACES.items():
        delta, sp, ch = _split_of_trace(n)
        assert sp.l.pair == l_pair
        tc = _divisor_t_coefficients(sp, ch)
        prod = szmidt_product_coefficients(delta, 400)
        assert sorted(prod) == sorted(ideal_reps_upto(400))
        for qp, got in prod.items():
            want = sum(w * chi(ch, canonical_rep(G(*exact_div(qp, f))))
                       for f, w in tc.items() if divides(f, qp))
            assert got == want, (n, qp)


def test_T_l_poly_rejects_non_finite_s():
    # the Euler product over l = (1) is empty, so without the check nan gives 1+0j
    _, sp, ch = _split_of_trace((3, 0))
    assert sp.l.pair == (1, 0)
    for s in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(ValueError, match=r"finite s, got \(.*(nan|inf)"):
            T_l_poly(s, sp.D, sp.l, ch)


def test_szmidt_coefficients_at_primes():
    # at a prime q coprime to 2 delta the Mobius convolution collapses to
    # lambda_q = rho_q - 1 = chi(q); both sides are checked against it
    from pgt.quad_counts import rho_bruteforce
    delta = G(5, 0)
    prod = szmidt_product_coefficients(delta, 200)
    ch = quadratic_character(delta)
    from pgt.gaussian import prime_ideals_upto, gcd_pair
    for npi, re, im in prime_ideals_upto(200).tolist():
        pp = (re, im)
        if npi == 2 or norm(gcd_pair(pp, delta.pair)) != 1:
            continue
        rep = canonical_rep(G(*pp))
        x = chi(ch, rep)
        assert prod[pp] == x
        assert rho_bruteforce(rep, delta) == 1 + x


def test_szmidt_check_zero_small():
    for n in [G(3, 0), G(4, 0), G(2, 3)]:
        delta = n * n - G(4, 0)
        assert szmidt_coefficient_check(delta, 200) == 0


@pytest.mark.parametrize("bad", [-5, 0, math.nan, math.inf, 0.5])
def test_szmidt_cutoffs_reject_bad_values(bad):
    # Qmax <= 0 used to pass the check over no ideal at all, nan to die in
    # int(); a cutoff of -3 gave an empty dict, and 0.5 passed the check (or
    # gave an empty dict) without reaching the unit ideal
    rule = "at least 1" if 0 < bad < 1 else "positive and finite"
    with pytest.raises(ValueError, match=f"Qmax must be {rule}, got {bad!r}"):
        szmidt_coefficient_check(G(5, 0), bad)
    with pytest.raises(ValueError, match=f"cutoff must be {rule}, got {bad!r}"):
        szmidt_product_coefficients(G(5, 0), bad)


@pytest.mark.parametrize("q3", [(1, 0), (1, 1), (2, 1), (3, 0), (4, 2), (14, 0)])
def test_szmidt_check_catches_one_wrong_rho(monkeypatch, q3):
    # an enumerated rho off by one at a single ideal must show up as a
    # coefficient deviation, so the oracle cannot pass on a broken left side
    real = qc._rho_brute
    monkeypatch.setattr(qc, "_rho_brute", lambda qp, dp: real(qp, dp) + (qp == q3))
    assert szmidt_coefficient_check(G(12, 0), 200) >= 1
    monkeypatch.setattr(qc, "_rho_brute", real)
    assert szmidt_coefficient_check(G(12, 0), 200) == 0


def test_szmidt_check_enumerates_each_rho_once(monkeypatch):
    # one check is one convolution: one rho enumeration per ideal in range
    calls = []
    real = qc._rho_brute.__wrapped__
    monkeypatch.setattr(qc, "_rho_brute", lambda qp, dp: calls.append(qp) or real(qp, dp))
    for n, qmax in [(G(3, 0), 1), (G(4, 0), 300), (G(2, 3), 1000)]:
        calls.clear()
        assert szmidt_coefficient_check(n * n - G(4, 0), qmax) == 0
        assert sorted(calls) == sorted(ideal_reps_upto(qmax)), (n, qmax)


def test_szmidt_unit_coefficient():
    prod = szmidt_product_coefficients(G(5, 0), 10)
    assert prod[(1, 0)] == 1


def test_product_coefficients_multiplicative_spot_check():
    # a(q1 q2) = a(q1) a(q2) on coprime pairs inside the cutoff
    prod = szmidt_product_coefficients(G(5, 0), 400)
    pairs = [((2, 1), (1, 2)), ((3, 0), (1, 1)), ((2, 1), (3, 0)),
             ((1, 1), (4, 1))]
    for a, b in pairs:
        assert norm(gcd_pair(a, b)) == 1
        ab = canonical_pair(mul(a, b))
        assert norm(ab) <= 400
        assert prod[ab] == prod[a] * prod[b], (a, b)


def test_zagier_value_positive_on_sweep():
    # G_V(n^2-4) > 0 for every admissible trace with N(n) <= 50
    ts = trace_engine.trace_set(1.0, 60.0)
    gv = trace_engine.gv_per_trace(ts, 400.0)
    assert (gv > 0).all()
    # every value against the scalar path
    for j in range(len(ts)):
        n = G(int(ts.na[j]), int(ts.nb[j]))
        scalar = zagier_L1(n * n - G(4, 0), 400.0, n=n).value
        assert gv[j] == pytest.approx(scalar, abs=1e-12)


def test_zagier_agrees_with_factorization():
    for n in [G(3, 0), G(4, 0), G(2, 3)]:
        delta = n * n - G(4, 0)
        sp = discriminant_split(delta)
        ch = quadratic_character(delta)
        gv = zagier_L1(delta, 1600.0)
        lv = L_chi(1.0, ch, 200.0)  # doubles internally to V = 1600
        prod = (T_l_poly(1.0, sp.D, sp.l, ch) * lv.value).real
        assert gv.value == pytest.approx(prod, abs=5e-9)


def test_zagier_leading_term_and_square_rejection():
    gv = zagier_L1(G(5, 0), 30.0)
    assert gv.value > math.exp(-1 / 30.0) - 1.0  # leading coefficient present
    with pytest.raises(ValueError):
        zagier_L1(G(4, 0), 100.0)


def test_zagier_tail_control():
    # enlarging the cutoff multiple far beyond 40 moves nothing
    v1 = zagier_L1(G(5, 0), 100.0)
    assert v1.tail_estimate < 1e-14
    direct_60 = _zagier_with_mult(G(5, 0), 100.0, 60.0)
    assert abs(v1.value - direct_60) <= 1e-10 * abs(v1.value) + 1e-15


def _zagier_with_mult(delta, V, mult):
    import pgt.lfunctions as lf
    old = lf.CUTOFF_MULT
    lf.CUTOFF_MULT = mult
    try:
        return zagier_L1(delta, V).value
    finally:
        lf.CUTOFF_MULT = old


def test_normalization_sum_trend():
    devs = [(V, abs(normalization_sum(V) - 1.0))
            for V in (100.0, 1000.0, 10000.0, 100000.0)]
    assert devs[0][1] > devs[1][1] > devs[2][1] > devs[3][1]
    assert devs[2][1] <= 0.1
    assert fit_exponent(devs).slope <= -0.4
    # degenerate small V: finite value, no crash
    assert math.isfinite(normalization_sum(10.0))


def test_normalization_sum_takes_its_prime_leaves_from_one_array(monkeypatch):
    # the walk calls mu_square_local once per ideal it extends; the prime
    # leaves' -1/N(pi) come from one call on the array of norms, so there
    # are fewer calls than prime ideals up to the cutoff, and the value is
    # the one of a table filled prime by prime
    V = 1000.0
    local = qc.mu_square_local
    want = smoothed_sums((V,), lambda npj, pj, e: local(npj, e))[0]
    calls = []
    monkeypatch.setattr(qc, "mu_square_local",
                        lambda npi, e: calls.append(npi) or local(npi, e))
    assert normalization_sum(V) == want
    assert 0 < len(calls) < len(pgt.gaussian.prime_ideals_upto(int(lf.CUTOFF_MULT * V)))


def test_R_V_estimate_proxy_decreases():
    small, large = R_V_estimate(G(5, 0), 50.0), R_V_estimate(G(5, 0), 400.0)
    assert 0 < abs(large.remainder) < abs(small.remainder)
    assert small.sigma_bound > 0 and small.subconvex_bound > 0


def test_R_V_estimate_sigma_half_shape():
    est = R_V_estimate(G(5, 0), 100.0, sigma=0.5, theta=1.0 / 6.0)
    q = 2.0 + 25.0
    assert est.subconvex_bound == pytest.approx(100.0**-0.5 * q ** (1.0 / 6.0))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_R_V_estimate_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
        R_V_estimate(G(5, 0), 50.0, theta=theta)


def test_R_V_estimate_huge_V_walks_one_ideal(monkeypatch):
    # the dual sum's cutoff 40 A / (4 pi^2 V) falls below 2 at V = 1e8
    visits = []
    walk_ideals = pgt.gaussian.walk_ideals

    def walk(primes, limit, extend, before, *args, **kwargs):
        walk_ideals(primes, limit, extend, lambda *v: visits.append(v) or before(*v),
                    *args, **kwargs)

    monkeypatch.setattr(pgt.gaussian, "walk_ideals", walk)
    est = R_V_estimate(G(5, 0), 1e8)
    assert abs(est.remainder) < 1e-6
    assert [nrm for _, nrm, _, _ in visits] == [1]


def _delta(n):
    return G(*n) * G(*n) - G(4, 0)


def test_R_V_estimate_is_zagier_differences():
    # the dual E_1 sum against two other walks, G_V and the exact L(1), on
    # both sides of L1_exact's V0 (1.59 at n = 3), below which R_V_estimate
    # takes the difference itself
    for n in ((3, 0), (13, -16), (4, 0)):
        delta = _delta(n)
        exact = L1_exact(delta)
        for V in (0.5, 4.0, 40.0, 300.0):
            want = zagier_L1(delta, V).value - exact.value
            assert abs(lf._dual_remainder(delta, V) - want) <= 1e-14, (n, V)
            got = R_V_estimate(delta, V).remainder
            assert got == want if V < exact.V else abs(got - want) <= 1e-14, (n, V)


def test_R_V_estimate_walks_no_further_than_the_exact_walk(monkeypatch):
    # below V0 = sqrt(4 N(delta)) / 2 pi the dual sum's cutoff 40 A / (4 pi^2 V)
    # outgrows 40 V0: 1.05e9 at n = 30 + 30i and V = 0.0125, against 22,918.
    # Each walk's cutoffs are checked before the primes up to them are sieved
    delta = _delta((30, 30))
    V0 = math.sqrt(4 * delta.norm()) / (2 * math.pi)
    limits = []
    real = lf._sweep_limits

    def checked(*args):
        out = real(*args)
        assert max(out) <= 40 * V0 < 22919, out
        limits.extend(out)
        return out

    monkeypatch.setattr(lf, "_sweep_limits", checked)
    R_V_estimate(delta, 0.0125)
    assert len(limits) == 2  # G_V and the exact L(1)


def test_R_V_shrinks_as_V_grows():
    # on exact values, from a quarter of the exact walk's V to 16 times it
    for n in ((3, 0), (13, -16), (26, 45), (2, 3)):
        delta = _delta(n)
        V0 = L1_exact(delta).V
        sizes = [abs(R_V_estimate(delta, V0 * 2.0**k).remainder) for k in range(-2, 5)]
        assert all(b < a for a, b in zip(sizes, sizes[1:])), (n, sizes)


# L(1, n^2 - 4), from the exact walk of a scratch evaluation checked against
# mpmath's E_1 at 30 digits and against T(1) L(1, chi_D)
EXACT_L1 = {(3, 0): 0.6047086137711147, (13, -16): 0.7144998965461855,
            (26, 45): 0.5331761981130890, (101, 7): 1.4865604158165386}


def test_L1_exact_values():
    for n, want in EXACT_L1.items():
        assert abs(L1_exact(_delta(n), n=G(*n)).value - want) <= 1e-14 * want, n
    # delta = 5: the class number formula of Q(sqrt 5) over Q(i)
    assert abs(L1_exact(G(5, 0)).value - 2 * math.pi * math.log((1 + 5**0.5) / 2) / 5) <= 1e-15


def test_G_V_minus_R_V_is_L1_at_every_V():
    for n in ((3, 0), (13, -16), (26, 45)):
        delta = _delta(n)
        exact = L1_exact(delta)
        for V in (exact.V / 2, 2 * exact.V, 50.0, 1e4):
            got = zagier_L1(delta, V).value - R_V_estimate(delta, V).remainder
            assert abs(got - exact.value) <= 1e-14 * exact.value, (n, V)


def test_series_of_delta_and_its_conjugate_are_bit_identical():
    # lambda_q(conj(delta)) = lambda_conj(q)(delta): the walk over the norms
    # adds the same integer a_m, and math.fsum the same terms, for both
    for a, b in ((3, 1), (13, -16), (26, 45), (-1, 10), (101, 7), (4, 6)):
        n, m = G(a, b), G(a, -b)
        assert L1_exact(_delta((a, b)), n=n).value == L1_exact(_delta((a, -b)), n=m).value
        assert zagier_L1(_delta((a, b)), 50.0).value == zagier_L1(_delta((a, -b)), 50.0).value


def test_L1_exact_is_T_times_exact_L_chi():
    # L1_chi_exact at chi_D's own conductor 4 N(D) is a second walk, over
    # other coefficients; T_l(1) closes the product, also where l != (1)
    count = 0
    for a in range(-12, 13):
        for b in range(13):
            delta = _delta((a, b))
            if delta.is_zero() or is_perfect_square(delta):
                continue
            count += 1
            sp, ch = discriminant_split(delta), quadratic_character(delta)
            product = (T_l_poly(1.0, sp.D, sp.l, ch) * L1_chi_exact(ch)).real
            want = L1_exact(delta, n=G(a, b)).value
            assert abs(product - want) <= 1e-15 * want, (a, b)
    assert count == 322


def test_class_number_ratio_is_a_small_rational():
    # r(n) = sqrt N(delta) L(1, delta) / (pi log thr(n)) is a sum of
    # (4 / w_O) h(O) / k_O over the orders O: a rational of denominator <= 18
    ts = trace_engine.trace_set(1.0, 100.0)
    assert len(ts) == 310
    for a, b in zip(ts.na.tolist(), ts.nb.tolist()):
        n = G(a, b)
        delta = _delta((a, b))
        r = math.sqrt(delta.norm()) * L1_exact(delta, n=n).value \
            / (math.pi * math.log(trace_threshold(n)))
        near = Fraction(r).limit_denominator(18)
        assert abs(r - near) <= 1e-12, (a, b, r, near)


_E1_GRID = np.concatenate([np.geomspace(1e-12, 64.0, 600), [1 - 1e-12, 1.0, 1 + 1e-12]])


def test_e1_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    got = e1(_E1_GRID)
    for x, y in zip(_E1_GRID.tolist(), got.tolist()):
        want = mpmath.e1(mpmath.mpf(x))
        assert abs(y / want - 1) <= 1e-14, x


def test_phi_weight_matches_scipy_exp1():
    special = pytest.importorskip("scipy.special")
    x = _E1_GRID
    want = np.exp(-x) / x + special.exp1(x)
    assert np.all(np.abs(lf._phi_weight(1.0, x) / want - 1) <= 1e-14)
    # V scales the argument and the whole weight
    assert np.all(np.abs(lf._phi_weight(3.0, 3.0 * x) / (want / 3.0) - 1) <= 1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_e1_rejects_bad_x(bad):
    for x in (bad, np.array([1.0, bad, 2.0])):
        with pytest.raises(ValueError, match="finite x > 0"):
            e1(x)
