"""Dirichlet series, the coefficient factorization, and smoothed values."""

import ast
import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pgt
from pgt.gaussian import GaussianInt, canonical_rep, canonical_pair, divides, \
    exact_div, ideal_reps_upto, divisor_pairs, gcd_pair, mobius, norm, mul
from pgt.characters import chi, discriminant_split, is_perfect_square, quadratic_character
from pgt.harness import fit_exponent
from pgt import lfunctions as lf
from pgt.lfunctions import (L_chi, R_V_estimate, T_l_poly, choose_V,
                            ideal_norm_counts, normalization_sum, smoothed_sums,
                            szmidt_coefficient_check,
                            szmidt_product_coefficients, zagier_L1, zeta_qi)
from pgt import trace_engine

G = GaussianInt

# zeta(2) * Catalan, the classical closed form for the norm zeta at 2;
# Catalan's constant frozen from an independent pre-build evaluation.
ZETA_QI_AT_2 = (math.pi**2 / 6.0) * 0.915_965_594_177_219_015


def test_zeta_qi_at_2():
    z = zeta_qi(2.0, 10**6)
    assert abs(z.value.real - ZETA_QI_AT_2) < 1e-6
    assert abs(z.value.imag) == 0.0
    assert z.tail_bound < 1e-5


def test_zeta_qi_leading_coefficient_and_tail_monotone():
    counts = ideal_norm_counts(50)
    assert counts[1] == 1 and counts[2] == 1 and counts[5] == 2
    t1 = zeta_qi(1.5, 10**3).tail_bound
    t2 = zeta_qi(1.5, 10**4).tail_bound
    t3 = zeta_qi(1.5, 10**5).tail_bound
    assert t1 > t2 > t3


def test_zeta_qi_domain():
    with pytest.raises(ValueError):
        zeta_qi(1.1, 100)
    # NaN fails no "sigma < 1.2" test, and the cutoff is an ideal norm bound
    for s in (math.nan, math.inf, complex(2.0, math.nan), complex(2.0, math.inf)):
        with pytest.raises(ValueError):
            zeta_qi(s, 100)
    for cutoff in (0, -5, 1.5, True):
        with pytest.raises(ValueError):
            zeta_qi(2.0, cutoff)
    assert zeta_qi(2.0, 1).value == 1.0
    z = zeta_qi(2.0 + 3.0j, 10**4)   # complex s off the real axis
    assert abs(z.value.imag) > 0


def test_L_chi_v_stability():
    char = quadratic_character(G(5, 0))
    vals = [L_chi(1.0, char, V, doublings=0).value.real
            for V in (1e3, 1e4, 1e5)]
    assert abs(vals[1] - vals[0]) < 1e-4
    assert abs(vals[2] - vals[1]) < 1e-4
    r = L_chi(1.0, char, 1e3, tol=1e-4)
    assert r.converged
    assert r.band < 1e-6


def test_L_chi_walk_runs_no_primality_test(monkeypatch):
    # the walk hands prime pairs from its prime list to the pinned
    # character's cached lookup, and its prime leaves to one vector pass:
    # no Miller-Rabin; the scalar symbol only at the primes the walk extends,
    # each at most once and none that the pinning already computed; and the
    # vector symbols agree with the scalar ones at every prime reached
    from pgt import characters, gaussian
    characters._pinned.cache_clear()
    char = quadratic_character(G(7, 3) * G(7, 3) - G(4, 0))
    pinned = set(char._prime_cache)
    assert pinned
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

    def walk(primes, limits, extend, *args, **kwargs):
        def recorded(val, npj, pj, e):
            extended.add(pj)
            return extend(val, npj, pj, e)
        walk_ideals(primes, limits, recorded, *args, **kwargs)

    monkeypatch.setattr(gaussian, "euler_symbols", vector_pass)
    monkeypatch.setattr(gaussian, "walk_ideals", walk)
    V, doublings = 25.0, 2
    L_chi(1.0, char, V, doublings=doublings)
    limit = int(lf.CUTOFF_MULT * V * 2**doublings)
    reached = {pp for npi, pp in gaussian.prime_ideals_upto(limit) if npi != 2}
    assert primality == []
    assert len(symbols) == len(set(symbols))
    assert set(symbols) <= (extended & reached) - pinned
    assert reached - extended  # primes the walk reaches only as leaves
    x, primes, got = passes.pop()
    assert passes == [] and x == char.D.pair
    assert {pp for _, pp in primes} == reached
    assert got.tolist() == [euler_symbol(x, pp) for _, pp in primes]


@settings(max_examples=25, deadline=None)
@given(n=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       V=st.floats(0.05, 150.0))
@example(n=(2, 1), V=0.1)
def test_vector_prime_leaves_match_per_prime_extend(n, V):
    # zagier_L1, L_chi and R_V_estimate take their prime leaves from one
    # euler_symbols pass; with smoothed_sums' default table, filled by one
    # extend call per prime, every field comes out bit-identical.  (1+i) is
    # a prime leaf only below the cutoff 10, which V < 0.25 reaches.
    n = G(*n)
    delta = n * n - G(4, 0)
    assume(not delta.is_zero() and not is_perfect_square(delta))
    char = quadratic_character(delta)

    def values():
        return [repr(v) for v in (
            zagier_L1(delta, V, n=n), zagier_L1(delta, V), R_V_estimate(delta, V / 4.0),
            *(L_chi(s, char, V / 8.0) for s in (1.0, 2.0, 0.75 + 0.5j)))]

    vector = values()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf, "_leaf_rows", lambda x, leaf_table: None)
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


def test_L_chi_nonconvergence_flag():
    char = quadratic_character(G(5, 0))
    r = L_chi(1.0, char, 2.0, tol=1e-18, doublings=1)
    assert not r.converged  # flag, not an exception


def test_L_chi_trivial_character_reduces_to_zeta():
    # modulus-(1) character: all values 1, smoothed sum of 1/N(q)^s
    from pgt.characters import QuadraticCharacter
    triv = QuadraticCharacter(D=G(1, 0), even_value=1, validated=True)
    got = L_chi(2.0, triv, 50.0, doublings=0).value.real
    direct = sum(c / m**2 * math.exp(-m / 50.0)
                 for m, c in enumerate(ideal_norm_counts(2000)) if c and m)
    assert got == pytest.approx(direct, rel=1e-12)


def test_L_chi_off_the_real_axis_matches_direct_sum():
    # N(q)^(1-s) rides in the coefficients; the direct sum takes N(q)^-s
    # per ideal and chi from its own path
    s, V = 0.75 + 0.5j, 20.0
    char = quadratic_character(G(5, 0))
    r = L_chi(s, char, V, doublings=1)
    direct = {W: sum(chi(char, canonical_rep(G(*qp))) * math.exp(-norm(qp) / W)
                     * norm(qp) ** (-s) for qp in ideal_reps_upto(int(40 * W)))
              for W in (V, 2 * V)}
    assert abs(direct[V] - direct[2 * V]) > 1e-3  # chi is not trivial here
    assert abs(r.value - direct[2 * V]) <= 1e-12
    assert abs(r.band - abs(direct[2 * V] - direct[V])) <= 1e-12


def _ext(val, npj, pj, e):
    # a multiplicative a(q) of mixed sign with non-dyadic values
    return val * ((-1) ** e * 3.0 / (npj + e) if pj[1] else 0.5 ** e)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 150.0), min_size=1, max_size=4))
def test_smoothed_sums_multi_v_is_one_v_bit_for_bit(Vs):
    assert smoothed_sums(Vs, _ext) == [smoothed_sums([V], _ext)[0] for V in Vs]


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 150.0))
def test_smoothed_sums_unit_coefficients_match_norm_counts(V):
    # a(q) = 1: sum over m of (#ideals of norm m) e^(-m/V)/m, the ideals
    # counted by lattice points rather than walked
    limit = max(int(40 * V), 1)
    counts = ideal_norm_counts(limit)
    want = math.fsum(int(c) * math.exp(-m / V) / m for m, c in enumerate(counts) if m and c)
    got, = smoothed_sums([V], lambda val, npj, pj, e: val)
    assert abs(got - want) <= 1e-13 * want


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


@pytest.mark.parametrize("doublings", [-1, 1.5, True, "2"])
def test_L_chi_rejects_bad_doublings(doublings):
    # -1 died in max() of an empty sequence, 1.5 with a TypeError
    with pytest.raises(ValueError, match="doublings"):
        L_chi(1.0, quadratic_character(G(5, 0)), 50.0, doublings=doublings)


@pytest.mark.parametrize("s", [math.nan, -math.inf, complex(1.0, math.nan)])
def test_L_chi_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match=f"finite s, got {re.escape(repr(s))}"):
        L_chi(s, quadratic_character(G(5, 0)), 50.0)


@pytest.mark.parametrize("cutoff_mult", [0.0, -1.0, math.nan, math.inf])
def test_smoothed_sums_rejects_bad_cutoff_mult(cutoff_mult):
    # -1 used to sum the unit ideal alone, nan to die in int()
    with pytest.raises(ValueError):
        smoothed_sums([10.0], _ext, cutoff_mult=cutoff_mult)


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
    # every smoothed series goes through smoothed_sums; a second walker
    # call would fork the sum again
    assert _callers("walk_ideals") == [("lfunctions", "smoothed_sums")]


def test_factorization_products_and_brute_rho_have_one_home():
    # every multiplicative function of an ideal is one gaussian.multiplicative
    # call, and every Mobius convolution of the brute rho is quad_counts.lambda_
    assert sorted(set(_callers("factor_pair_cached"))) == [
        ("characters", "__post_init__"), ("characters", "_pin_candidates"),
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
    for npi, pp in prime_ideals_upto(200):
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


def test_R_V_estimate_proxy_decreases():
    e1 = R_V_estimate(G(5, 0), 50.0)
    e2 = R_V_estimate(G(5, 0), 400.0)
    assert not e1.extrapolated and not e2.extrapolated
    assert e2.proxy < e1.proxy
    assert e1.sigma_bound > 0 and e1.subconvex_bound > 0


def test_R_V_estimate_sigma_half_shape():
    est = R_V_estimate(G(5, 0), 100.0, sigma=0.5, theta=1.0 / 6.0)
    q = 2.0 + 25.0
    assert est.subconvex_bound == pytest.approx(100.0**-0.5 * q ** (1.0 / 6.0))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_R_V_estimate_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
        R_V_estimate(G(5, 0), 50.0, theta=theta)


def test_R_V_estimate_huge_V_extrapolates_tiny():
    est = R_V_estimate(G(5, 0), 1e8)
    assert est.extrapolated
    assert est.proxy < 1e-6


def test_R_V_estimate_is_zagier_differences(monkeypatch):
    # the ladder and its 8V partners from one walk equal separate walks
    delta = G(5, 0)
    est = R_V_estimate(delta, 40.0)
    assert not est.extrapolated
    assert est.proxy == abs(zagier_L1(delta, 40.0).value - zagier_L1(delta, 320.0).value)
    monkeypatch.setattr(lf, "_RV_EXACT_LIMIT", 40 * 8 * 50)
    seen = []

    def recording_fit(points):
        seen.extend(points)
        return fit_exponent(seen)

    monkeypatch.setattr(lf, "fit_exponent", recording_fit)
    assert R_V_estimate(delta, 1e3).extrapolated
    want = [(v, max(abs(zagier_L1(delta, v).value - zagier_L1(delta, 8 * v).value), 1e-300))
            for v in (12.5, 25.0, 50.0)]
    assert seen == want


def test_choose_V_converges():
    v = choose_V(G(5, 0), tol=1e-3)
    assert v >= 1000.0
    assert R_V_estimate(G(5, 0), v).proxy <= 1e-3
