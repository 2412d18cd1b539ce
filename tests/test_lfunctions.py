"""Dirichlet series, the coefficient factorization, and smoothed values."""

import math

import pytest

from pgt.gaussian import GaussianInt, canonical_rep, canonical_pair, \
    ideal_reps_upto, divisor_pairs, mobius, norm, mul
from pgt.characters import discriminant_split, quadratic_character, chi
from pgt.harness import fit_exponent
from pgt.lfunctions import (L_chi, R_V_estimate, T_l_poly, choose_V,
                            ideal_norm_counts, normalization_sum,
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


def test_T_l_poly_matches_divisor_enumeration():
    # independent evaluation straight from the double divisor sum
    for nn in [G(4, 0), G(2, 3), G(7, 0)]:
        delta = nn * nn - G(4, 0)
        sp = discriminant_split(delta)
        ch = quadratic_character(delta)
        for s in (1.0, 0.75 + 0.5j):
            direct = 0.0
            for d in divisor_pairs(sp.l.pair):
                rep = canonical_rep(G(*d))
                mu = mobius(rep)
                if mu == 0:
                    continue
                xd = chi(ch, rep)
                if xd == 0:
                    continue
                from pgt.gaussian import exact_div
                rest = canonical_pair(exact_div(sp.l.pair, d))
                for e in divisor_pairs(rest):
                    direct += mu * xd * norm(d) ** (-s) * norm(e) ** (1 - 2 * s)
            got = T_l_poly(s, sp.D, sp.l, ch)
            assert got == pytest.approx(direct, rel=1e-12)


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
        assert prod.entries[rep] == x
        assert rho_bruteforce(rep, delta) == 1 + x


def test_szmidt_check_zero_small():
    for n in [G(3, 0), G(4, 0), G(2, 3)]:
        delta = n * n - G(4, 0)
        assert szmidt_coefficient_check(delta, 200) == 0


def test_szmidt_unit_coefficient():
    prod = szmidt_product_coefficients(G(5, 0), 10)
    assert prod.entries[canonical_rep(G(1, 0))] == 1


def test_product_coefficients_multiplicative_spot_check():
    prod = szmidt_product_coefficients(G(5, 0), 400)
    pairs = [((2, 1), (1, 2)), ((3, 0), (1, 1)), ((2, 1), (3, 0)),
             ((1, 1), (4, 1))]
    assert prod.spot_check_multiplicative(pairs)


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


def test_R_V_estimate_huge_V_extrapolates_tiny():
    est = R_V_estimate(G(5, 0), 1e8)
    assert est.extrapolated
    assert est.proxy < 1e-6


def test_choose_V_converges():
    v = choose_V(G(5, 0), tol=1e-3)
    assert v >= 1000.0
    assert R_V_estimate(G(5, 0), v).proxy <= 1e-3
