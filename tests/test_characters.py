"""Residue symbols, discriminant splits, and the pinned character."""

import pytest
from hypothesis import example, given, settings, strategies as st

from pgt import gaussian as g
from pgt.errors import NotPrimeError, OverflowGuardError, PinningError
from pgt.gaussian import (GaussianInt, ResidueRing, canonical_rep,
                          canonical_pair, factor_pair_cached, gcd_pair,
                          ideal_reps_upto, mul, norm, prime_ideals_upto)
from pgt.characters import (DiscriminantSplit, chi, discriminant_split,
                            is_perfect_square, pin_even_unit_values,
                            quadratic_character, residue_symbol)

G = GaussianInt


def test_residue_symbol_examples():
    pi = canonical_rep(G(2, 1))
    assert residue_symbol(G(0, 1), pi) == -1          # i is a non-square mod 2+i
    assert residue_symbol(G(2, 1) * G(3, 0), pi) == 0
    assert residue_symbol(G(3, 0) * G(3, 0), pi) == 1  # squares are residues


def test_residue_symbol_matches_square_enumeration():
    # brute-force the square set of each small odd prime
    for npi, pp in prime_ideals_upto(200):
        if npi == 2:
            continue
        pi = canonical_rep(G(*pp))
        ring = ResidueRing(pp)
        squares = {ring.index(ring.reduce(mul(r, r)))
                   for r in ring.representatives()}
        nonzero = 0
        plus = 0
        for r in ring.representatives():
            s = residue_symbol(G(*r), pi)
            if r == (0, 0):
                assert s == 0
                continue
            nonzero += 1
            want = 1 if ring.index(r) in squares else -1
            assert s == want, (pp, r)
            plus += s == 1
        # residues and non-residues are equinumerous
        assert plus == (npi - 1) // 2


def test_residue_symbol_multiplicative_in_top():
    for npi, pp in prime_ideals_upto(200):
        if npi == 2:
            continue
        pi = canonical_rep(G(*pp))
        ring = ResidueRing(pp)
        table = {ring.index(r): residue_symbol(G(*r), pi)
                 for r in ring.representatives()}
        reps = ring.representatives()
        for a in reps:
            for b in reps:
                prod = ring.reduce(mul(a, b))
                assert table[ring.index(prod)] == \
                    table[ring.index(a)] * table[ring.index(b)]


def test_residue_symbol_rejects_even_and_composite():
    with pytest.raises(NotPrimeError):
        residue_symbol(G(1, 0), canonical_rep(G(1, 1)))
    with pytest.raises(NotPrimeError):
        residue_symbol(G(1, 0), canonical_rep(G(3, 1)))  # norm 10, not prime


def _euler_symbol_reference(x, pi) -> int:
    """(x / pi) by square-and-multiply in Z[i]/(pi) with rounded-division
    reduction: the Gaussian Euclid arithmetic that euler_symbol replaced."""
    r = g.reduce_mod(x, pi)
    if g.divides(pi, r):
        return 0
    acc, base, e = (1, 0), r, (norm(pi) - 1) // 2
    while e:
        if e & 1:
            acc = g.reduce_mod(mul(acc, base), pi)
        base = g.reduce_mod(mul(base, base), pi)
        e >>= 1
    if g.divides(pi, g.sub(acc, (1, 0))):
        return 1
    assert g.divides(pi, g.add(acc, (1, 0)))
    return -1


_ODD_PRIMES = [pp for npi, pp in prime_ideals_upto(10**5) if npi != 2]
_SPLIT = [pp for pp in _ODD_PRIMES if pp[1] != 0]
_INERT = [pp for pp in _ODD_PRIMES if pp[1] == 0]
_COMPONENT = st.integers(-(2**31 - 1), 2**31 - 1)


@settings(max_examples=400, deadline=None)
@given(pp=st.one_of(st.sampled_from(_SPLIT), st.sampled_from(_INERT)),
       unit=st.sampled_from(g.UNIT_PAIRS), x=st.tuples(_COMPONENT, _COMPONENT),
       multiple=st.booleans())
@example(pp=(230, 217), unit=(0, -1), x=(2**31 - 1, -(2**31 - 1)), multiple=False)
@example(pp=(311, 0), unit=(-1, 0), x=(-(2**31 - 1), 2**31 - 1), multiple=False)
@example(pp=(3, 0), unit=(0, 1), x=(1, 1), multiple=True)
def test_euler_symbol_matches_square_and_multiply(pp, unit, x, multiple):
    # split and inert primes of norm <= 1e5, each unit associate of pi, x with
    # components up to 2^31, and multiples of pi (symbol 0)
    pi = mul(unit, pp)
    if multiple:
        x = mul(pi, (x[0] % 4099, x[1] % 4099))
    want = _euler_symbol_reference(x, pi)
    assert g.euler_symbol(x, pi) == want
    if multiple:
        assert want == 0


_BIG = 2**70 + 3


@pytest.mark.parametrize("x", [
    (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),       # zero and the units
    (-5, 12), (12, -5), (-(2**31 - 1), 2**31 - 1),  # negative components
    (3 * 7 * 11 * 19, 0), (0, 23 * 43),              # inert primes only
    mul(mul((2, 1), (3, 2)), (5 * 7, 4)),            # zero residues at split primes
    (_BIG, -_BIG), (-_BIG, 5), (2**64 + 1, 2**63),   # components beyond int64
])
def test_euler_symbols_match_euler_symbol(x):
    primes = [t for t in prime_ideals_upto(2 * 10**5) if t[0] != 2]
    got = g.euler_symbols(x, primes)
    assert got.dtype == "int8"
    assert got.tolist() == [g.euler_symbol(x, pp) for _, pp in primes]


def test_euler_symbols_int64_guard():
    # exact up to the largest norms below 2^31: the split p = 2147483629 and
    # the inert (46327) of norm 46327^2, in every unit associate; a norm at or
    # above 2^31 (the next split p, the next inert q^2) is refused
    edge = [(2147483629, mul(u, (12925, 44502))) for u in g.UNIT_PAIRS] + \
        [(46327**2, mul(u, (46327, 0))) for u in g.UNIT_PAIRS]
    for x in [(3, 1), (-_BIG, 2**40 + 7), (12925, 44502), (2**31 - 2, 46326)]:
        assert g.euler_symbols(x, edge).tolist() == [g.euler_symbol(x, pp) for _, pp in edge]
    for beyond in [(2147483693, (39677, 23942)), (46351**2, (46351, 0))]:
        with pytest.raises(OverflowGuardError, match="2\\^31"):
            g.euler_symbols((3, 1), edge + [beyond])
    assert g.euler_symbols((3, 1), []).tolist() == []


def test_i_mod_split_is_a_ring_map():
    # i -> t sends pi to 0 and respects products, for every associate
    for npi, pp in prime_ideals_upto(2000):
        if pp[1] == 0 or npi == 2:
            continue
        for u in g.UNIT_PAIRS:
            pi = mul(u, pp)
            t = g.i_mod_split(pi, npi)
            assert (pi[0] + pi[1] * t) % npi == 0
            for a, b in ((3, -7), (12, 5)):
                prod = mul((a, 1), (b, 2))
                assert (prod[0] + prod[1] * t) % npi == \
                    (a + t) * (b + 2 * t) % npi


def test_perfect_square_detection():
    assert is_perfect_square(G(4, 0))
    assert is_perfect_square(G(-4, 0))
    assert is_perfect_square(G(0, 2))     # (1+i)^2
    assert not is_perfect_square(G(5, 0))
    assert not is_perfect_square(G(32, 0))
    assert not is_perfect_square(G(0, 4))


def test_split_examples():
    sp5 = discriminant_split(G(5, 0))
    assert sp5.l.norm() == 1
    assert canonical_pair(sp5.D.pair) == (5, 0)

    sp12 = discriminant_split(G(12, 0))
    # odd part of D is 3; the (2)-part lands in l
    assert canonical_pair(sp12.D.pair) == (3, 0)
    assert sp12.l.pair == (2, 0)

    with pytest.raises(ValueError):
        discriminant_split(G(4, 0))


def test_split_stability():
    for n in [G(3, 0), G(4, 0), G(7, 0), G(2, 3), G(6, 0), G(1, 1)]:
        delta = n * n - G(4, 0)
        sp = discriminant_split(delta)
        again = discriminant_split(sp.delta)
        assert again.D == sp.D and again.l == sp.l
        # D l^2 is an associate of delta (checked in the dataclass too)
        DiscriminantSplit(delta=sp.delta, D=sp.D, l=sp.l)


def test_pin_even_unit_values():
    sp = discriminant_split(G(5, 0))
    ev, uv, report = pin_even_unit_values(sp.D)
    assert uv == 1
    assert ev in (-1, 0, 1)
    assert report.survivors >= 1

    # ramified D: even value must be 0
    sp_even = discriminant_split(G(1, 1) * G(1, 1) - G(4, 0))  # delta = -4+2i
    if any(norm(p) == 2 for p, _ in factor_pair_cached(sp_even.D.pair)):
        ev2, uv2, _ = pin_even_unit_values(sp_even.D)
        assert ev2 == 0 and uv2 == 1


def test_chi_completely_multiplicative():
    char = quadratic_character(G(5, 0))
    vals = {qp: chi(char, canonical_rep(G(*qp))) for qp in ideal_reps_upto(400)}
    for a in ideal_reps_upto(20):
        for b in ideal_reps_upto(20):
            prod = canonical_pair(mul(a, b))
            if norm(prod) > 400:
                continue
            assert vals[prod] == vals[a] * vals[b], (a, b)


def test_chi_zero_iff_common_factor():
    delta = G(2, 3) * G(2, 3) - G(4, 0)   # delta = -9+12i, D ~ 3
    char = quadratic_character(delta)
    for qp in ideal_reps_upto(200):
        v = chi(char, canonical_rep(G(*qp)))
        shares = norm(gcd_pair(qp, char.D.pair)) != 1
        assert (v == 0) == shares, qp


def test_chi_constant_on_associates():
    char = quadratic_character(G(5, 0))
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 and b == 0 or a * a + b * b > 1000:
                continue
            reps = {chi(char, canonical_rep(G(a, b) * u))
                    for u in (G(1, 0), G(0, 1), G(-1, 0), G(0, -1))}
            assert len(reps) == 1


def test_unvalidated_character_rejected():
    from pgt.characters import QuadraticCharacter
    raw = QuadraticCharacter(D=G(5, 0), even_value=-1, validated=False)
    with pytest.raises(PinningError):
        chi(raw, canonical_rep(G(3, 0)))


def test_value_at_prime_checks_primality():
    # the public lookup keeps the check that the series walks skip
    char = quadratic_character(G(5, 0))
    pi = canonical_rep(G(2, 1))
    assert char.value_at_prime(pi) == residue_symbol(char.D, pi)
    assert char.value_at_prime(canonical_rep(G(1, 1))) == char.even_value
    with pytest.raises(NotPrimeError):
        char.value_at_prime(canonical_rep(G(3, 1)))  # norm 10, not prime


def test_pinning_unique_for_acceptance_deltas():
    for n in [G(3, 0), G(4, 0), G(5, 0), G(1, 2), G(3, 2), G(2, 3)]:
        delta = n * n - G(4, 0)
        char = quadratic_character(delta)
        assert char.report.survivors == 1
        assert not char.report.ambiguous
        assert char.unit_value == 1


def test_pinning_resolves_deep_even_case():
    # delta = 32 = unit * (1+i)^10: candidates only separate at deep powers
    char = quadratic_character(G(32, 0))
    assert char.report.survivors == 1
    split = discriminant_split(G(32, 0))
    prod = mul(split.D.pair, mul(split.l.pair, split.l.pair))
    assert canonical_pair(prod) == canonical_pair((32, 0))
