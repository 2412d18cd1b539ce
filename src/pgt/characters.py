"""Quadratic residue symbols over Z[i] and the discriminant character chi_D.

For an odd Gaussian prime pi the quadratic residue symbol is computed by the
Euler criterion

    (x / pi) = x^((N(pi)-1)/2)  mod pi   in {0, +1, -1},

computed as one rational pow in the residue field Z[i]/(pi) = F_p or F_q^2
(gaussian.euler_symbol).  Primality is checked once, at the public entry
points residue_symbol and QuadraticCharacter.value_at_prime; the series
walks pass primes from factorizations and prime lists straight to the
cached lookup.  The character chi_D attached to a discriminant
delta ~ D l^2 is the completely multiplicative function on ideals with

    chi_D(pi)    = (D / pi)      at odd primes pi,
    chi_D((1+i)) = even_value    in {-1, 0, +1}.

The split is pinned by the identity sum_q lambda_q(delta) N(q)^-s =
T_l(s) L(s, chi_D).  Both factors are multiplicative, so each coefficient
of the product is an Euler product, one gaussian.multiplicative call over
the factorization of q.  Take pi^a || l, x = chi_D(pi) and N = N(pi).  The
finite factor is T_l(s) = prod_pi sum_k t(pi^k) N^(-ks) with

    t(pi^k) = N^(k/2)           for even k <= 2a,
    t(pi^k) = -x N^((k-1)/2)    for odd k <= 2a - 1,
    t(pi^k) = 0                 otherwise,

and the product has [T_l L](pi^e) = sum_{k <= e} t(pi^k) x^(e-k).

The odd parts of D and l are read off the factorization of delta.  What
is left is local to (1+i): with e0 = v_(1+i)(delta), D takes (1+i)^a for
some a = e0 (mod 2), a <= 5, l takes (1+i)^b with 2b = e0 - a, and x =
even_value is +-1 when a = 0 and 0 otherwise.  With X = 2^-s the Euler
factor of the product at (1+i) is

    sum_{j < b} 2^j X^(2j) + 2^b X^(2b) / (1 - x X),

whose coefficient at X^(2b+m) is 2^b x^m.  So lambda at (1+i)^k for
k <= e0 + 2 decodes (a, x): a candidate with x = 0 has a zero at k = 2b + 2
<= e0 + 1, where a candidate with larger b does not, and x = +-1 shows at
k = e0 + 1; k = e0 + 2 checks x^2.  Exactly one candidate must match, or
the pin raises PinningError.  lambda there comes from the lifted roots of
y^2 + n y + 1 when n is known (delta + 4 a square), from the x-enumeration
rho otherwise, whose cutoff bounds the depth.

The unit of D needs no lambda data.  chi_D depends on D only up to
squares, and -1 = i^2 is one, but i is not: (i / pi) = -1 when
N(pi) = 5 (mod 8).  The identity holds with D = delta / l^2 exactly, so
with base = d_odd (1+i)^a, D is base when delta / (base l^2) is +-1 and
i base otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CutoffExceededError, NotPrimeError, PinningError, ZeroInputError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from . import quad_counts


# ---------------------------------------------------------------------------
# Euler criterion
# ---------------------------------------------------------------------------

def residue_symbol(n: GaussianInt, pi: CanonicalIdealRep) -> int:
    """Quadratic residue symbol (n / pi) for an odd Gaussian prime pi."""
    npi = pi.norm()
    if npi == 2:
        raise NotPrimeError("the even prime (1+i) has no Euler criterion")
    if not g.is_prime_ideal(pi):
        raise NotPrimeError(f"{pi} is not a Gaussian prime")
    return g.euler_symbol(n.pair, pi.pair)


def is_perfect_square(delta: GaussianInt) -> bool:
    """True iff delta = x^2 for some x in Z[i] (0 counts as a square)."""
    if delta.is_zero():
        return True
    fac = g.factor(delta)
    if any(e % 2 for _, e in fac.factors):
        return False
    return fac.unit.pair in ((1, 0), (-1, 0))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminantSplit:
    """delta ~ D * l^2 with D the pinned fundamental-discriminant generator."""

    delta: GaussianInt
    D: GaussianInt
    l: CanonicalIdealRep

    def __post_init__(self):
        prod = g.mul(self.D.pair, g.mul(self.l.pair, self.l.pair))
        if g.canonical_pair(prod) != g.canonical_pair(self.delta.pair):
            raise ValueError("D * l^2 is not an associate of delta")
        for pi, e in g.factor_pair_cached(self.D.pair):
            if g.norm(pi) != 2 and e > 1:
                raise ValueError("odd part of D is not squarefree")


@dataclass
class PinReport:
    """What the decode at (1+i) read and chose while pinning a character."""

    even_depth: int  # lambda was read at (1+i)^k for k <= even_depth
    chosen: tuple  # (even_exponent_of_D, unit_label, even_value)


@dataclass
class QuadraticCharacter:
    """chi_D as a completely multiplicative function on ideals.

    Values at odd primes come from the Euler criterion with D on top; the
    value at (1+i) and the normalization of D were pinned by the decode at
    (1+i).  Evaluations at odd primes are cached as the series walks ask
    for them; the cache only ever receives identical values for a key, so
    concurrent readers are safe.
    """

    D: GaussianInt
    even_value: int
    unit_value: int = 1
    validated: bool = False
    report: PinReport | None = None
    _prime_cache: dict = field(default_factory=dict, repr=False)

    def value_at_prime(self, pi: CanonicalIdealRep) -> int:
        if not g.is_prime_ideal(pi):
            raise NotPrimeError(f"{pi} is not a Gaussian prime")
        return _prime_value(self.D.pair, self.even_value, self._prime_cache, pi.pair)


def chi(character: QuadraticCharacter, n: CanonicalIdealRep) -> int:
    """chi_D(n), completely multiplicative over the prime powers of (n)."""
    D_pair, ev, cache = _validated_args(character)
    return g.multiplicative(n.pair, lambda pi, e: _prime_value(D_pair, ev, cache, pi) ** e)


def _validated_args(character: QuadraticCharacter):
    """(D_pair, even_value, cache) of a validated character: the leading
    arguments of _prime_value and _product_coefficient below."""
    if not character.validated:
        raise PinningError("character has not been validated; pin it first")
    return character.D.pair, character.even_value, character._prime_cache


# ---------------------------------------------------------------------------
# the product coefficients and the decode at (1+i)
# ---------------------------------------------------------------------------

def _prime_value(D_pair, even_value, cache, pi) -> int:
    """chi_D at the prime pair pi for the character (D, even_value).

    `cache` maps odd prime pairs to their residue symbols with D on top.
    pi comes from a factorization or a prime list, so it is not checked.
    """
    if pi == (1, 1):
        return even_value
    v = cache.get(pi)
    if v is None:
        v = g.euler_symbol(D_pair, pi)
        cache[pi] = v
    return v


def _t_local(x, npi, k) -> int:
    """t(pi^k) for k <= 2a, the local coefficient of T_l at a prime pi with
    pi^a || l, x = chi_D(pi) and npi = N(pi): N^(k/2) for even k and
    -x N^((k-1)/2) for odd k (t vanishes beyond 2a)."""
    return -x * npi ** (k // 2) if k % 2 else npi ** (k // 2)


def _product_coefficient(D_pair, even_value, cache, l_pair, qpair) -> int:
    """q-th Dirichlet coefficient of T_l^(D) * L(., chi_D), an Euler product:
    at pi^e || q the local factor is sum_{k <= e} t(pi^k) chi_D(pi)^(e-k)."""
    def local(pi, e):
        x, npi = _prime_value(D_pair, even_value, cache, pi), g.norm(pi)
        a, _ = g.valuation(pi, l_pair, e)  # min(e, 2a) is unchanged by the cap
        return sum(_t_local(x, npi, k) * x ** (e - k) for k in range(min(e, 2 * a) + 1))

    return g.multiplicative(qpair, local)


def _pin_full(delta: GaussianInt, n: GaussianInt | None = None):
    """(DiscriminantSplit, QuadraticCharacter) of delta by the decode at (1+i)
    (module docstring); raises PinningError unless exactly one candidate
    (a, even_value) matches lambda at every (1+i)^k, k <= e0 + 2."""
    if delta.is_zero():
        raise ZeroInputError("delta must be nonzero")
    if is_perfect_square(delta):
        raise ValueError(f"delta = {delta} is a perfect square")
    if n is None:
        try:
            n = quad_counts.sqrt_perfect_square(delta + GaussianInt(4, 0))
        except ValueError:
            n = None
    e0, d_odd, l_odd = 0, (1, 0), (1, 0)
    for pi, e in g.factor_pair_cached(delta.pair):
        if g.norm(pi) == 2:
            e0 = e
            continue
        if e % 2:
            d_odd = g.mul(d_odd, pi)
        for _ in range(e // 2):
            l_odd = g.mul(l_odd, pi)
    depth = e0 + 2
    powers = [(1, 0)]  # (1+i)^k for k <= depth
    for _ in range(depth):
        powers.append(g.mul(powers[-1], (1, 1)))
    chain = [g.canonical_pair(w) for w in powers]  # closed under divisors
    try:
        lam = quad_counts.lambda_table(chain, delta, n=n,
                                       method="fast" if n is not None else "bruteforce")
    except CutoffExceededError as exc:
        raise PinningError(f"cannot decode delta = {delta} at (1+i)^k, k <= {depth}: "
                           f"{exc}") from exc
    matches = []
    for a in range(e0 % 2, min(e0, 5) + 1, 2):
        base = g.mul(d_odd, powers[a])
        l_pair = g.canonical_pair(g.mul(l_odd, chain[(e0 - a) // 2]))
        for ev in ((1, -1) if a == 0 else (0,)):
            if all(lam[q] == _product_coefficient(base, ev, {}, l_pair, q) for q in chain):
                matches.append((a, ev, base, l_pair))
    if len(matches) != 1:
        raise PinningError(f"{len(matches)} (1+i)-parts of (D, l, even_value) match "
                           f"lambda of delta = {delta} at (1+i)^k, k <= {depth}")
    a, ev, base, l_pair = matches[0]
    unit = g.exact_div(delta.pair, g.mul(base, g.mul(l_pair, l_pair)))
    u = (1, 0) if unit in ((1, 0), (-1, 0)) else (0, 1)
    split = DiscriminantSplit(
        delta=delta,
        D=GaussianInt.from_pair(g.mul(u, base)),
        l=CanonicalIdealRep(GaussianInt.from_pair(l_pair)),
    )
    report = PinReport(even_depth=depth, chosen=(a, "1" if u == (1, 0) else "i", ev))
    char = QuadraticCharacter(D=split.D, even_value=ev, validated=True, report=report)
    return split, char


@lru_cache(maxsize=65536)
def _pinned(delta: GaussianInt):
    """(split, character) of delta, memoized per exact element delta (the
    split is not associate-invariant)."""
    return _pin_full(delta)


def discriminant_split(delta: GaussianInt) -> DiscriminantSplit:
    """Write delta ~ D l^2 with the normalization of D pinned at (1+i).

    Rejects zero and perfect-square delta.  Memoized together with the
    character.
    """
    return _pinned(delta)[0]


def quadratic_character(delta: GaussianInt) -> QuadraticCharacter:
    """The validated character chi_D for delta ~ D l^2 (memoized with the split)."""
    return _pinned(delta)[1]


def pin_even_unit_values(D: GaussianInt):
    """(even_value, unit_value, report) for a pinned discriminant generator D.

    Validates D against its own lambda data (delta := D, so l = (1)); the
    even value is read off the decode, the unit value is +1 by the ideal
    convention and reported after the consistency check passes.
    """
    if D.is_zero():
        raise ZeroInputError("D must be nonzero")
    split, char = _pin_full(D)
    if split.l.norm() != 1:
        raise PinningError(f"{D} is not a fundamental discriminant generator "
                           f"(conductor part l = {split.l})")
    if g.canonical_pair(split.D.pair) != g.canonical_pair(D.pair):
        raise PinningError(f"pinning moved the even part of {D}")
    return char.even_value, char.unit_value, char.report
