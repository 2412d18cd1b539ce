"""Quadratic residue symbols over Z[i] and the discriminant character chi_D.

For an odd Gaussian prime pi the quadratic residue symbol is computed by the
Euler criterion

    (x / pi) = x^((N(pi)-1)/2)  mod pi   in {0, +1, -1},

computed as one rational pow in the residue field Z[i]/(pi) = F_p or F_q^2
(gaussian.euler_symbol).  Primality is checked once, at the public entry
points residue_symbol and QuadraticCharacter.value_at_prime; the series
walks and the pinning oracle pass primes from factorizations and prime
lists straight to the cached lookup.  The
character chi_D attached to a discriminant delta ~ D l^2 is the completely
multiplicative function on ideals with

    chi_D(pi)    = (D / pi)      at odd primes pi,
    chi_D((1+i)) = even_value    in {-1, 0, +1}.

Neither the normalization of D at (1+i) (how much of the even part of delta
belongs to D rather than l^2), nor the unit rotation of the generator D, nor
even_value can be read off locally in an obvious way.  All three are pinned
operationally: a candidate (D, l, even_value) is accepted iff the Dirichlet
coefficients of T_l^(D) * L(., chi_D) reproduce lambda_q(delta) exactly on a
validation set of ideals.  The validation set always includes deep powers of
(1+i) (up to the even valuation of delta plus one), because candidates can
agree on all coefficients of small norm and first differ at (1+i)^k with
2^k comparable to the even part of delta.

Both factors are multiplicative, so each coefficient of the product is an
Euler product, one gaussian.multiplicative call over the factorization of q.
Take pi^a || l, x = chi_D(pi) and N = N(pi).  The finite factor is
T_l(s) = prod_pi sum_k t(pi^k) N^(-ks) with

    t(pi^k) = N^(k/2)           for even k <= 2a,
    t(pi^k) = -x N^((k-1)/2)    for odd k <= 2a - 1,
    t(pi^k) = 0                 otherwise,

and the product has [T_l L](pi^e) = sum_{k <= e} t(pi^k) x^(e-k).

The unit rotation matters because (i / pi) = -1 when N(pi) = 5 (mod 8), so
D and i*D define different characters; the validation set therefore includes
such a prime whenever one is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NotPrimeError, PinningError, ZeroInputError
from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from . import quad_counts

_PIN_BASE_CUTOFF = 40
_PIN_MAX_CUTOFF = 320
_PIN_MAX_EVEN_DEPTH = 17  # (1+i)^k checks; brute rho stays under its cutoff


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
    """What the coefficient-matching oracle saw while pinning a character."""

    candidates_tested: int
    survivors: int
    checked_norm: int
    even_depth: int
    split_prime_used: tuple | None
    ambiguous: bool
    chosen: tuple  # (even_exponent_of_D, unit_label, even_value)


@dataclass
class QuadraticCharacter:
    """chi_D as a completely multiplicative function on ideals.

    Values at odd primes come from the Euler criterion with D on top; the
    value at (1+i) and the unit normalization of D were pinned by the
    coefficient-matching oracle.  Evaluations at odd primes are cached,
    starting from the symbols the pinning computed for this candidate; the
    cache only ever receives identical values for a key, so concurrent
    readers are safe.
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
# the coefficient-matching oracle
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


def _pin_candidates(delta: GaussianInt, n: GaussianInt | None):
    """Search (even exponent a, unit u, even_value) consistent with lambda data.

    Returns (survivors, report_data); survivors are tuples
    (a, u_pair, ev, D_pair, l_pair), and report_data["caches"] maps each
    candidate to the residue symbols its checks computed.
    """
    fac = g.factor_pair_cached(delta.pair)
    e0 = 0
    d_odd = (1, 0)
    l_odd = (1, 0)
    for pi, e in fac:
        if g.norm(pi) == 2:
            e0 = e
        else:
            if e % 2:
                d_odd = g.mul(d_odd, pi)
            for _ in range(e // 2):
                l_odd = g.mul(l_odd, pi)

    # validation ideals: everything of small norm, deep (1+i)-powers, and a
    # split prime with N = 5 (mod 8) not dividing 2*delta (unit discriminator)
    even_depth = min(e0 + 1, _PIN_MAX_EVEN_DEPTH)
    if n is None:
        even_depth = min(even_depth, 15)  # brute rho cutoff guard
    split_probe = None
    for nrm, re, im in g.prime_ideals_upto(200).tolist():
        if nrm % 8 == 5 and not g.divides((re, im), delta.pair):
            split_probe = (re, im)
            break

    def validation_set(cutoff):
        qs = [p for p in g.ideal_reps_upto(cutoff)]
        w = (1, 1)
        for _ in range(even_depth):
            cp = g.canonical_pair(w)
            if cp not in qs:
                qs.append(cp)
            w = g.mul(w, (1, 1))
        if split_probe is not None and split_probe not in qs:
            qs.append(split_probe)
        return qs

    candidates = []
    for a in range(e0 % 2, min(e0, 5) + 1, 2):
        l_pair = l_odd
        for _ in range((e0 - a) // 2):
            l_pair = g.mul(l_pair, (1, 1))
        l_pair = g.canonical_pair(l_pair)
        base = d_odd
        for _ in range(a):
            base = g.mul(base, (1, 1))
        for u in ((1, 0), (0, 1)):
            D_pair = g.mul(u, base)
            for ev in ((1, -1) if a == 0 else (0,)):
                candidates.append((a, u, ev, D_pair, l_pair))

    cutoff = _PIN_BASE_CUTOFF
    survivors = candidates
    caches = {cand: {} for cand in candidates}
    while True:
        qs = validation_set(cutoff)
        # lambda_q(delta) over the set, which is closed under divisors: fast
        # (y-form) rho when n is known, brute rho else
        lam = quad_counts.lambda_table(
            sorted(qs, key=lambda d: (g.norm(d), d[0])), delta, n=n,
            method="fast" if n is not None else "bruteforce")
        kept = []
        for cand in survivors:
            a, u, ev, D_pair, l_pair = cand
            cache = caches[cand]
            if all(lam[qpair] == _product_coefficient(D_pair, ev, cache, l_pair, qpair)
                   for qpair in qs):
                kept.append(cand)
        survivors = kept
        if len(survivors) <= 1 or cutoff >= _PIN_MAX_CUTOFF:
            break
        cutoff *= 2
    meta = {
        "candidates_tested": len(candidates),
        "checked_norm": cutoff,
        "even_depth": even_depth,
        "split_prime_used": split_probe,
        "caches": caches,
    }
    return survivors, meta


def _pin_full(delta: GaussianInt, n: GaussianInt | None = None):
    """(DiscriminantSplit, QuadraticCharacter) pinned for delta; raises PinningError."""
    if delta.is_zero():
        raise ZeroInputError("delta must be nonzero")
    if is_perfect_square(delta):
        raise ValueError(f"delta = {delta} is a perfect square")
    if n is None:
        try:
            n = quad_counts.sqrt_perfect_square(delta + GaussianInt(4, 0))
        except ValueError:
            n = None
    survivors, meta = _pin_candidates(delta, n)
    if not survivors:
        raise PinningError(
            f"no consistent (D, l, even_value) assignment for delta = {delta}; "
            f"checked ideals to norm {meta['checked_norm']}")
    survivors.sort(key=lambda c: (c[0], c[1] != (1, 0), -c[2]))
    a, u, ev, D_pair, l_pair = survivors[0]
    report = PinReport(
        candidates_tested=meta["candidates_tested"],
        survivors=len(survivors),
        checked_norm=meta["checked_norm"],
        even_depth=meta["even_depth"],
        split_prime_used=meta["split_prime_used"],
        ambiguous=len(survivors) > 1,
        chosen=(a, "1" if u == (1, 0) else "i", ev),
    )
    split = DiscriminantSplit(
        delta=delta,
        D=GaussianInt.from_pair(D_pair),
        l=CanonicalIdealRep(GaussianInt.from_pair(l_pair)),
    )
    char = QuadraticCharacter(D=split.D, even_value=ev, unit_value=1,
                              validated=True, report=report,
                              _prime_cache=meta["caches"][survivors[0]])
    return split, char


@lru_cache(maxsize=65536)
def _pinned(delta: GaussianInt):
    """(split, character) of delta, memoized per exact element delta (the
    split is not associate-invariant)."""
    return _pin_full(delta)


def discriminant_split(delta: GaussianInt) -> DiscriminantSplit:
    """Write delta ~ D l^2 with the oracle-pinned normalization of D.

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
    even value is read off the matching, the unit value is +1 by the ideal
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
