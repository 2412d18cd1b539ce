"""Dirichlet series over Q(i) and the factorization of the form L-function.

Everything here uses the ideal convention: a series  sum_q a_q / N(q)^s
runs over nonzero ideals q, i.e. over canonical first-quadrant generators.
(The element convention would multiply every sum by 4; the geodesics module
owns that conversion in its single global constant.)

Objects:

  smoothed_sums     the one evaluator of the scalar smoothed series below.
  e1(x)             the exponential integral E_1 on float64 arrays.
  L_chi(s, chi, V)  exponentially smoothed L(s, chi_D), with a convergence
                    band from doubling V.
  L1_chi_exact(chi) L(1, chi_D) exactly, as L1_exact at the conductor 4 N(D).
  T_l_poly(s, ...)  the finite factor attached to a split delta ~ D l^2,
                    an Euler product over the primes pi^a || l:

      T(s) = prod_pi sum_{k <= 2a} t(pi^k) N(pi)^(-ks),
      t(pi^k) = N(pi)^(k/2) (k even),  -chi_D(pi) N(pi)^((k-1)/2) (k odd).

                    This is the convention under which the product T * L
                    reproduces the integer coefficients lambda_q(delta)
                    exactly -- the szmidt_coefficient_check oracle below
                    enforces it, and its Euler factor at (1+i) is what
                    the decode in characters reads to pin the character
                    normalization.
  szmidt_product_coefficients
                    the integer coefficients of T_l * L(chi_D), as a plain
                    {ideal pair: int} dict; at pi^e || q the local factor is
                    sum_{k <= e} t(pi^k) chi_D(pi)^(e-k), from the same
                    characters._product_coefficient the decode at (1+i)
                    matches.
  szmidt_coefficient_check
                    max |lambda_q(delta) - [T_l * L]_q| over small ideals,
                    against quad_counts.lambda_table on the brute-force rho.
  zagier_L1         G_V(delta) = sum_q lambda_q(delta) e^(-N(q)/V) / N(q),
                    the smoothed value of the form L-function at s = 1.
  L1_exact          L(1, delta) exactly, by the approximate functional
                    equation at the conductor A = 4 N(delta) (T. Dokchitser,
                    Experiment. Math. 13, 2004): L(1) = G_V - R_V at every V.
  normalization_sum the mu-square-weighted smoothed sum that tends to 1.
  R_V_estimate      the smoothing remainder R_V, exactly: its dual E_1 sum
                    from L1_exact's V on, G_V - L(1) below it.

Every scalar series  sum_q a(q) w_V(N(q))  of the package -- G_V, L(1),
R_V, L_chi, normalization_sum -- is evaluated by one function,
smoothed_sums, on gaussian.walk_ideals (whose other caller,
trace_engine.gv_sweep, sums G_V for a column per trace itself): a series
supplies its values a(pi^e) at the prime powers, its values at the primes
as one array, and its weight w_V, e^(-N/V)/N unless given (L_chi off
s = 1 takes e^(-N/V) N^-s, L(1) phi(N/V)/V, R_V E_1(N/V)).  The weight
sees N(q) alone, so the series is the rational one  sum_m a_m w_V(m),
a_m the sum of a(q) over the ideals of norm m (D. Zagier, Modular forms
whose coefficients involve zeta-functions of quadratic fields, 1977):
the walk runs over the Euler factors a_(N^e), one Python callback per
norm with a multiple in range and per higher prime power, and lists each
norm m once with a_m.  One walk serves every V: each sum is math.fsum of
a_m w_V(m) over its m <= 40 V, in blocks of one weight call.  The lambda
and chi_D series take their values at the primes from one array pass,
gaussian.euler_symbols over the walk's prime array; normalization_sum's
are a closed form, -1/N(pi), one array expression over the prime norms.
Each sum is exact over N(q) <= 40 V; the neglected tail is
exp(-40)-suppressed and the attached tail_estimate bounds it.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from . import quad_counts
from .characters import QuadraticCharacter, quadratic_character, \
    discriminant_split, _prime_value, _product_coefficient, _t_local, \
    _validated_args

CUTOFF_MULT = 40.0  # smoothed series run over N(q) <= CUTOFF_MULT * V


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass
class SmoothedValue:
    """G_V(delta), or L(1, delta) from the walk at V, with bookkeeping."""

    delta: GaussianInt
    V: float
    value: float
    tail_estimate: float


@dataclass
class LChiValue:
    value: complex
    band: float           # |last doubling step|
    v_used: float


# ---------------------------------------------------------------------------
# the smoothed-series evaluator, and smoothed L(s, chi_D)
# ---------------------------------------------------------------------------

def _require_positive(**values) -> None:
    """The one input check for V, tol, cutoffs and, in geodesics, the
    thresholds X and window lengths Y: each finite and > 0 (NaN fails)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_cutoff(**values) -> None:
    """_require_positive and at least 1, so the unit ideal is in range."""
    _require_positive(**values)
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


def _exp_weight(V, nrm):
    """e^(-N/V) / N, with math.exp on an int norm and np.exp on an array."""
    exp = np.exp if isinstance(nrm, np.ndarray) else math.exp
    return exp(-nrm / V) / nrm


def e1(x) -> np.ndarray:
    """E_1(x) = int_x^inf e^-t dt / t, elementwise on a float64 array (or a
    float) of finite x > 0, with no coefficient table: on (0, 1] the series
    -gamma - ln x - sum_{k <= 24} (-x)^k / (k k!), above 1 the continued
    fraction e^-x / (x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))) evaluated
    backward from depth 100.  Relative error <= 1e-14 on (0, 64] (1.2e-15
    measured against mpmath); about 200 ns per element on 2^14 elements."""
    x = np.asarray(x, dtype=np.float64)
    bad = ~((0 < x) & (x < math.inf))
    if bad.any():
        raise ValueError(f"e1 requires finite x > 0, got {float(x[bad].flat[0])!r}")
    out, low = np.empty_like(x), x <= 1.0
    s, h = x[low], x[~low]
    term, acc = -s, np.zeros_like(s)  # term = (-s)^k / k!
    for k in range(1, 25):
        acc += term / k
        term *= -s / (k + 1)
    out[low] = -0.5772156649015329 - np.log(s) - acc
    f = h + 201.0
    for j in range(99, -1, -1):
        f = h + (2 * j + 1) - (j + 1) ** 2 / f
    out[~low] = np.exp(-h) / f
    return out


def _phi_weight(V, nrm):
    """phi(N/V) / V, phi(x) = e^-x/x + E_1(x): e^(-N/V)/N and its dual term."""
    return _exp_weight(V, nrm) + e1(nrm / V) / V


def _sweep_limits(Vs, cutoff_mult=None) -> list:
    """The one input check of a smoothed sweep: Vs a non-empty sequence of
    positive, finite V, and cutoff_mult (CUTOFF_MULT when None, read at call
    time) positive and finite.  Returns each V's cutoff
    max(int(cutoff_mult * V), 1), so the unit ideal is always in range."""
    if len(Vs) == 0:
        raise ValueError(f"Vs must hold at least one V, got {Vs!r}")
    for V in Vs:
        _require_positive(V=V)
    mult = CUTOFF_MULT if cutoff_mult is None else cutoff_mult
    _require_positive(cutoff_mult=mult)
    return [max(int(mult * V), 1) for V in Vs]


# Entries of the coefficient list per weight call: a block's weight
# temporaries stay within about 1 MiB (20 to 66 bytes an entry under
# tracemalloc, the most for L(1)'s phi weight).
SUM_BLOCK = 1 << 14


def smoothed_sums(Vs, local, leaf=None, weight=_exp_weight) -> list:
    """[sum_q a(q) weight(V, N(q)) for V in Vs] from one walk over the norms.

    a(q) is multiplicative, with local(N(pi), (re, im), e) = a(pi^e), and
    weight(V, N), e^(-N/V) / N by default, takes a float64 array of norms.
    A weight of N(q) alone makes the series Zagier's rational one,
    sum_m a_m weight(V, m), with a_m the sum of a(q) over the ideals of
    norm m, multiplicative over rational primes.  gaussian.walk_ideals
    takes one row per norm, its first ideal, and extends by the Euler
    factor a_(N^e): a(pi^e) at (1+i) and at an inert (q), and at a split
    p the sum over a + b = e of a(pi^a) a(conj(pi)^b), once per (N, e); a
    zero factor prunes its subtree.  leaf(primes), with primes the
    gaussian.prime_ideals_upto array, gives a(pi) at every row (by default
    local(N(pi), pi, 1), one call per prime), and a prime leaf n * N takes
    their sum over the ideals of norm N.

    That sum and the e = 1 factor are one float (a sum of two values does
    not depend on their order), so the walk to the largest cutoff lists
    every norm m <= L once, with an a_m that does not depend on L.  The
    sum for V takes the m <= max(int(CUTOFF_MULT * V), 1): one weight call
    per V on each block of SUM_BLOCK entries, the terms a_m weight(V, m)
    summed exactly by math.fsum (real and imaginary parts apart).  So no
    value depends on SUM_BLOCK or on the other Vs, and each sum is
    bit-identical to the one-V call.  Vs must be a non-empty sequence.
    """
    limits = _sweep_limits(Vs)
    limit = max(limits)
    primes = g.prime_ideals_upto(limit)
    first = np.flatnonzero(np.diff(primes[:, 0], prepend=0))
    rows = primes[first]
    table = leaf(primes) if leaf is not None else \
        np.array([local(npj, (re, im), 1) for npj, re, im in primes.tolist()])
    per_norm = np.add.reduceat(table, first)
    factors = {}

    def extend(val, npj, pj, e):
        f = factors.get((npj, e))
        if f is None:
            if npj == 2 or pj[1] == 0:
                f = local(npj, pj, e)
            else:
                # the canonical conj(pi) of pi = (re, im) is (im, re)
                at = [[1] + [local(npj, p, a) for a in range(1, e + 1)] for p in (pj, pj[::-1])]
                f = sum(at[0][a] * at[1][e - a] for a in range(e + 1))
            factors[npj, e] = f
        return val * f if f else None

    visits = []
    g.walk_ideals(rows, limit, extend, lambda i, nrm, val, reach: visits.append((i, nrm, val)))
    norms, coef = _norm_coefficients(rows, per_norm, limit, visits)
    return [_fsum_upto(V, cutoff, norms, coef, weight) for V, cutoff in zip(Vs, limits)]


def _norm_coefficients(rows, per_norm, limit, visits):
    """(norms, a): every norm m <= limit that the walk reaches, once, as an
    int64 array, and a_m.  A visit (i, n, val) is the norm n itself, and
    its prime leaves are n * N_j for the rows j >= i with
    n N_j <= limit < n N_j N_(j+1), at val * per_norm[j]."""
    start, nrm, val = (np.array(column) for column in zip(*visits))
    pnorms = rows[:, 0]
    m = limit // nrm
    lo = np.maximum(start, np.searchsorted(g.leaf_pairs(rows), m, side="right"))
    n = np.maximum(np.searchsorted(pnorms, m, side="right") - lo, 0)  # leaves per visit
    j = np.repeat(lo - (np.cumsum(n) - n), n)
    j += np.arange(len(j))  # each leaf's row
    return (np.concatenate((nrm, np.repeat(nrm, n) * pnorms[j])),
            np.concatenate((val, np.repeat(val, n) * per_norm[j])))


def _fsum_upto(V, limit, norms, coef, weight):
    """math.fsum of coef[k] * weight(V, norms[k]) over the entries with
    norms[k] <= limit, one weight call per block of SUM_BLOCK entries."""
    terms = []
    for a in range(0, len(norms), SUM_BLOCK):
        own = norms[a:a + SUM_BLOCK] <= limit
        x = norms[a:a + SUM_BLOCK][own].astype(np.float64)
        terms.append(coef[a:a + SUM_BLOCK][own] * weight(V, x))
    total = math.fsum(chain.from_iterable(t.real.tolist() for t in terms))
    if not np.iscomplexobj(terms[0]):
        return total
    return complex(total, math.fsum(chain.from_iterable(t.imag.tolist() for t in terms)))


def _leaf_rows(x, first):
    """smoothed_sums leaf of a scalar series whose value is `first` at
    primes[0] = (1+i) and the quadratic residue symbol (x / pi) at every odd
    prime pi: one gaussian.euler_symbols pass."""
    return lambda primes: np.concatenate(([first], g.euler_symbols(x, primes[1:])))


def _chi_sums(character: QuadraticCharacter, Vs, weight) -> list:
    """[sum_q chi_D(q) weight(V, N(q)) for V in Vs], complex, from one
    smoothed_sums walk.  It hands the primes of the norms it extends to the
    character's cached symbol lookup, and its prime leaves take chi_D from
    one euler_symbols pass, so no prime is tested for primality here."""
    D_pair, ev, cache = character.D.pair, character.even_value, character._prime_cache
    return smoothed_sums(Vs, lambda npj, pj, e: _prime_value(D_pair, ev, cache, pj) ** e,
                         leaf=_leaf_rows(D_pair, ev), weight=weight)


def L_chi(s: complex, character: QuadraticCharacter, V: float,
          doublings: int = 3) -> LChiValue:
    """Exponentially smoothed  sum_q chi_D(q) e^(-N(q)/V) / N(q)^s.

    One _chi_sums walk evaluates all V-doublings; the coefficients are
    chi_D alone, and N(q)^(1-s) rides in the weight when s != 1.  The
    convergence band is the final doubling step.  s must be finite and
    doublings an int >= 0; with none the band is nan.
    """
    if not cmath.isfinite(complex(s)):
        raise ValueError(f"L_chi requires a finite s, got {s!r}")
    if isinstance(doublings, bool) or not isinstance(doublings, int) or doublings < 0:
        raise ValueError(f"L_chi requires an int doublings >= 0, got {doublings!r}")
    vs = [V * 2.0**j for j in range(doublings + 1)]
    w = 1.0 - complex(s)
    # the default weight at s = 1 takes no complex pow
    sums = _chi_sums(character, vs, _exp_weight if w == 0 else
                     lambda V, nrm: _exp_weight(V, nrm) * nrm ** w)
    band = abs(sums[-1] - sums[-2]) if doublings >= 1 else float("nan")
    return LChiValue(value=complex(sums[-1]), band=float(band), v_used=vs[-1])


def L1_chi_exact(character: QuadraticCharacter) -> float:
    """L(1, chi_D), exactly: _chi_sums with L1_exact's weight phi(N/V)/V at
    V = sqrt(A) / 2 pi for the conductor A = 4 N(D)."""
    value, = _chi_sums(character, (math.sqrt(character.D.norm()) / math.pi,), _phi_weight)
    return float(value.real)


# ---------------------------------------------------------------------------
# the finite factor
# ---------------------------------------------------------------------------

def T_l_poly(s: complex, D: GaussianInt, l: CanonicalIdealRep,
             character: QuadraticCharacter | None = None) -> complex:
    """The finite Dirichlet factor of a split delta ~ D l^2 at s.

    Exact Euler product over the primes pi^a || l of the local sums
    sum_{k <= 2a} t(pi^k) N(pi^k)^-s, with the integer coefficients t of
    characters._t_local; s must be finite.  chi_D is taken from `character`
    when supplied (needed if (1+i) | l), else pinned from D.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"T_l_poly requires a finite s, got {s!r}")
    if character is None:
        from .characters import pin_even_unit_values
        ev, _, _ = pin_even_unit_values(D)
        character = QuadraticCharacter(D=D, even_value=ev, validated=True)
    D_pair, ev, cache = _validated_args(character)

    def local(pi, a):
        x, npi = _prime_value(D_pair, ev, cache, pi), g.norm(pi)
        return sum(_t_local(x, npi, k) * (npi ** k) ** (-s) for k in range(2 * a + 1))

    return complex(g.multiplicative(l.pair, local))


def szmidt_product_coefficients(delta: GaussianInt, cutoff: int) -> dict:
    """Integer Dirichlet coefficients of T_l^(D) * L(., chi_D) up to cutoff,
    as {canonical pair of q: coefficient} for every ideal q of norm <= cutoff.

    Built from the pinned split/character of delta by the same Euler product
    the decode at (1+i) matches against lambda, so every coefficient is an
    integer.  cutoff must be finite and at least 1.
    """
    _require_cutoff(cutoff=cutoff)
    l_pair = discriminant_split(delta).l.pair
    D_pair, ev, cache = _validated_args(quadratic_character(delta))
    return {qp: _product_coefficient(D_pair, ev, cache, l_pair, qp)
            for qp in g.ideal_reps_upto(cutoff)}


def szmidt_coefficient_check(delta: GaussianInt, Qmax: int) -> int:
    """max |lambda_q(delta) - [T_l * L]_q| over ideals N(q) <= Qmax (must be 0).

    The left side is the package's one Mobius convolution of rho,
    quad_counts.lambda_table, run once over every ideal up to Qmax with the
    x-enumeration rho; the right side is the Euler product of the finite
    factor times chi_D.  They share no code.  1 <= Qmax <= 1e4, finite.
    """
    _require_cutoff(Qmax=Qmax)
    if Qmax > 10**4:
        raise ValueError("Qmax capped at 1e4")
    product = szmidt_product_coefficients(delta, Qmax)
    # keyed by ideal_reps_upto(Qmax): sorted by (norm, re), closed under divisors
    lam = quad_counts.lambda_table(list(product), delta, method="bruteforce")
    return max(abs(lam[qp] - want) for qp, want in product.items())


# ---------------------------------------------------------------------------
# smoothed values of the form L-function
# ---------------------------------------------------------------------------

def _tail_estimate(V: float) -> float:
    """Crude bound for the neglected N(q) > 40V tail of the s=1 series.

    |lambda_q| <= d(q) sqrt(N(q)) and sum_m m^(1/2+eps) e^(-m/V)/m over
    m > 40V is below sqrt(V) e^(-40) up to a small constant.
    """
    return 2.0 * math.sqrt(max(V, 1.0)) * math.exp(-CUTOFF_MULT)


def _zagier_sums(delta: GaussianInt, n: GaussianInt | None, Vs, weight=_exp_weight) -> list:
    """[sum_q lambda_q(delta) weight(V, N(q)) for V in Vs] from one
    smoothed_sums walk, G_V by default; n^2 - 4 = delta."""
    from .characters import is_perfect_square
    if is_perfect_square(delta):
        raise ValueError(f"delta = {delta} is a perfect square")
    if n is None:
        n = quad_counts.sqrt_perfect_square(delta + GaussianInt(4, 0))

    def local(npj, pj, e):
        return quad_counts.lambda_at_prime_power(pj, e, delta, n)

    # at an odd pi, lambda_pi(delta) is the symbol (delta / pi)
    return smoothed_sums(Vs, local, leaf=_leaf_rows(delta.pair, local(2, (1, 1), 1)),
                         weight=weight)


def zagier_L1(delta: GaussianInt, V: float,
              n: GaussianInt | None = None) -> SmoothedValue:
    """G_V(delta) = sum over ideals of lambda_q(delta) e^(-N(q)/V) / N(q).

    delta must be a discriminant of trace form (n^2 - 4, not a perfect
    square); prime-power lambda values come from
    quad_counts.lambda_at_prime_power, except at the odd prime leaves, where
    lambda_pi(delta) = (delta / pi) comes from one euler_symbols pass.  Exact
    finite sum over N(q) <= 40V.
    """
    value, = _zagier_sums(delta, n, (V,))
    return SmoothedValue(delta=delta, V=float(V), value=value,
                         tail_estimate=_tail_estimate(V))


def L1_exact(delta: GaussianInt, n: GaussianInt | None = None) -> SmoothedValue:
    """L(1, delta) = sum_q lambda_q(delta) / N(q), exactly: zagier_L1's walk
    with the weight phi(N/V)/V at V = sqrt(A) / 2 pi, A = 4 N(delta).  Since
    phi(x)/V <= 2 e^-x/N, the tail is at most twice G_V's."""
    V = math.sqrt(delta.norm()) / math.pi
    value, = _zagier_sums(delta, n, (V,), _phi_weight)
    return SmoothedValue(delta=delta, V=V, value=float(value),
                         tail_estimate=2.0 * _tail_estimate(V))


def normalization_sum(V: float) -> float:
    """sum_q e^(-N(q)/V)/N(q) * sum_{q1^2 q2 = q} mu(q2)/N(q2)  (ideals).

    Exact finite evaluation over N(q) <= 40V; tends to 1 like V^(-1/2).
    """
    if V < 1:
        raise ValueError("V must be >= 1")
    mu = quad_counts.mu_square_local
    return smoothed_sums((V,), lambda npj, pj, e: mu(npj, e),
                         leaf=lambda primes: mu(primes[:, 0].astype(np.float64), 1))[0]


# ---------------------------------------------------------------------------
# the smoothing remainder
# ---------------------------------------------------------------------------

@dataclass
class RVEstimate:
    """The signed remainder G_V - L(1, delta) plus reported bound formulas."""

    delta: GaussianInt
    V: float
    remainder: float
    sigma_bound: float      # N(M) Q^(10(1-sigma)/(3-sigma)) + Card V^(sigma-1), single delta
    subconvex_bound: float  # V^(-1/2) Q^theta shape at sigma = 1/2
    theta: float


def _dual_remainder(delta: GaussianInt, V: float) -> float:
    """G_V(delta) - L(1, delta) as the dual sum
    -(2 pi / sqrt(A)) sum_q lambda_q(delta) E_1(N(q) / W), A = 4 N(delta),
    W = A / (4 pi^2 V): one walk to 40 W, which shrinks as V grows and
    outgrows L1_exact's walk to 40 V0, V0 = sqrt(A) / 2 pi, below V0."""
    A = 4.0 * delta.norm()
    dual, = _zagier_sums(delta, None, (A / (4.0 * math.pi**2 * V),), lambda W, nrm: e1(nrm / W))
    return -2.0 * math.pi / math.sqrt(A) * float(dual)


def R_V_estimate(delta: GaussianInt, V: float, sigma: float = 0.5,
                 theta: float = 1.0 / 6.0) -> RVEstimate:
    """R_V(delta) = G_V(delta) - L(1, delta), exactly: from V0 = sqrt(A) / 2 pi
    (A = 4 N(delta), L1_exact's V) on the dual sum of _dual_remainder,
    below it zagier_L1 minus L1_exact, so that no walk runs beyond 40 V0.
    The sigma-parameterized and subconvex bound shapes are evaluated for
    reporting alongside; they are bounds on sums over families, so for a
    single delta both Card and the tower count are 1.
    """
    _require_positive(V=V)
    if not 0.5 <= sigma < 1.0:
        raise ValueError("sigma must lie in [1/2, 1)")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if V < math.sqrt(delta.norm()) / math.pi:
        remainder = zagier_L1(delta, V).value - L1_exact(delta).value
    else:
        remainder = _dual_remainder(delta, V)
    Q = 2.0 + float(delta.norm())
    sigma_bound = Q ** (10.0 * (1.0 - sigma) / (3.0 - sigma)) + V ** (sigma - 1.0)
    subconvex_bound = V ** (-0.5) * Q ** theta
    return RVEstimate(delta=delta, V=float(V), remainder=remainder, sigma_bound=float(sigma_bound),
                      subconvex_bound=float(subconvex_bound), theta=theta)
