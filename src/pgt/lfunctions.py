"""Dirichlet series over Q(i) and the factorization of the form L-function.

Everything here uses the ideal convention: a series  sum_q a_q / N(q)^s
runs over nonzero ideals q, i.e. over canonical first-quadrant generators.
(The element convention would multiply every sum by 4; the geodesics module
owns that conversion in its single global constant.)

Objects:

  smoothed_sums     the one evaluator of the smoothed series below.
  zeta_qi(s)        Dedekind zeta of Q(i), partial ideal sum + tail bound.
  L_chi(s, chi, V)  exponentially smoothed L(s, chi_D), with a convergence
                    band from doubling V.
  T_l_poly(s, ...)  the finite factor attached to a split delta ~ D l^2,
                    an Euler product over the primes pi^a || l:

      T(s) = prod_pi sum_{k <= 2a} t(pi^k) N(pi)^(-ks),
      t(pi^k) = N(pi)^(k/2) (k even),  -chi_D(pi) N(pi)^((k-1)/2) (k odd).

                    This is the convention under which the product T * L
                    reproduces the integer coefficients lambda_q(delta)
                    exactly -- the szmidt_coefficient_check oracle below
                    enforces it, and it is what pins the character
                    normalization.
  szmidt_product_coefficients
                    the integer coefficients of T_l * L(chi_D), as a plain
                    {ideal pair: int} dict; at pi^e || q the local factor is
                    sum_{k <= e} t(pi^k) chi_D(pi)^(e-k), from the same
                    characters._product_coefficient the pinning matches.
  szmidt_coefficient_check
                    max |lambda_q(delta) - [T_l * L]_q| over small ideals,
                    against quad_counts.lambda_ on the brute-force rho.
  zagier_L1         G_V(delta) = sum_q lambda_q(delta) e^(-N(q)/V) / N(q),
                    the smoothed value of the form L-function at s = 1.
  normalization_sum the mu-square-weighted smoothed sum that tends to 1.
  R_V_estimate      empirical proxy for the smoothing remainder.

Every smoothed series  sum_q a(q) e^(-N(q)/V) / N(q)  of the package --
G_V here and in trace_engine, L_chi, normalization_sum -- is evaluated by
one function, smoothed_sums, the only caller of gaussian.walk_ideals: a
series supplies only how a(q) extends by a prime power, and one walk in
factored form serves every V.  The walk makes one Python callback per
ideal with a multiple in range and per higher prime power; the prime
leaves q * pi below each such ideal q are summed in one numpy step.
zagier_L1 (with R_V_estimate and choose_V) and L_chi take their values
at the prime leaves from one array pass, gaussian.euler_symbols over the
walk's prime list, so only the visited ideals make callbacks;
normalization_sum's prime values are a closed form, filled in by one
extend call per prime.  Each sum is exact over N(q) <= 40 V; the
neglected tail is exp(-40)-suppressed and the attached tail_estimate
bounds it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from . import quad_counts
from .harness import fit_exponent
from .characters import QuadraticCharacter, quadratic_character, \
    discriminant_split, _prime_value, _product_coefficient, _t_local, \
    _validated_args

CUTOFF_MULT = 40.0  # smoothed series run over N(q) <= CUTOFF_MULT * V


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass
class SmoothedValue:
    """An exponentially smoothed series value G_V(delta) with bookkeeping."""

    delta: GaussianInt
    V: float
    value: float
    tail_estimate: float


@dataclass
class ZetaPartialSum:
    value: complex
    tail_bound: float
    cutoff: int


@dataclass
class LChiValue:
    value: complex
    band: float           # |last doubling step|
    converged: bool
    v_used: float


# ---------------------------------------------------------------------------
# zeta of Q(i)
# ---------------------------------------------------------------------------

def ideal_norm_counts(limit: int) -> np.ndarray:
    """A[m] = number of ideals of norm exactly m, for m <= limit."""
    counts = np.zeros(limit + 1, dtype=np.int64)
    for b, a in g.disk_rows(0, limit):
        if b >= 0:
            a = a[a > 0]
            np.add.at(counts, a * a + b * b, 1)
    return counts


def zeta_qi(s: complex, cutoff: int = 10**6) -> ZetaPartialSum:
    """Partial sum of the Dedekind zeta of Q(i) over ideals of norm <= cutoff.

    Requires a finite s with Re(s) >= 1.2 and an int cutoff >= 1.  The
    attached tail bound is the integral comparison
    sum_{N>K} N^-sigma <= sigma/(sigma-1) * K^(1-sigma), using #ideals(t) <= t.
    """
    s = complex(s)
    if not (cmath.isfinite(s) and s.real >= 1.2):
        raise ValueError(f"zeta_qi requires a finite s with Re(s) >= 1.2, got {s!r}")
    if isinstance(cutoff, bool) or not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError(f"zeta_qi requires an int cutoff >= 1, got {cutoff!r}")
    sigma = s.real
    counts = ideal_norm_counts(cutoff)
    m = np.nonzero(counts)[0]
    terms = counts[m] * np.exp(-s * np.log(m.astype(np.float64)))
    value = complex(np.sum(terms))
    tail = sigma / (sigma - 1.0) * cutoff ** (1.0 - sigma)
    return ZetaPartialSum(value=value, tail_bound=float(tail), cutoff=cutoff)


# ---------------------------------------------------------------------------
# the smoothed-series evaluator, and smoothed L(s, chi_D)
# ---------------------------------------------------------------------------

def _require_positive(**values) -> None:
    """The one input check for smoothing lengths V and, in geodesics, the
    thresholds X and window lengths Y: each finite and > 0 (NaN fails)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _row_sum(w, rows):
    """sum_j w[j] * rows[j] along the first axis.

    einsum sums each column of a two-dimensional `rows` in the order of j,
    so one column's sum does not depend on the others; numpy reduces a
    single column as one contiguous vector, in another order, so that column
    is summed as the first of two equal ones.
    """
    if rows.ndim == 2 and rows.shape[1] == 1:
        return np.einsum("j,jm->m", w, np.repeat(rows, 2, axis=1))[:1]
    return np.einsum("j,j...->...", w, rows)


def smoothed_sums(Vs, extend, root=1.0, cutoff_mult=None, rows=None) -> list:
    """[sum_q a(q) e^(-N(q)/V) / N(q) for V in Vs] from one ideal walk.

    a(q) is multiplicative, built by `extend` from `root` at the unit ideal
    as in gaussian.walk_ideals (a scalar, or a numpy vector of several
    series).  The walk visits only the ideals with a multiple in range and
    the prime powers pi^e, e >= 2; at each visited q it adds the prime
    leaves q * pi_j in one step,

        val_q * sum_j a(pi_j) e^(-N(q) N(pi_j)/V) / (N(q) N(pi_j)),

    over the contiguous range of primes that are leaves for V's own cutoff.
    rows(primes, lo, hi) gives a(pi_j) for primes[lo:hi] along the first
    axis, as consecutive pieces; by default one piece of a table filled by
    extend(1.0, N(pi), pi, 1), once per prime, and for the symbol series
    one piece of a _leaf_rows table.

    One walk to the largest cutoff serves every V; the sum for V takes the
    ideals of norm <= max(int(cutoff_mult * V), 1), visited and added in the
    same order, with the same products, as a walk to that cutoff alone, so
    each sum is bit-identical to the one-V call.  cutoff_mult defaults to
    CUTOFF_MULT, read at call time.
    """
    for V in Vs:
        _require_positive(V=V)
    mult = CUTOFF_MULT if cutoff_mult is None else cutoff_mult
    _require_positive(cutoff_mult=mult)
    limits = [max(int(mult * V), 1) for V in Vs]
    primes = g.prime_ideals_upto(max(limits))
    norms = np.array([npj for npj, _ in primes], dtype=np.float64)
    if rows is None:
        table = np.array([0.0 if a is None else a
                          for a in (extend(1.0, npj, pj, 1) for npj, pj in primes)])

        def rows(primes, lo, hi):
            return [table[lo:hi]]

    sums = [root * 0.0 for _ in Vs]

    def term(k, nrm, val):
        sums[k] += val * (math.exp(-nrm / Vs[k]) / nrm)

    def leaves(k, nrm, val, lo, hi):
        nn = nrm * norms[lo:hi]
        w = np.exp(-nn / Vs[k]) / nn
        total, at = 0.0, 0
        for piece in rows(primes, lo, hi):
            total = total + _row_sum(w[at:at + len(piece)], piece)
            at += len(piece)
        sums[k] += val * total

    g.walk_ideals(primes, limits, extend, term, leaves, root=root)
    return sums


def _leaf_rows(x, leaf_table):
    """smoothed_sums rows for a series whose value at an odd prime pi follows
    from the quadratic residue symbol (x / pi).

    leaf_table(symbols, primes) gives the values at the walk's whole prime
    list, where symbols holds (x / pi) at primes[1:] from one
    gaussian.euler_symbols pass (primes[0] is (1+i), the prime of norm 2).
    The table is built at the first call, after smoothed_sums has checked
    its arguments, and only if the walk has prime leaves.
    """
    table = None

    def rows(primes, lo, hi):
        nonlocal table
        if table is None:
            table = leaf_table(g.euler_symbols(x, primes[1:]), primes)
        return [table[lo:hi]]

    return rows


def L_chi(s: complex, character: QuadraticCharacter, V: float,
          tol: float = 1e-4, doublings: int = 3) -> LChiValue:
    """Exponentially smoothed  sum_q chi_D(q) e^(-N(q)/V) / N(q)^s.

    One smoothed_sums walk evaluates all V-doublings; N(q)^(1-s) is
    completely multiplicative, so it rides in the coefficients.  The
    convergence band is the final doubling step.  A band above tol sets
    converged=False (flag, not an exception).  The walk hands the primes
    it extends straight to the character's cached symbol lookup, and its
    prime leaves take chi_D from one euler_symbols pass, times N(pi)^(1-s)
    when s != 1; so no prime is tested for primality here.  s must be
    finite, and doublings is an int >= 0; with none the band is nan.
    """
    if not cmath.isfinite(complex(s)):
        raise ValueError(f"L_chi requires a finite s, got {s!r}")
    if isinstance(doublings, bool) or not isinstance(doublings, int) or doublings < 0:
        raise ValueError(f"L_chi requires an int doublings >= 0, got {doublings!r}")
    vs = [V * 2.0**j for j in range(doublings + 1)]
    w = 1.0 - complex(s)
    D_pair, ev, cache = character.D.pair, character.even_value, character._prime_cache

    def extend(val, npj, pj, e):
        v = _prime_value(D_pair, ev, cache, pj)
        return val * v ** (e % 2) * npj ** (e * w) if v else None

    def leaf_table(symbols, primes):
        if w == 0:  # s = 1: N(pi)^0 is 1+0j for every pi
            return np.concatenate(([complex(ev)], symbols))
        return np.array([1.0 * v * npj ** w if v else 0.0
                         for v, (npj, _) in zip([ev, *symbols.tolist()], primes)])

    sums = smoothed_sums(vs, extend, rows=_leaf_rows(D_pair, leaf_table))
    band = abs(sums[-1] - sums[-2]) if doublings >= 1 else float("nan")
    return LChiValue(value=complex(sums[-1]), band=float(band),
                     converged=bool(band <= tol), v_used=vs[-1])


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
    the pinning oracle matches against lambda, so every coefficient is an
    integer.
    """
    l_pair = discriminant_split(delta).l.pair
    D_pair, ev, cache = _validated_args(quadratic_character(delta))
    return {qp: _product_coefficient(D_pair, ev, cache, l_pair, qp)
            for qp in g.ideal_reps_upto(cutoff)}


def szmidt_coefficient_check(delta: GaussianInt, Qmax: int) -> int:
    """max |lambda_q(delta) - [T_l * L]_q| over ideals N(q) <= Qmax (must be 0).

    The left side is quad_counts.lambda_ with the brute-force x-enumeration
    rho (each rho computed once per (q3, delta)); the right side is the
    Euler product of the finite factor times chi_D.  The two sides share no
    code path.
    """
    if Qmax > 10**4:
        raise ValueError("Qmax capped at 1e4")
    product = szmidt_product_coefficients(delta, Qmax)
    worst = 0
    for qp, want in product.items():
        lam = quad_counts.lambda_(CanonicalIdealRep(GaussianInt.from_pair(qp)), delta,
                                  method="bruteforce")
        worst = max(worst, abs(lam - want))
    return worst


# ---------------------------------------------------------------------------
# smoothed values of the form L-function
# ---------------------------------------------------------------------------

def _tail_estimate(V: float) -> float:
    """Crude bound for the neglected N(q) > 40V tail of the s=1 series.

    |lambda_q| <= d(q) sqrt(N(q)) and sum_m m^(1/2+eps) e^(-m/V)/m over
    m > 40V is below sqrt(V) e^(-40) up to a small constant.
    """
    return 2.0 * math.sqrt(max(V, 1.0)) * math.exp(-CUTOFF_MULT)


def _zagier_sums(delta: GaussianInt, n: GaussianInt | None, Vs) -> list:
    """[G_V(delta) for V in Vs] from one smoothed_sums walk; n^2 - 4 = delta."""
    from .characters import is_perfect_square
    if is_perfect_square(delta):
        raise ValueError(f"delta = {delta} is a perfect square")
    if n is None:
        n = quad_counts.sqrt_perfect_square(delta + GaussianInt(4, 0))
    memo: dict = {}

    def extend(val, npj, pj, e):
        key = (pj, e)
        v = memo.get(key)
        if v is None:
            v = quad_counts.lambda_at_prime_power(pj, e, delta, n)
            memo[key] = v
        return val * v if v else None

    def leaf_table(symbols, primes):
        # at an odd pi, lambda_pi(delta) is the symbol (delta / pi)
        return np.concatenate(([extend(1.0, 2, (1, 1), 1) or 0.0], symbols))

    return smoothed_sums(Vs, extend, rows=_leaf_rows(delta.pair, leaf_table))


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


def normalization_sum(V: float) -> float:
    """sum_q e^(-N(q)/V)/N(q) * sum_{q1^2 q2 = q} mu(q2)/N(q2)  (ideals).

    Exact finite evaluation over N(q) <= 40V; tends to 1 like V^(-1/2).
    """
    if V < 1:
        raise ValueError("V must be >= 1")
    return smoothed_sums((V,), lambda val, npj, pj, e:
                         val * quad_counts.mu_square_local(npj, e))[0]


# ---------------------------------------------------------------------------
# remainder estimation
# ---------------------------------------------------------------------------

@dataclass
class RVEstimate:
    """Empirical remainder proxy |G_V - G_8V| plus reported bound formulas."""

    delta: GaussianInt
    V: float
    proxy: float
    extrapolated: bool
    sigma_bound: float      # N(M) Q^(10(1-sigma)/(3-sigma)) + Card V^(sigma-1), single delta
    subconvex_bound: float  # V^(-1/2) Q^theta shape at sigma = 1/2
    theta: float


_RV_EXACT_LIMIT = 4 * 10**6  # largest 40*8V handled by direct summation


def R_V_estimate(delta: GaussianInt, V: float, sigma: float = 0.5,
                 theta: float = 1.0 / 6.0) -> RVEstimate:
    """Estimate |R_V(delta)| = |G_V(delta) - L(1, delta)| empirically.

    The proxy is |G_V - G_{8V}|; when 40*8V exceeds the direct-summation
    budget the proxy is extrapolated from a doubling ladder inside the
    budget (log-log fit, decay exponent clamped to [0.3, 1.5]).  One walk
    gives the ladder and the 8V partner of each of its points.  The
    sigma-parameterized and subconvex bound shapes are evaluated for
    reporting alongside; they are bounds on sums over families, so for a
    single delta both Card and the tower count are 1.
    """
    _require_positive(V=V)
    if not 0.5 <= sigma < 1.0:
        raise ValueError("sigma must lie in [1/2, 1)")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    ladder = [V]
    if CUTOFF_MULT * 8.0 * V > _RV_EXACT_LIMIT:
        vmax = _RV_EXACT_LIMIT / (CUTOFF_MULT * 8.0)
        ladder = [vmax / 4.0, vmax / 2.0, vmax]
    sums = _zagier_sums(delta, None, ladder + [8.0 * v for v in ladder])
    proxies = [abs(a - b) for a, b in zip(sums, sums[len(ladder):])]
    extrapolated = len(ladder) > 1
    if extrapolated:
        fit = fit_exponent((v, max(p, 1e-300)) for v, p in zip(ladder, proxies))
        gamma = min(max(-fit.slope, 0.3), 1.5)
        lx, ly = np.log(fit.samples).T
        c = math.exp(float(np.mean(ly + gamma * lx)))
        proxy = c * V ** (-gamma)
    else:
        proxy = proxies[0]
    Q = 2.0 + float(delta.norm())
    sigma_bound = Q ** (10.0 * (1.0 - sigma) / (3.0 - sigma)) + V ** (sigma - 1.0)
    subconvex_bound = V ** (-0.5) * Q ** theta
    return RVEstimate(delta=delta, V=float(V), proxy=float(proxy),
                      extrapolated=extrapolated, sigma_bound=float(sigma_bound),
                      subconvex_bound=float(subconvex_bound), theta=theta)


def choose_V(delta: GaussianInt, tol: float = 1e-3, start: float | None = None,
             max_doublings: int = 8) -> float:
    """Default V policy: V = max(1e3, N(delta)^(2/3)), doubled until the
    remainder proxy drops below tol."""
    V = start if start is not None else max(1e3, float(delta.norm()) ** (2.0 / 3.0))
    for _ in range(max_doublings):
        est = R_V_estimate(delta, V)
        if est.proxy <= tol:
            break
        V *= 2.0
    return V
