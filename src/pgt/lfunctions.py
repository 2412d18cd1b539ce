"""Dirichlet series over Q(i) and the factorization of the form L-function.

Everything here uses the ideal convention: a series  sum_q a_q / N(q)^s
runs over nonzero ideals q, i.e. over canonical first-quadrant generators.
(The element convention would multiply every sum by 4; the geodesics module
owns that conversion in its single global constant.)

Objects:

  zeta_qi(s)        Dedekind zeta of Q(i), partial ideal sum + tail bound.
  L_chi(s, chi, V)  exponentially smoothed L(s, chi_D), with a convergence
                    band from doubling V.
  T_l_poly(s, ...)  the finite factor attached to a split delta ~ D l^2:

      T(s) = sum_{d | l} chi_D(d) mu(d) N(d)^-s  *  sum_{e | l/d} N(e)^(1-2s).

                    The inner divisor e carries weight N(e) at the ideal e^2
                    (coefficient exponent 1 - 2s).  This is the convention
                    under which the product T * L reproduces the integer
                    coefficients lambda_q(delta) exactly -- the
                    szmidt_coefficient_check oracle below enforces it, and
                    it is what pins the character normalization.  T and the
                    product coefficients come from the integer coefficient
                    builders in characters, the ones the pinning matches.
  zagier_L1         G_V(delta) = sum_q lambda_q(delta) e^(-N(q)/V) / N(q),
                    the smoothed value of the form L-function at s = 1.
  normalization_sum the mu-square-weighted smoothed sum that tends to 1.
  R_V_estimate      empirical proxy for the smoothing remainder.

The smoothed series are exact finite sums over N(q) <= 40 V, walked in
factored form by gaussian.walk_ideals (one Python callback per prime power
and per ideal); the neglected tail is exp(-40)-suppressed and the attached
tail_estimate bounds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from .gaussian import CanonicalIdealRep, GaussianInt
from . import quad_counts
from .harness import fit_exponent
from .characters import QuadraticCharacter, quadratic_character, \
    discriminant_split, _product_coefficient, _t_coefficients, _validated_args

CUTOFF_MULT = 40.0  # smoothed series run over N(q) <= CUTOFF_MULT * V


# ---------------------------------------------------------------------------
# coefficient containers
# ---------------------------------------------------------------------------

@dataclass
class DirichletCoefficients:
    """Coefficients of a Dirichlet series over ideals, complete up to cutoff."""

    description: str
    cutoff: int
    entries: dict  # CanonicalIdealRep -> coefficient

    def coefficient(self, q: CanonicalIdealRep):
        return self.entries.get(q, 0)

    def spot_check_multiplicative(self, pairs) -> bool:
        """Check a(q1 q2) = a(q1) a(q2) on given coprime canonical pairs."""
        for a, b in pairs:
            if g.norm(g.gcd_pair(a, b)) != 1:
                continue
            prod = g.canonical_pair(g.mul(a, b))
            if g.norm(prod) > self.cutoff:
                continue
            ra = self.entries[CanonicalIdealRep(GaussianInt.from_pair(a))]
            rb = self.entries[CanonicalIdealRep(GaussianInt.from_pair(b))]
            rp = self.entries[CanonicalIdealRep(GaussianInt.from_pair(prod))]
            if abs(ra * rb - rp) > 1e-9:
                return False
        return True


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

    Requires Re(s) >= 1.2.  The attached tail bound is the integral
    comparison  sum_{N>K} N^-sigma <= sigma/(sigma-1) * K^(1-sigma),
    using #ideals(t) <= t.
    """
    sigma = complex(s).real
    if sigma < 1.2:
        raise ValueError("zeta_qi requires Re(s) >= 1.2")
    counts = ideal_norm_counts(cutoff)
    m = np.nonzero(counts)[0]
    terms = counts[m] * np.exp(-complex(s) * np.log(m.astype(np.float64)))
    value = complex(np.sum(terms))
    tail = sigma / (sigma - 1.0) * cutoff ** (1.0 - sigma)
    return ZetaPartialSum(value=value, tail_bound=float(tail), cutoff=cutoff)


# ---------------------------------------------------------------------------
# smoothed L(s, chi_D)
# ---------------------------------------------------------------------------

def L_chi(s: complex, character: QuadraticCharacter, V: float,
          tol: float = 1e-4, doublings: int = 3) -> LChiValue:
    """Exponentially smoothed  sum_q chi_D(q) e^(-N(q)/V) / N(q)^s.

    One factored sweep at the largest cutoff evaluates all V-doublings
    simultaneously; the convergence band is the final doubling step.  A band
    above tol sets converged=False (flag, not an exception).
    """
    if V <= 0:
        raise ValueError("V must be positive")
    vs = [V * 2.0**j for j in range(doublings + 1)]
    limit = int(CUTOFF_MULT * vs[-1])
    s = complex(s)
    sums = [0.0 + 0.0j for _ in vs]

    def extend(val, npj, pj, e):
        v = character.value_at_prime(CanonicalIdealRep(GaussianInt.from_pair(pj)))
        return val * v ** (e % 2) if v else None

    def term(nrm, val):
        base = val * nrm ** (-s)
        for k, vv in enumerate(vs):
            if nrm <= CUTOFF_MULT * vv:
                sums[k] += base * math.exp(-nrm / vv)

    g.walk_ideals(limit, extend, term)
    band = abs(sums[-1] - sums[-2]) if doublings >= 1 else float("nan")
    return LChiValue(value=sums[-1], band=float(band),
                     converged=bool(band <= tol), v_used=vs[-1])


# ---------------------------------------------------------------------------
# the finite factor
# ---------------------------------------------------------------------------

def T_l_poly(s: complex, D: GaussianInt, l: CanonicalIdealRep,
             character: QuadraticCharacter | None = None) -> complex:
    """The finite Dirichlet factor of a split delta ~ D l^2 at s.

    Exact finite sum  sum_f t_f N(f)^-s  over the integer coefficients
    t_f = chi_D(d) mu(d) N(e) at the ideals f = d e^2 (d | l squarefree,
    e | l/d); each f comes from a single (d, e).  chi_D is taken from
    `character` when supplied (needed if (1+i) | l), else pinned from D.
    """
    if character is None:
        from .characters import pin_even_unit_values
        ev, _, _ = pin_even_unit_values(D)
        character = QuadraticCharacter(D=D, even_value=ev, validated=True)
    D_pair, ev, cache = _validated_args(character)
    s = complex(s)
    tcoeffs = _t_coefficients(D_pair, ev, l.pair, cache)
    return complex(sum(w * g.norm(f) ** (-s) for f, w in tcoeffs.items()))


def szmidt_product_coefficients(delta: GaussianInt, cutoff: int) -> DirichletCoefficients:
    """Integer Dirichlet coefficients of T_l^(D) * L(., chi_D) up to cutoff.

    Built from the pinned split/character of delta by the same coefficient
    builders the pinning oracle matches against lambda; every coefficient is
    an integer: t-coefficients sit at ideals d e^2 with weight chi mu(d) N(e).
    """
    split = discriminant_split(delta)
    char = quadratic_character(delta)
    D_pair, ev, cache = _validated_args(char)
    tcoeffs = _t_coefficients(D_pair, ev, split.l.pair, cache)
    entries = {
        CanonicalIdealRep(GaussianInt.from_pair(qp)):
            _product_coefficient(tcoeffs, D_pair, ev, cache, qp)
        for qp in g.ideal_reps_upto(cutoff)}
    return DirichletCoefficients(
        description=f"T_l * L(chi_D) for delta = {delta}", cutoff=cutoff,
        entries=entries)


def szmidt_coefficient_check(delta: GaussianInt, Qmax: int) -> int:
    """max |lambda_q(delta) - [T_l * L]_q| over ideals N(q) <= Qmax (must be 0).

    The left side is the brute-force Mobius convolution of the x-enumeration
    rho; the right side is the divisor convolution of chi_D with the finite
    factor.  The two sides share no code path.
    """
    if Qmax > 10**4:
        raise ValueError("Qmax capped at 1e4")
    product = szmidt_product_coefficients(delta, Qmax)
    rho_memo: dict = {}

    def rho_brute(q3_pair):
        if q3_pair not in rho_memo:
            rho_memo[q3_pair] = quad_counts.rho_bruteforce(
                CanonicalIdealRep(GaussianInt.from_pair(q3_pair)), delta)
        return rho_memo[q3_pair]

    worst = 0
    for qp in g.ideal_reps_upto(Qmax):
        lam = 0
        for q1 in g.divisor_pairs(qp):
            q1sq = g.canonical_pair(g.mul(q1, q1))
            if not g.divides(q1sq, qp):
                continue
            rest = g.canonical_pair(g.exact_div(qp, q1sq))
            for q2 in g.divisor_pairs(rest):
                mu = g.mobius(CanonicalIdealRep(GaussianInt.from_pair(q2)))
                if mu == 0:
                    continue
                lam += mu * rho_brute(g.canonical_pair(g.exact_div(rest, q2)))
        want = product.entries[CanonicalIdealRep(GaussianInt.from_pair(qp))]
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


def zagier_L1(delta: GaussianInt, V: float,
              n: GaussianInt | None = None) -> SmoothedValue:
    """G_V(delta) = sum over ideals of lambda_q(delta) e^(-N(q)/V) / N(q).

    delta must be a discriminant of trace form (n^2 - 4, not a perfect
    square); prime-power lambda values come from
    quad_counts.lambda_at_prime_power.  Exact finite sum over N(q) <= 40V.
    """
    from .characters import is_perfect_square
    if is_perfect_square(delta):
        raise ValueError(f"delta = {delta} is a perfect square")
    if n is None:
        n = quad_counts.sqrt_perfect_square(delta + GaussianInt(4, 0))
    if V <= 0:
        raise ValueError("V must be positive")
    limit = int(CUTOFF_MULT * V)
    memo: dict = {}

    def extend(val, npj, pj, e):
        key = (pj, e)
        v = memo.get(key)
        if v is None:
            v = quad_counts.lambda_at_prime_power(pj, e, delta, n)
            memo[key] = v
        return val * v if v else None

    acc = [0.0]

    def term(nrm, val):
        acc[0] += val * math.exp(-nrm / V) / nrm

    g.walk_ideals(limit, extend, term)
    return SmoothedValue(delta=delta, V=float(V), value=acc[0],
                         tail_estimate=_tail_estimate(V))


def normalization_sum(V: float) -> float:
    """sum_q e^(-N(q)/V)/N(q) * sum_{q1^2 q2 = q} mu(q2)/N(q2)  (ideals).

    Exact finite evaluation over N(q) <= 40V; tends to 1 like V^(-1/2).
    """
    if V < 1:
        raise ValueError("V must be >= 1")
    limit = max(int(CUTOFF_MULT * V), 2)

    def extend(val, npj, pj, e):
        return val * (1.0 if e % 2 == 0 else -1.0 / npj)

    acc = [0.0]

    def term(nrm, val):
        acc[0] += val * math.exp(-nrm / V) / nrm

    g.walk_ideals(limit, extend, term)
    return acc[0]


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
    sigma_contour: float
    theta: float


_RV_EXACT_LIMIT = 4 * 10**6  # largest 40*8V handled by direct summation


def R_V_estimate(delta: GaussianInt, V: float, sigma: float = 0.5,
                 theta: float = 1.0 / 6.0) -> RVEstimate:
    """Estimate |R_V(delta)| = |G_V(delta) - L(1, delta)| empirically.

    The proxy is |G_V - G_{8V}|; when 40*8V exceeds the direct-summation
    budget the proxy is extrapolated from a doubling ladder inside the
    budget (log-log fit, decay exponent clamped to [0.3, 1.5]).  The
    sigma-parameterized and subconvex bound shapes are evaluated for
    reporting alongside; they are bounds on sums over families, so for a
    single delta both Card and the tower count are 1.
    """
    if not 0.5 <= sigma < 1.0:
        raise ValueError("sigma must lie in [1/2, 1)")
    Q = 2.0 + float(delta.norm())
    sigma_bound = Q ** (10.0 * (1.0 - sigma) / (3.0 - sigma)) + V ** (sigma - 1.0)
    subconvex_bound = V ** (-0.5) * Q ** theta

    def proxy_at(v):
        return abs(zagier_L1(delta, v).value - zagier_L1(delta, 8.0 * v).value)

    if CUTOFF_MULT * 8.0 * V <= _RV_EXACT_LIMIT:
        proxy = proxy_at(V)
        extrapolated = False
    else:
        vmax = _RV_EXACT_LIMIT / (CUTOFF_MULT * 8.0)
        ladder = [vmax / 4.0, vmax / 2.0, vmax]
        fit = fit_exponent((v, max(proxy_at(v), 1e-300)) for v in ladder)
        gamma = min(max(-fit.slope, 0.3), 1.5)
        lx, ly = np.log(fit.samples).T
        c = math.exp(float(np.mean(ly + gamma * lx)))
        proxy = c * V ** (-gamma)
        extrapolated = True
    return RVEstimate(delta=delta, V=float(V), proxy=float(proxy),
                      extrapolated=extrapolated, sigma_bound=float(sigma_bound),
                      subconvex_bound=float(subconvex_bound),
                      sigma_contour=sigma, theta=theta)


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
