"""The acceptance gate: every criterion as an executable check.

Each criterion function returns a CriterionResult with one pass/fail flag,
per-clause detail lines, and its runtime.  `run_all` prints one line per
criterion and is what both `pgt verify` and tests/test_acceptance.py call.

Two clauses fail honestly on correct data (they are asserted as stated and
reported red rather than weakened):

  * criterion 5, the special q = (1) fitted-exponent gate 0.36: the
    three-point log-log fit over Z in {1e3, 1e4, 1e5} lands at 0.379
    because the disk remainder at Z = 1e4 is freakishly small (+0.07) and
    at Z = 1e3 small (+6.4); the envelope |rem| <= 1.0 * Z^0.365 holds at
    every point, so the underlying bound is fine -- the three-point fit of
    a fluctuating quantity is what overshoots.
  * criterion 7, the fitted-constant target 4/pi: the empirical constant
    of the raw trace sum against X^2/2 is pi (so the count normalization
    is 1/pi, which is what psi uses); 4/pi disagrees with the measured
    regression by a factor 4 under every convention combination tested.

Everything else is expected green; see the ledger notes shipped outside the
package for the full analysis trail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import calibration as cal
from . import gaussian as g
from .gaussian import GaussianInt, canonical_rep, disk_rows, ideal_reps_upto
from . import quad_counts as qc
from . import lfunctions as lf
from . import lattice
from . import geodesics as geo
from . import spectral as spec_mod
from . import exponents as ex
from .harness import fit_exponent


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    skipped: bool = False
    runtime: float = 0.0
    details: list = field(default_factory=list)  # (ok | None, text) per clause

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{status}] criterion {self.number:2d} ({self.name}) " \
               f"{self.runtime:7.1f}s"

    def clause(self, needle: str):
        """(ok, text) of the first clause whose text contains `needle`."""
        for ok, text in self.details:
            if needle in text:
                return ok, text
        raise KeyError(needle)

    def detail_lines(self):
        for ok, text in self.details:
            prefix = "       " if ok is None else ("  ok   " if ok else "  BAD  ")
            yield prefix + text


def _clause(details: list, ok: bool, text: str) -> bool:
    details.append((ok, text))
    return ok


def _note(details: list, text: str) -> None:
    details.append((None, text))


# ---------------------------------------------------------------------------

def criterion_1(quick: bool = False) -> CriterionResult:
    """Exponent reproduction (quantitative anchors, exact rationals)."""
    t0 = time.time()
    d: list = []
    ok = True
    sysr = ex.uncond_system()
    ok &= _clause(d, abs(sysr["sigma"] - 0.93812) <= 1e-4,
                  f"sigma = {sysr['sigma']:.6f} (target 0.93812 +- 1e-4)")
    ok &= _clause(d, abs(sysr["nu"] - 0.649773) <= 1e-5,
                  f"nu = {sysr['nu']:.7f} (target 0.649773 +- 1e-5)")
    ok &= _clause(d, abs(sysr["pointwise_exponent"] - 1.60023) <= 1e-5,
                  f"pointwise = {sysr['pointwise_exponent']:.6f} (target 1.60023 +- 1e-5)")
    ok &= _clause(d, sysr["closed_form_residual"] <= 1e-10,
                  f"closed-form residual {sysr['closed_form_residual']:.2e} <= 1e-10")
    c6 = ex.corollary_exponents(Fraction(1, 6))
    ok &= _clause(d, c6["pointwise"] == Fraction(67, 42),
                  f"theta=1/6 pointwise = {c6['pointwise']} (= 67/42)")
    c0 = ex.corollary_exponents(0)
    ok &= _clause(d, c0["pointwise_mean_lindelof"] == Fraction(34, 23),
                  f"theta=0 conditional = {c0['pointwise_mean_lindelof']} (= 34/23)")
    cq = ex.corollary_exponents(Fraction(1, 4))
    ok &= _clause(d, cq["pointwise_trivial_spectral"] == Fraction(5, 3),
                  f"theta=1/4 trivial-spectral = {cq['pointwise_trivial_spectral']} (= 5/3)")
    cb = ex.corollary_exponents(Fraction(3, 16))
    ok &= _clause(d, cb["pointwise_trivial_spectral"] == Fraction(13, 8),
                  f"theta=3/16 trivial-spectral = {cb['pointwise_trivial_spectral']} (= 13/8)")
    rt = time.time() - t0
    ok &= _clause(d, rt < 1.0, f"runtime {rt:.3f}s < 1s")
    return CriterionResult(1, "exponent reproduction", ok, runtime=rt, details=d)


def criterion_2(quick: bool = False) -> CriterionResult:
    """rho exactness: fast = brute on the grid; rho-sum over classes = phi."""
    t0 = time.time()
    d: list = []
    ok = True
    q_cut, n_cut, phi_cut = (80, 20, 100) if quick else (200, 40, 300)
    mismatches = 0
    pairs = 0
    for qp in ideal_reps_upto(q_cut):
        q = canonical_rep(GaussianInt.from_pair(qp))
        for b, row in disk_rows(0, n_cut):
            for a in row.tolist():
                n = GaussianInt(a, b)
                pairs += 1
                if qc.rho_fast(q, n) != qc.rho_bruteforce(q, n * n - GaussianInt(4, 0)):
                    mismatches += 1
    ok &= _clause(d, mismatches == 0,
                  f"rho_fast vs rho_bruteforce: {mismatches} mismatches over "
                  f"{pairs} pairs (N(q)<={q_cut}, N(n)<={n_cut})")
    bad = 0
    for qp in ideal_reps_upto(phi_cut):
        q = canonical_rep(GaussianInt.from_pair(qp))
        _, values = qc.rho_table(q)
        if sum(values) != g.euler_phi(q):
            bad += 1
    ok &= _clause(d, bad == 0,
                  f"sum_b rho_q(b^2-4) = phi(q): {bad} violations, N(q)<={phi_cut}")
    return CriterionResult(2, "rho/lambda exactness", ok,
                           runtime=time.time() - t0, details=d)


def criterion_3(quick: bool = False) -> CriterionResult:
    """Kloosterman identities and the Weil-ratio envelope."""
    t0 = time.time()
    d: list = []
    ok = True
    q_cut, k_cut, phi_cut, weil_cut = (50, 9, 100, 100) if quick else (100, 25, 500, 500)
    worst = 0.0
    for qp in ideal_reps_upto(q_cut):
        q = canonical_rep(GaussianInt.from_pair(qp))
        for b, row in disk_rows(-1, k_cut):
            for a in row.tolist():
                worst = max(worst, qc.kloosterman_identity_check(q, GaussianInt(a, b)))
    ok &= _clause(d, worst <= 1e-8,
                  f"identity deviation max {worst:.2e} <= 1e-8 "
                  f"(N(q)<={q_cut}, N(k)<={k_cut})")
    bad = 0
    for qp in ideal_reps_upto(phi_cut):
        q = canonical_rep(GaussianInt.from_pair(qp))
        v = qc.kloosterman(GaussianInt(0, 0), GaussianInt(0, 0), q).value
        if abs(v - g.euler_phi(q)) > 1e-6:
            bad += 1
    ok &= _clause(d, bad == 0, f"S(0,0,q) = phi(q): {bad} violations, N(q)<={phi_cut}")
    probes = [(GaussianInt(1, 0), GaussianInt(1, 0)),
              (GaussianInt(1, 0), GaussianInt(1, 1)),
              (GaussianInt(1, 1), GaussianInt(2, -1)),
              (GaussianInt(0, 0), GaussianInt(1, 0)),
              (GaussianInt(2, 1), GaussianInt(2, 1))]
    wmax = 0.0
    for cp in ideal_reps_upto(weil_cut):
        c = canonical_rep(GaussianInt.from_pair(cp))
        for m, n in probes:
            wmax = max(wmax, qc.weil_ratio(m, n, c))
    ok &= _clause(d, wmax <= cal.WEIL_SWEEP_C + cal.WEIL_SWEEP_TOL,
                  f"Weil ratio max {wmax:.6f} <= recorded {cal.WEIL_SWEEP_C} "
                  f"(N(c)<={weil_cut})")
    return CriterionResult(3, "Kloosterman identities", ok,
                           runtime=time.time() - t0, details=d)


def criterion_4(quick: bool = False) -> CriterionResult:
    """The factorization of the form L-function, coefficient by coefficient."""
    t0 = time.time()
    d: list = []
    ok = True
    qmax = 300 if quick else 2000
    traces = [GaussianInt(3, 0), GaussianInt(4, 0), GaussianInt(5, 0),
              GaussianInt(1, 2), GaussianInt(3, 2), GaussianInt(2, 3)]
    for n in traces:
        delta = n * n - GaussianInt(4, 0)
        dev = lf.szmidt_coefficient_check(delta, qmax)
        ok &= _clause(d, dev == 0,
                      f"delta = {delta} (n = {n}): max coefficient deviation "
                      f"{dev} over N(q) <= {qmax}")
    return CriterionResult(4, "coefficient factorization", ok,
                           runtime=time.time() - t0, details=d)


def criterion_5(quick: bool = False) -> CriterionResult:
    """Trace partial-sum averages: fitted remainder exponents."""
    t0 = time.time()
    d: list = []
    ok = True
    # the full grid stays in quick mode: two-point "fits" of a fluctuating
    # remainder are meaningless, and the sweep is cheap
    zs = (1e3, 1e4, 1e5)
    for qp in [(1, 0), (1, 1), (3, 0), (2, 1)]:
        q = canonical_rep(GaussianInt.from_pair(qp))
        pts = []
        for Z in zs:
            total, main, rem = qc.lambda_partial_sum(q, Z)
            pts.append((Z, max(abs(rem), 1e-12)))
        slope = fit_exponent(pts).slope
        ok &= _clause(d, slope <= 0.5,
                      f"q = {qp}: fitted remainder exponent {slope:.4f} <= 0.5 "
                      f"(|rem| = {[round(p[1], 2) for p in pts]})")
        if qp == (1, 0):
            ok &= _clause(d, slope <= 0.36,
                          f"q = (1): fitted exponent {slope:.4f} <= 0.36 "
                          "(three-point fit; see ledger on the Z=1e4 near-zero)")
            env = max(abs(p[1]) / p[0] ** cal.CIRCLE_REMAINDER_EXPONENT for p in pts)
            ok &= _clause(d, env <= cal.CIRCLE_REMAINDER_C,
                          f"q = (1): envelope |rem|/Z^0.365 = {env:.3f} <= "
                          f"{cal.CIRCLE_REMAINDER_C}")
    return CriterionResult(5, "partial-sum averages", ok,
                           runtime=time.time() - t0, details=d)


def criterion_6(quick: bool = False) -> CriterionResult:
    """Normalization sum: deviation from 1 shrinking like a power of V."""
    t0 = time.time()
    d: list = []
    ok = True
    vs = (1e2, 1e3) if quick else (1e2, 1e3, 1e4)
    devs = [(V, abs(lf.normalization_sum(V) - 1.0)) for V in vs]
    ok &= _clause(d, all(b[1] < a[1] for a, b in zip(devs, devs[1:])),
                  f"|sum - 1| decreasing: {[(f'{v:.0e}', round(x, 5)) for v, x in devs]}")
    ok &= _clause(d, devs[-1][1] <= 0.1,
                  f"|sum({vs[-1]:.0e}) - 1| = {devs[-1][1]:.4f} <= 0.1")
    slope = fit_exponent(devs).slope
    ok &= _clause(d, slope <= -0.4, f"fitted decay exponent {slope:.3f} <= -0.4")
    return CriterionResult(6, "normalization sum", ok,
                           runtime=time.time() - t0, details=d)


def criterion_7(quick: bool = False) -> CriterionResult:
    """Counting trend: psi/(X^2/2) near 1, improving; fitted constant."""
    t0 = time.time()
    d: list = []
    ok = True
    xs = (1e3, 3e3) if quick else (1e3, 3e3, 1e4)
    devs = []
    raws = []
    for X in xs:
        r = geo.psi(X)
        devs.append(abs(r.psi / r.main - 1.0))
        raws.append((X * X / 2.0, r.psi / r.constant_used))
        _note(d, f"psi({X:.0e})/(X^2/2) = {r.psi / r.main:.5f} "
                 f"(V = {r.v_used:.0f}, band = {r.band:.1f}, terms = {r.n_terms})")
    ok &= _clause(d, devs[-1] <= 0.10,
                  f"|ratio - 1| = {devs[-1]:.4f} <= 0.10 at X = {xs[-1]:.0e}")
    ok &= _clause(d, all(b < a for a, b in zip(devs, devs[1:])),
                  f"|ratio - 1| monotonically improving: {[round(v, 4) for v in devs]}")
    # fitted constant: least squares of the raw sum against X^2/2 through the
    # origin; psi = c * raw, so c = 1 / slope
    num = sum(m * r for m, r in raws)
    den = sum(m * m for m, _ in raws)
    fitted_constant = 1.0 / (num / den)
    target = 4.0 / math.pi
    ok &= _clause(d, abs(fitted_constant / target - 1.0) <= 0.05,
                  f"fitted constant {fitted_constant:.5f} vs 4/pi = {target:.5f} "
                  f"(ratio {fitted_constant / target:.3f}; measured constant is 1/pi "
                  f"= {1.0 / math.pi:.5f}, see ledger)")
    return CriterionResult(7, "geodesic count trend", ok,
                           runtime=time.time() - t0, details=d)


def criterion_8(quick: bool = False) -> CriterionResult:
    """Short intervals: shrinking normalized error, additivity, trivial bound."""
    t0 = time.time()
    d: list = []
    ok = True
    xs = (1e3, 3e3) if quick else (1e3, 3e3, 1e4)
    nerrs = []
    for X in xs:
        Y = X ** 0.7
        r = geo.psi_short_interval(X, Y)
        nerrs.append(abs(r.normalized_error))
        triv = r.difference / (X ** (1.0 + cal.TRIVIAL_BOUND_EPS) * Y)
        ok &= _clause(d, triv <= cal.TRIVIAL_BOUND_C,
                      f"X = {X:.0e}: difference/(X^1.1 Y) = {triv:.3f} <= "
                      f"{cal.TRIVIAL_BOUND_C}")
    ok &= _clause(d, all(b < a for a, b in zip(nerrs, nerrs[1:])),
                  f"normalized errors decreasing: {[round(v, 5) for v in nerrs]}")
    opts = geo.PsiOptions(V=2000.0, validate=False)
    a = geo.psi_short_interval(1000.0, 150.0, opts)
    b = geo.psi_short_interval(1150.0, 170.0, opts)
    c = geo.psi_short_interval(1000.0, 320.0, opts)
    gap = abs(a.difference + b.difference - c.difference)
    ok &= _clause(d, gap <= 1e-9 * abs(c.difference),
                  f"interval additivity gap {gap:.2e} (float-associativity level)")
    return CriterionResult(8, "short intervals", ok,
                           runtime=time.time() - t0, details=d)


def criterion_9(quick: bool = False) -> CriterionResult:
    """Circle counts: exact small values and the remainder-exponent sweep."""
    t0 = time.time()
    d: list = []
    ok = True
    c1 = lattice.circle_count((0, 0), 1)
    ok &= _clause(d, c1.count == 5, f"count(b=0, M=1) = {c1.count} (= 5)")
    c2 = lattice.circle_count((0, 0), 2)
    ok &= _clause(d, c2.count == 9, f"count(b=0, M=2) = {c2.count} (= 9)")
    c3 = lattice.circle_count((Fraction(1, 2), Fraction(1, 2)), Fraction(49, 100))
    ok &= _clause(d, c3.count == 0, f"count(b=(.5,.5), M=0.49) = {c3.count} (= 0)")
    grid = [1e3, 1e4, 1e5] if quick else [1e3, 1e4, 1e5, 1e6]
    centers = 40 if quick else 100
    ef = lattice.eta_fit(grid, n_centers=centers, seed=cal.ETA_SWEEP_SEED)
    ok &= _clause(d, ef.fitted_exponent < 0.36,
                  f"eta sweep exponent {ef.fitted_exponent:.4f} < 0.36 "
                  f"(seed {ef.seed}, {ef.n_centers} centers)")
    return CriterionResult(9, "circle counts", ok,
                           runtime=time.time() - t0, details=d)


def criterion_10(quick: bool = False) -> CriterionResult:
    """Smoothing: kernel mass, monotone sandwich, quadrature agreement."""
    t0 = time.time()
    d: list = []
    ok = True
    X = 300.0 if quick else 1000.0
    Y = 40.0 if quick else 80.0
    k = geo.KernelSpec(Y=Y)
    ok &= _clause(d, abs(k.mass - 1.0) <= 1e-8, f"kernel mass {k.mass:.12f} = 1 +- 1e-8")
    opts = geo.PsiOptions(V=2000.0, validate=False)
    lo = geo.psi(X, opts).psi
    hi = geo.psi(X + 2 * Y, opts).psi
    sm = geo.psi_smoothed(X, k, opts)
    ok &= _clause(d, lo <= sm <= hi,
                  f"sandwich psi(X) = {lo:.1f} <= smoothed = {sm:.1f} <= "
                  f"psi(X+2Y) = {hi:.1f}")
    thr, cum = geo.psi_profile(X, Y, opts)
    knots = sorted({Y, 2 * Y} | {float(t - X) for t in thr if Y < t - X < 2 * Y})
    direct = 0.0
    for aa, bb in zip(knots[:-1], knots[1:]):
        u = 0.5 * (aa + bb)
        idx = int(np.searchsorted(thr, X + u, side="right"))
        val = float(cum[idx - 1]) if idx else 0.0
        direct += val * (k.cdf(bb) - k.cdf(aa))
    rel = abs(sm - direct) / abs(sm)
    ok &= _clause(d, rel <= 1e-3,
                  f"exchange vs direct quadrature relative gap {rel:.2e} <= 1e-3")
    return CriterionResult(10, "smoothed counts", ok,
                           runtime=time.time() - t0, details=d)


def criterion_11(quick: bool = False,
                 eigenvalue_path: str | None = None) -> CriterionResult:
    """Spectral checks; skipped cleanly without a data file."""
    t0 = time.time()
    d: list = []
    if eigenvalue_path is None:
        _note(d, "no eigenvalue file supplied; conditional criterion skipped")
        return CriterionResult(11, "spectral (conditional)", True, skipped=True,
                               runtime=time.time() - t0, details=d)
    ok = True
    table = spec_mod.load_eigenvalues(eigenvalue_path)
    T = table.r_values[-1] if table.r_values else 1.0
    s1 = spec_mod.spectral_sum(table, T, 1.0)
    ok &= _clause(d, abs(s1 - table.count_upto(T)) < 1e-9,
                  f"S(T, 1) = {s1.real:.1f} equals count {table.count_upto(T)}")
    X = 400.0
    r = geo.psi(X)
    efr = spec_mod.explicit_formula_residual(table, X, min(T, math.sqrt(X)), r.psi)
    band = X * X * math.log(X) / max(min(T, math.sqrt(X)), 1.0)
    _note(d, f"residual {efr.residual:.1f} vs X^2 log X / T = {band:.1f} (recorded)")
    wexp = spec_mod.weyl_law_exponent(table)
    if wexp is None:
        _note(d, "table spans less than a decade; Weyl fit not attempted")
    else:
        ok &= _clause(d, abs(wexp - 3.0) <= 0.5, f"Weyl-law fitted exponent {wexp:.2f} ~ 3")
    return CriterionResult(11, "spectral (conditional)", ok,
                           runtime=time.time() - t0, details=d)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(quick: bool = False, eigenvalue_path: str | None = None,
            echo=print):
    """Run criteria 1-10 (plus conditional 11), print one line each.

    Returns (results, all_passed); skipped criteria do not count against
    all_passed.
    """
    results = []
    for fn in ALL_CRITERIA:
        res = fn(quick=quick)
        results.append(res)
        echo(res.line())
        for line in res.detail_lines():
            echo(line)
    res11 = criterion_11(quick=quick, eigenvalue_path=eigenvalue_path)
    results.append(res11)
    echo(res11.line())
    for line in res11.detail_lines():
        echo(line)
    all_passed = all(r.passed for r in results if not r.skipped)
    return results, all_passed
