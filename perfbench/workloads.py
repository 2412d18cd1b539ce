"""The benchmark's workloads: seeded inputs, timed ops and output checks.

A workload is a list of ops built from the seed before timing starts.  Only
`Op.run` executes inside the timed region.  Everything else -- the output
check, the work-unit count, the error budget and the digest values -- runs
after the pass, so none of it is charged to the program.

Two workloads, each the ops of two scenarios run back to back in one pass
(traced shares are of trace_engine.gv_per_trace):

  sweep   the numpy sweeps of trace_engine behind geodesics, in two shapes.
          "wide": psi(X ~ 1e4) at V = 1000, ~31k traces and a shallow 40k
          cutoff, so the DFS vector products are the larger share (~60%).
          "deep": psi_short_interval(X ~ 3e3, X^0.7) under the default V
          policy, ~800 traces and a ~130k cutoff, so lambda-vector builds
          with their Legendre tables dominate (~65%).  Then
          psi_smoothed(X ~ 1e3, Y = 80), the only op on the kernel CDF.
  scalar  the scalar code paths, no trace_engine at all.  What `pgt lfun`
          runs per trace (pinning oracle, zagier_L1, L_chi with its
          doublings, T_l_poly) on the scalar factored walk; then the exact
          integer checks of gaussian / quad_counts / characters / lattice by
          enumeration: coefficient factorization, Kloosterman sums and
          identities, rho fast against brute force, lambda partial sums,
          the shifted-circle fit.

Merging scenarios into two workloads doubles the time each run measures,
which the shared host's slow phases of tens of seconds require.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pgt import calibration
from pgt import characters
from pgt import gaussian as g
from pgt import geodesics as geo
from pgt import lattice
from pgt import lfunctions as lf
from pgt import quad_counts as qc
from pgt import trace_engine as te
from pgt.gaussian import CanonicalIdealRep, GaussianInt

# A float64 result carries at least this relative error, so exact workloads
# report it as their error budget instead of 0.
UNIT_ROUNDOFF = 2.0 ** -53

# "full" is the benchmark; "tiny" keeps every op and check but shrinks the
# inputs so the smoke test runs in seconds.
SIZES = {
    "full": dict(
        count_x=1.0e4, count_v=1000.0, count_samples=3,
        window_x=3.0e3, window_nu=0.7, smooth_x=1.0e3, smooth_y=80.0,
        additivity_x=1.0e3, additivity_y=(150.0, 170.0), additivity_v=400.0,
        lfun_traces=10, lfun_norms=(100, 900), lfun_v=1000.0,
        szmidt_deltas=3, szmidt_qmax=1000, kloosterman_cmax=500,
        identity_qmax=100, identity_ks=3, rho_qmax=150, rho_ns=3,
        partial_qs=4, partial_z=1.0e5, partial_brute_z=150,
        eta_grid=(1e3, 1e4, 1e5, 1e6), eta_centers=40,
    ),
    "tiny": dict(
        count_x=300.0, count_v=400.0, count_samples=2,
        window_x=300.0, window_nu=0.7, smooth_x=100.0, smooth_y=10.0,
        additivity_x=100.0, additivity_y=(15.0, 17.0), additivity_v=50.0,
        lfun_traces=2, lfun_norms=(10, 50), lfun_v=100.0,
        szmidt_deltas=1, szmidt_qmax=50, kloosterman_cmax=30,
        identity_qmax=10, identity_ks=1, rho_qmax=10, rho_ns=1,
        partial_qs=1, partial_z=1.0e3, partial_brute_z=30,
        eta_grid=(1e2, 1e3), eta_centers=3,
    ),
}


class CheckFailed(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    """One timed call into pgt, with everything needed to judge its output.

    run(span) is timed; span(name) is a context manager that the traced
    run uses to time work the benchmark itself starts (kernel set-up).
    check raises CheckFailed; units counts the work the op completed;
    err is the relative error budget its outputs report (None if exact);
    digest lists the output values, already rounded.
    """

    name: str
    run: Callable[[Callable], object]
    check: Callable[[object], None]
    units: Callable[[object], int]
    digest: Callable[[object], list]
    err: Callable[[object], float | None] = lambda result: None
    tag: str | None = None   # the trace_engine shape it exercises, for the traced run


def no_span(name):
    return contextlib.nullcontext()


def _require(ok: bool, text: str) -> None:
    if not ok:
        raise CheckFailed(text)


def _sig(x: float) -> str:
    """x to 12 significant digits (1e-12 relative)."""
    return f"{float(x):.11e}"


def _abs(x: float, scale: float) -> int:
    """x in units of 1e-12 * scale, for values that may be rounding noise."""
    return int(round(float(x) / scale * 1e12))


def _jitter(rng: random.Random, x: float, width: float = 0.02) -> float:
    """x moved by up to +-width/2 of itself: seeded, same-sized inputs."""
    return x * (1.0 + width * (rng.random() - 0.5))


def _gauss(rng: random.Random, lo: int, hi: int) -> GaussianInt:
    """A Gaussian integer with lo <= N(n) <= hi."""
    r = math.isqrt(hi)
    while True:
        n = GaussianInt(rng.randint(-r, r), rng.randint(-r, r))
        if lo <= n.norm() <= hi:
            return n


def ideal_pairs(limit: int) -> list:
    """First-quadrant generators (a >= 1, b >= 0) of all ideals of norm <= limit."""
    return [(a, b) for a in range(1, math.isqrt(limit) + 1)
            for b in range(math.isqrt(limit - a * a) + 1)]


def ideal_count(limit: int) -> int:
    """Number of ideals of Z[i] with norm <= limit (computed, not walked)."""
    return sum(math.isqrt(limit - a * a) + 1
               for a in range(1, math.isqrt(limit) + 1))


def _rep(pair) -> CanonicalIdealRep:
    return CanonicalIdealRep(GaussianInt.from_pair(pair))


def _discriminant(n: GaussianInt) -> GaussianInt:
    return n * n - GaussianInt(4, 0)


# ---------------------------------------------------------------------------
# count: one full Psi(X) with validation
# ---------------------------------------------------------------------------

def _count_ops(rng, sz):
    X = _jitter(rng, sz["count_x"])
    opts = geo.PsiOptions(V=sz["count_v"])
    fracs = [rng.random() for _ in range(sz["count_samples"])]

    def check(r):
        _require(math.isfinite(r.psi) and r.psi > 0, f"psi = {r.psi}")
        ts = te.trace_set(1.0, X)
        _require(len(ts) == r.n_terms, f"{r.n_terms} terms, {len(ts)} traces")
        # sampled traces through the vector sweep against the scalar walk
        idx = np.array(sorted({int(f * len(ts)) for f in fracs}))
        sub = te.TraceSet(lo=1.0, hi=X, na=ts.na[idx], nb=ts.nb[idx],
                          weight=ts.weight[idx], thr=ts.thr[idx])
        vec = te.gv_per_trace(sub, r.v_used, cutoff_mult=opts.cutoff_mult)
        for j, i in enumerate(idx):
            n = GaussianInt(int(ts.na[i]), int(ts.nb[i]))
            ref = lf.zagier_L1(_discriminant(n), r.v_used, n=n).value
            _require(abs(vec[j] - ref) <= 1e-9 * abs(ref) + 1e-15,
                     f"gv_per_trace {vec[j]!r} != zagier_L1 {ref!r} at n = {n}")

    return [Op(
        name=f"psi(X={X:.6g}, V={opts.V:g})",
        run=lambda span: geo.psi(X, opts),
        check=check,
        units=lambda r: r.n_terms,
        digest=lambda r: [_sig(r.psi), _sig(r.band), _sig(r.v_used), r.n_terms],
        err=lambda r: r.band / abs(r.psi),
        tag="wide",
    )]


# ---------------------------------------------------------------------------
# window: one short interval and one smoothed count
# ---------------------------------------------------------------------------

def _window_ops(rng, sz):
    X = _jitter(rng, sz["window_x"])
    Y = X ** sz["window_nu"]
    Xs = _jitter(rng, sz["smooth_x"])
    Ks = sz["smooth_y"]
    Xa = _jitter(rng, sz["additivity_x"])
    Ya, Yb = (_jitter(rng, y) for y in sz["additivity_y"])
    fixed = geo.PsiOptions(V=sz["additivity_v"], validate=False)

    def check_interval(r):
        _require(math.isfinite(r.difference) and r.difference >= 0,
                 f"difference = {r.difference}")
        traces = len(te.trace_set(X, X + Y))
        _require(r.n_terms == traces > 0, f"{r.n_terms} terms, {traces} traces")
        # two adjacent fixed-V windows sum to their union
        a = geo.psi_short_interval(Xa, Ya, fixed)
        b = geo.psi_short_interval(Xa + Ya, Yb, fixed)
        c = geo.psi_short_interval(Xa, Ya + Yb, fixed)
        gap = abs(a.difference + b.difference - c.difference)
        _require(gap <= 1e-9 * abs(c.difference), f"additivity gap {gap}")

    def run_smoothed(span):
        with span("geodesics.kernel_setup"):
            kernel = geo.KernelSpec(Y=Ks)
        return kernel, geo.psi_smoothed(Xs, kernel)

    def check_smoothed(result):
        kernel, sm = result
        _require(abs(kernel.mass - 1.0) <= 1e-8, f"kernel mass {kernel.mass}")
        # Psi(X) <= Psi(X, k) <= Psi(X + 2Y) on one profile sweep at the same V
        thr, cum = geo.psi_profile(Xs, Ks)
        k = int(np.searchsorted(thr, Xs, side="right"))
        lo = float(cum[k - 1]) if k else 0.0
        hi = float(cum[-1])
        slack = 1e-12 * hi
        _require(lo - slack <= sm <= hi + slack, f"{lo} <= {sm} <= {hi} fails")

    return [
        Op(name=f"psi_short_interval(X={X:.6g}, Y=X^{sz['window_nu']})",
           run=lambda span: geo.psi_short_interval(X, Y),
           check=check_interval,
           units=lambda r: r.n_terms,
           digest=lambda r: [_sig(r.difference), _sig(r.band), _sig(r.v_used),
                             r.n_terms],
           err=lambda r: r.band / abs(r.difference),
           tag="deep"),
        Op(name=f"psi_smoothed(X={Xs:.6g}, KernelSpec({Ks:g}))",
           run=run_smoothed,
           check=check_smoothed,
           units=lambda r: len(te.trace_set(1.0, Xs + 2.0 * Ks)),
           digest=lambda r: [_sig(r[1]), _sig(r[0].mass)]),
    ]


# ---------------------------------------------------------------------------
# lfun: what `pgt lfun --trace n --v V` computes, per seeded trace
# ---------------------------------------------------------------------------

def t_coefficients(split, char) -> dict:
    """Coefficients of the finite factor T_l: chi mu(d) N(e) at the ideal d e^2."""
    lp = split.l.pair
    out: dict = {}
    for d in g.divisor_pairs(lp):
        rep = _rep(d)
        mu = g.mobius(rep)
        xd = characters.chi(char, rep) if mu else 0
        if xd == 0:
            continue
        for e in g.divisor_pairs(g.canonical_pair(g.exact_div(lp, d))):
            f = g.canonical_pair(g.mul(d, g.mul(e, e)))
            out[f] = out.get(f, 0) + mu * xd * g.norm(e)
    return out


def _lfun_op(n: GaussianInt, V: float) -> Op:
    delta = _discriminant(n)

    def run(span):
        split = characters.discriminant_split(delta)
        char = characters.quadratic_character(delta)
        gv = lf.zagier_L1(delta, V, n=n)
        tval = complex(lf.T_l_poly(1.0, split.D, split.l, char))
        lval = lf.L_chi(1.0, char, V / 8.0)
        return split, char, gv, tval, lval

    def check(result):
        # The smoothed product series factors exactly over the ideals f of T_l:
        #   G_V = sum_f t_f / N(f) * L_chi(1; V / N(f)),  T(1) = sum_f t_f / N(f)
        # (the cutoffs match: N(f) N(q) <= 40 V).  Once l != (1) the factors
        # smooth at V / N(f), so the L_chi band alone does not bound
        # |G_V - T(1) L(1)| (7e-3 against a 3.5e-4 band at n = 1+18i); the
        # exact identity is checked instead.
        split, char, gv, tval, lval = result
        _require(math.isfinite(gv.value) and math.isfinite(lval.value.real),
                 "non-finite L-value")
        tc = t_coefficients(split, char)
        t1 = sum(w / g.norm(f) for f, w in tc.items())
        _require(abs(t1 - tval.real) <= 1e-12 * max(abs(t1), 1.0),
                 f"T(1) = {tval.real} but its coefficients sum to {t1}")
        rebuilt = sum(
            w / g.norm(f) * lf.L_chi(1.0, char, V / g.norm(f), doublings=0).value.real
            for f, w in tc.items())
        _require(abs(rebuilt - gv.value) <= 1e-9 * abs(gv.value) + gv.tail_estimate,
                 f"G_V = {gv.value} but T * L_chi rebuilds {rebuilt}")

    def err(result):
        # per-trace L_chi bands scatter by decades between traces, so the
        # budget is the family-level one at the V the outputs report: the
        # smoothing bias 0.615/sqrt(V) plus the tail, relative to mean L(1) = 1
        _, _, gv, _, lval = result
        v = min(gv.V, lval.v_used)
        return calibration.NORMALIZATION_BIAS_C / math.sqrt(v) + gv.tail_estimate

    def digest(result):
        split, char, gv, tval, lval = result
        return [str(split.D), str(split.l), char.even_value, _sig(gv.value),
                _sig(tval.real), _sig(lval.value.real), _sig(lval.band)]

    return Op(name=f"lfun(n={n}, V={V:g})", run=run, check=check,
              units=lambda result: 2, digest=digest, err=err)


def _lfun_ops(rng, sz):
    lo, hi = sz["lfun_norms"]
    seen, ops = set(), []
    while len(ops) < sz["lfun_traces"]:
        n = _gauss(rng, lo, hi)
        # traces alternate the parity of re + im: when (1+i) | n the character
        # is often ramified at (1+i) and L_chi skips every ideal through it,
        # so a fixed mix keeps the work per pass the same across seeds
        if (n.re + n.im - len(ops)) % 2 or n.pair in seen \
                or characters.is_perfect_square(_discriminant(n)):
            continue
        seen.add(n.pair)
        ops.append(_lfun_op(n, sz["lfun_v"]))
    return ops


# ---------------------------------------------------------------------------
# oracle: exact enumeration checks
# ---------------------------------------------------------------------------

def _szmidt_op(n: GaussianInt, qmax: int) -> Op:
    delta = _discriminant(n)
    return Op(name=f"szmidt_coefficient_check(delta={delta}, {qmax})",
              run=lambda span: lf.szmidt_coefficient_check(delta, qmax),
              check=lambda dev: _require(dev == 0, f"coefficient deviation {dev}"),
              units=lambda dev: ideal_count(qmax),
              digest=lambda dev: [dev])


def _oracle_ops(rng, sz):
    ops = []
    deltas_seen = set()
    while len(ops) < sz["szmidt_deltas"]:
        n = _gauss(rng, 5, 25)
        d = _discriminant(n)
        if d.pair in deltas_seen or characters.is_perfect_square(d):
            continue
        deltas_seen.add(d.pair)
        ops.append(_szmidt_op(n, sz["szmidt_qmax"]))

    cs = [_rep(p) for p in ideal_pairs(sz["kloosterman_cmax"])]
    m = _gauss(rng, 1, 10)
    k = _gauss(rng, 1, 10)
    zero = GaussianInt(0, 0)

    def weil_sweep(span):
        out = []
        for c in cs:
            s = qc.kloosterman(m, k, c).value
            out.append((s, qc.weil_ratio(m, k, c, s)))
        return out

    def check_weil(rows):
        for c, (s, ratio) in zip(cs, rows):
            # |S| <= phi(c) <= N(c): a sum of that many unit-modulus terms
            _require(abs(s) <= c.norm() + 1e-9 and math.isfinite(ratio),
                     f"S({m}, {k}, {c}) = {s}")

    ops.append(Op(name=f"weil_ratio/kloosterman(m={m}, n={k}, N(c)<={sz['kloosterman_cmax']})",
                  run=weil_sweep, check=check_weil, units=len,
                  digest=lambda rows: [[_abs(s.real, c.norm()), _abs(s.imag, c.norm()),
                                        _abs(ratio, 1.0)] for c, (s, ratio) in zip(cs, rows)]))

    def check_phi(values):
        for c, s in zip(cs, values):
            phi = g.euler_phi(c)
            _require(abs(s - phi) <= 1e-6, f"S(0, 0, {c}) = {s} != phi = {phi}")

    ops.append(Op(name=f"kloosterman(0, 0, N(c)<={sz['kloosterman_cmax']})",
                  run=lambda span: [qc.kloosterman(zero, zero, c).value for c in cs],
                  check=check_phi, units=len,
                  digest=lambda vals: [_abs(s.real, c.norm()) for c, s in zip(cs, vals)]))

    qs = [_rep(p) for p in ideal_pairs(sz["identity_qmax"])]
    ks = [_gauss(rng, 1, 25) for _ in range(sz["identity_ks"])]
    ops.append(Op(name=f"kloosterman_identity_check(N(q)<={sz['identity_qmax']}, "
                       f"k={[str(x) for x in ks]})",
                  run=lambda span: [qc.kloosterman_identity_check(q, kk) for kk in ks for q in qs],
                  check=lambda devs: _require(max(devs) <= 1e-8, f"identity deviation {max(devs)}"),
                  units=len,
                  digest=lambda devs: [sum(dv > 1e-8 for dv in devs)]))

    rqs = [_rep(p) for p in ideal_pairs(sz["rho_qmax"])]
    rns = [_gauss(rng, 1, 40) for _ in range(sz["rho_ns"])]
    ops.append(Op(name=f"rho_fast vs rho_bruteforce(N(q)<={sz['rho_qmax']}, "
                       f"n={[str(x) for x in rns]})",
                  run=lambda span: [(qc.rho_fast(q, n), qc.rho_bruteforce(q, _discriminant(n)))
                                    for n in rns for q in rqs],
                  check=lambda pairs: _require(all(a == b for a, b in pairs),
                                               f"{sum(a != b for a, b in pairs)} rho mismatches"),
                  units=len,
                  digest=lambda pairs: [a for a, _ in pairs]))

    pqs = [_rep(p) for p in rng.sample(ideal_pairs(20), sz["partial_qs"])]
    Z = _jitter(rng, sz["partial_z"])
    zb = sz["partial_brute_z"]

    def check_partial(rows):
        for q, (total, main, rem) in zip(pqs, rows):
            _require(isinstance(total, int) and rem == total - main,
                     f"partial sum at {q}: {total}, {main}, {rem}")
            # a small disk through the scalar lambda_ gives the same integer
            brute = 0
            r = math.isqrt(zb)
            for a in range(-r, r + 1):
                for b in range(-r, r + 1):
                    if 0 < a * a + b * b <= zb:
                        n = GaussianInt(a, b)
                        brute += qc.lambda_(q, _discriminant(n), n=n)
            fast = qc.lambda_partial_sum(q, zb)[0]
            _require(fast == brute, f"partial sum at {q}, Z={zb}: {fast} != {brute}")

    ops.append(Op(name=f"lambda_partial_sum(q={[str(q) for q in pqs]}, Z={Z:.6g})",
                  run=lambda span: [qc.lambda_partial_sum(q, Z) for q in pqs],
                  check=check_partial, units=len,
                  digest=lambda rows: [[t, _sig(mn)] for t, mn, _ in rows]))

    eta_seed = rng.randrange(2**31)
    grid = sz["eta_grid"]
    centers = sz["eta_centers"]

    def check_eta(fit):
        _require(len(fit.samples) == len(grid), "eta_fit dropped grid points")
        _require(all(w >= 0 and math.isfinite(w) for _, w in fit.samples),
                 f"eta samples {fit.samples}")
        _require(math.isfinite(fit.fitted_exponent), "eta exponent not finite")

    ops.append(Op(name=f"eta_fit({list(grid)}, n_centers={centers}, seed={eta_seed})",
                  run=lambda span: lattice.eta_fit(grid, n_centers=centers, seed=eta_seed),
                  check=check_eta, units=lambda fit: centers * len(grid),
                  digest=lambda fit: [[_sig(mm), _sig(w)] for mm, w in fit.samples]))
    return ops


_BUILDERS = {
    "sweep": lambda rng, sz: _count_ops(rng, sz) + _window_ops(rng, sz),
    "scalar": lambda rng, sz: _lfun_ops(rng, sz) + _oracle_ops(rng, sz),
}


def make_ops(workload: str, seed: int, size: str = "full") -> list:
    """The workload's ops, with inputs drawn from `seed` only."""
    return _BUILDERS[workload](random.Random(seed), SIZES[size])


def digest(values: list) -> str:
    """sha256 of the rounded output values of one pass."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
