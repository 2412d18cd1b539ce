"""The geodesic counting function Psi on the Picard manifold.

A hyperbolic or loxodromic class with trace n and eigenvalue z (|z| > 1,
z + 1/z = n) has norm N(z) = |z|^2; the weighted count up to X is an exact
finite sum over traces:

    Psi(X) = c * sum over n with 1 < thr(n) <= X of
             sqrt(N(n^2-4)) * L1(n^2-4),
    thr(n) = max(|z|^2, |z^-1|^2),

where L1 is the value of the form L-function at 1, approximated by the
smoothed series G_V (trace_engine), and c = 1/pi.

On the constant: the identity's element-convention constant is fixed by
comparing with Psi(X) ~ X^2/2.  The average of the ideal-convention L1 over
traces is 1 (normalization_sum), the disk holds ~ pi*X traces of weight
~ N(n), so sum ~ pi X^2/2 and c = 1/pi.  This is validated empirically by
the regression in the acceptance suite (fitted slope of the raw sum against
X^2/2 comes out pi to within a couple of percent at desk scale).

Short-interval differences are computed by summing only the traces with
threshold inside (X, X+Y] -- never by subtracting two large counts.

Exclusions fall out of the threshold test itself: thr = 1 exactly for
n in {0, +-1, +-2} (the unit-circle traces; n = +-2 are the perfect-square
discriminants, n = 0, +-1 land on the unit circle), and every other trace
has thr >= (golden ratio)^2 > 2.6, so the strict test thr > 1 is safe in
double precision.

The smoothing kernel is the standard unit-mass bump on (Y, 2Y); smoothed
counts exchange sum and integral exactly:

    Psi(X, k) = integral Psi(X+u) k(u) du
              = c * sum_n w_n L1_n * (1 - K((thr_n - X))),  K = cdf of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import CutoffExceededError
from .gaussian import GaussianInt, canonical_pair, disk_rows
from . import characters
from .lfunctions import CUTOFF_MULT, SmoothedValue, _require_positive, _tail_estimate
from . import trace_engine

PSI_CONSTANT = 1.0 / math.pi   # multiplies the ideal-convention L1 sum
PSI_X_CAP = 3.0e4              # desk budget for a full count
MAX_RETRIES = 2                # V *= 4 retries when the quarter-V band misses tol


@dataclass
class PsiOptions:
    """Accuracy/evaluation knobs shared by the counting entry points.

    V = None selects the default policy max(1000, x_scale); validate=True
    also evaluates the quarter-V sum, in the same ideal walk, and reports
    the difference as the convergence band (V*=4 retries, at most
    MAX_RETRIES, while the band exceeds tol * |value|).
    The quarter-V band tracks the remaining family-average bias 0.615/sqrt(V)
    almost exactly, which is 1.9% at the policy floor V = 1000; the default
    tol sits above that so the default policy is retry-free and the
    V-growth (hence accuracy-growth) in X stays monotone.
    """

    tol: float = 0.03
    V: float | None = None
    validate: bool = True
    cutoff_mult: float = CUTOFF_MULT

    def __post_init__(self):
        _require_positive(tol=self.tol, cutoff_mult=self.cutoff_mult)

    def pick_v(self, x_scale: float) -> float:
        if self.V is not None:
            return float(self.V)
        return max(1000.0, float(x_scale))


@dataclass
class TraceTerm:
    """One trace contribution: threshold, weight sqrt(N(n^2-4)), and L1."""

    n: GaussianInt
    threshold: float
    weight: float
    L1: SmoothedValue

    def __post_init__(self):
        if not self.threshold > 1.0:
            raise ValueError("admissible traces have threshold > 1")


@dataclass
class GeodesicCountResult:
    X: float
    psi: float
    main: float                # X^2/2
    remainder: float
    constant_used: float
    v_used: float = 0.0
    band: float = 0.0          # |psi - quarter-V psi|
    n_terms: int = 0

    def __post_init__(self):
        if not math.isfinite(self.psi):
            raise ValueError("psi must be finite")


@dataclass
class ShortIntervalResult:
    X: float
    Y: float
    difference: float
    main: float                # XY + Y^2/2
    remainder: float
    normalized_error: float    # remainder / (XY)
    v_used: float = 0.0
    band: float = 0.0
    n_terms: int = 0

    def __post_init__(self):
        # the count is nondecreasing, so the difference cannot go negative
        # (a float-level allowance covers near-empty windows)
        if self.difference < -1e-9 * max(abs(self.main), 1.0):
            raise ValueError("negative interval difference")


def trace_threshold(n: GaussianInt):
    """max norm of the two eigenvalue roots of x^2 - n x + 1, or None.

    None marks excluded traces: delta = 0 or both roots on the unit circle
    (the condition asks for threshold strictly above 1).
    """
    t = trace_engine.threshold_of_pair(n.re, n.im)
    return t if t > 1.0 else None


def _window_traces(lo: float, hi: float) -> trace_engine.TraceSet:
    """Traces with threshold in (lo, hi], the upper threshold held to PSI_X_CAP.

    Every counting entry point enumerates its traces here.
    """
    if hi > PSI_X_CAP:
        raise CutoffExceededError(f"threshold {hi} beyond the desk cap {PSI_X_CAP}")
    return trace_engine.trace_set(lo, hi)


def _evaluate_window(lo: float, hi: float, opts: PsiOptions, x_scale: float):
    """Traces with thr in (lo, hi] and their validated smoothed sum (psi, intervals).

    One sweep gives the V and quarter-V values together.  A retry sweeps at
    4V alone: its quarter-V values are those of the sweep before (4V/4 is V
    exactly).  The V returned is that of the last sweep.
    """
    traces = _window_traces(lo, hi)
    V = opts.pick_v(x_scale)
    if not opts.validate:
        gv = trace_engine.gv_per_trace(traces, V, cutoff_mult=opts.cutoff_mult)
        return traces, gv, float(np.dot(traces.weight, gv)), V, 0.0
    gv, quarter = trace_engine.gv_sweep(traces, (V, V / 4.0), cutoff_mult=opts.cutoff_mult)
    for retry in range(MAX_RETRIES + 1):
        raw = float(np.dot(traces.weight, gv))
        band = abs(raw - float(np.dot(traces.weight, quarter))) * PSI_CONSTANT
        if retry == MAX_RETRIES or band <= opts.tol * max(abs(raw) * PSI_CONSTANT, 1.0):
            break
        V *= 4.0
        quarter, gv = gv, trace_engine.gv_per_trace(traces, V, cutoff_mult=opts.cutoff_mult)
    return traces, gv, raw, V, band


def psi(X: float, opts: PsiOptions | None = None) -> GeodesicCountResult:
    """Weighted geodesic count Psi(X) with main term X^2/2.

    Exact trace enumeration (condition 1 < thr(n) <= X tested per trace),
    smoothed L1 values from one ideal-major sweep at a global V.
    """
    _require_positive(X=X)
    if X < 10:
        raise ValueError("X must be >= 10")
    opts = opts or PsiOptions()
    traces, gv, raw, V, band = _evaluate_window(1.0, float(X), opts, X)
    value = PSI_CONSTANT * raw
    main = X * X / 2.0
    return GeodesicCountResult(X=float(X), psi=value, main=main,
                               remainder=value - main,
                               constant_used=PSI_CONSTANT, v_used=V,
                               band=band, n_terms=len(traces))


def psi_short_interval(X: float, Y: float,
                       opts: PsiOptions | None = None) -> ShortIntervalResult:
    """Psi(X+Y) - Psi(X) summed directly over thresholds in (X, X+Y].

    main = XY + Y^2/2; normalized_error = remainder/(XY).  With a fixed
    opts.V the interval sums are additive across a partition of (X, X+Y]
    up to float associativity (the trace sets partition exactly).
    """
    _require_positive(X=X, Y=Y)
    if not 1 <= Y <= X:
        raise ValueError("need 1 <= Y <= X")
    opts = opts or PsiOptions()
    traces, gv, raw, V, band = _evaluate_window(float(X), float(X + Y), opts, X + Y)
    diff = PSI_CONSTANT * raw
    main = X * Y + Y * Y / 2.0
    return ShortIntervalResult(X=float(X), Y=float(Y), difference=diff,
                               main=main, remainder=diff - main,
                               normalized_error=(diff - main) / (X * Y),
                               v_used=V, band=band, n_terms=len(traces))


def trace_terms(X: float, opts: PsiOptions | None = None) -> list[TraceTerm]:
    """Per-trace terms of psi(X) (thresholds, weights, smoothed L1 values)."""
    _require_positive(X=X)
    opts = opts or PsiOptions()
    traces = _window_traces(1.0, float(X))
    V = opts.pick_v(X)
    gv = trace_engine.gv_per_trace(traces, V, cutoff_mult=opts.cutoff_mult)
    out = []
    for j in range(len(traces)):
        n = GaussianInt(int(traces.na[j]), int(traces.nb[j]))
        delta = n * n - GaussianInt(4, 0)
        out.append(TraceTerm(
            n=n, threshold=float(traces.thr[j]), weight=float(traces.weight[j]),
            L1=SmoothedValue(delta=delta, V=V, value=float(gv[j]),
                             tail_estimate=_tail_estimate(V))))
    return out


# ---------------------------------------------------------------------------
# smoothing kernel
# ---------------------------------------------------------------------------

def _bump(t):
    """exp(-1/(t(1-t))) on (0,1), 0 outside; elementwise on an array."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (ti * (1.0 - ti)))
    return out[()]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _integrate(f, a, b, segments: int = 64):
    """Composite 16-point Gauss-Legendre of f on [a, b] (0 where b <= a).

    a and b are floats or arrays of one shape, one integral per element; f
    maps an array of nodes to an array of values and is called once, on the
    nodes of every integral.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    edges = np.linspace(a, b, segments + 1, axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    vals = f(mid[..., None] + half[..., None] * _GL_NODES)
    return np.where(b > a, (half * (vals @ _GL_WEIGHTS)).sum(axis=-1), 0.0)[()]


@cache
def _bump_mass() -> float:
    return float(_integrate(_bump, 0.0, 1.0, segments=128))


@dataclass
class KernelSpec:
    """Unit-mass smooth bump supported on (Y, 2Y).

    k(u) = exp(-1/(t(1-t))) / (I0 * Y), t = (u-Y)/Y, with I0 the mass of
    the unnormalized bump; the cdf is evaluated by composite quadrature
    (cached prefix grid, absolute tolerance well below 1e-8).  value and
    cdf are elementwise on arrays of u.
    """

    Y: float
    _prefix: np.ndarray = field(init=False, repr=False)
    _grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_positive(Y=self.Y)
        m = 512
        self._grid = np.linspace(0.0, 1.0, m + 1)
        cells = _integrate(_bump, self._grid[:-1], self._grid[1:], segments=4)
        self._prefix = np.concatenate(([0.0], np.cumsum(cells))) / _bump_mass()
        if abs(self._prefix[-1] - 1.0) > 1e-8:
            raise ValueError("kernel mass is off unit by more than 1e-8")

    def value(self, u):
        t = (u - self.Y) / self.Y
        return _bump(t) / (_bump_mass() * self.Y)

    @property
    def mass(self) -> float:
        """Total mass by quadrature; equals 1 up to quadrature error."""
        return float(self._prefix[-1])

    def cdf(self, u):
        """integral of k from -inf to u: 0 up to Y, 1 from 2Y on."""
        t = (np.asarray(u, dtype=np.float64) - self.Y) / self.Y
        inside = np.clip(t, 0.0, 1.0)
        i = np.minimum((inside * (len(self._grid) - 1)).astype(np.int64), len(self._grid) - 2)
        part = _integrate(_bump, self._grid[i], inside, segments=2) / _bump_mass()
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, self._prefix[i] + part))[()]

    def derivative_l1(self) -> float:
        """integral |k'(u)| du, numerically (= 2 max k for a unimodal bump).
        Every quadrature node lies inside (Y, 2Y), where t(1-t) > 0."""
        def dk(u):
            t = (u - self.Y) / self.Y
            inner = (2.0 * t - 1.0) / (t * (1.0 - t)) ** 2
            return np.abs(_bump(t) * inner) / (_bump_mass() * self.Y**2)
        return float(_integrate(dk, self.Y, 2.0 * self.Y, segments=256))


def psi_smoothed(X: float, kernel: KernelSpec,
                 opts: PsiOptions | None = None) -> float:
    """Psi(X, k) = integral Psi(X+u) k(u) du by exact sum-integral exchange.

    Each trace contributes weight * L1 * (1 - cdf(thr - X)): full weight
    once thr <= X+Y, zero beyond X+2Y, quadrature cdf in between, one
    kernel.cdf call over the traces of (X+Y, X+2Y].
    """
    _require_positive(X=X)
    opts = opts or PsiOptions()
    Y = kernel.Y
    hi = X + 2.0 * Y
    traces = _window_traces(1.0, hi)
    V = opts.pick_v(hi)
    gv = trace_engine.gv_per_trace(traces, V, cutoff_mult=opts.cutoff_mult)
    w = np.ones(len(traces))
    edge = traces.thr > X + Y
    w[edge] = 1.0 - kernel.cdf(traces.thr[edge] - X)
    return PSI_CONSTANT * float(np.sum(traces.weight * gv * w))


def psi_profile(X: float, Y: float, opts: PsiOptions | None = None):
    """(thresholds, cumulative) so that Psi(X+u) = cumulative at thr <= X+u.

    One sweep covering thresholds up to X+2Y; useful for integrating
    u -> Psi(X+u) directly against a kernel.
    """
    _require_positive(X=X, Y=Y)
    opts = opts or PsiOptions()
    hi = X + 2.0 * Y
    traces = _window_traces(1.0, hi)
    V = opts.pick_v(hi)
    gv = trace_engine.gv_per_trace(traces, V, cutoff_mult=opts.cutoff_mult)
    contrib = PSI_CONSTANT * traces.weight * gv
    return traces.thr, np.cumsum(contrib)


# ---------------------------------------------------------------------------
# tower statistics
# ---------------------------------------------------------------------------

@dataclass
class TowerStats:
    """Q, per-discriminant tower counts, and their maximum for a trace window."""

    X: float
    Y: float
    Q: float
    per_D_counts: dict      # canonical pair of (D) -> count of distinct deltas
    N_max: int
    card: int               # number of distinct deltas in the window

    def __post_init__(self):
        if self.per_D_counts and self.N_max != max(self.per_D_counts.values()):
            raise ValueError("N_max inconsistent with per_D_counts")


def tower_stats(X: float, Y: float) -> TowerStats:
    """Group the discriminants of the window X < N(n) <= X+Y by their D.

    The window is in N(n) (the discriminant set of the short-interval
    analysis); deltas are deduplicated as elements, then split and grouped
    by the ideal of the pinned fundamental generator D.
    """
    _require_positive(X=X, Y=Y)
    deltas = {}
    for b, row in disk_rows(X, X + Y):
        for a in row.tolist():
            n = GaussianInt(a, b)
            delta = n * n - GaussianInt(4, 0)
            if characters.is_perfect_square(delta):
                continue
            deltas[delta.pair] = n
    counts: dict = {}
    qmax = 0.0
    for dp, n in deltas.items():
        delta = GaussianInt.from_pair(dp)
        split = characters.discriminant_split(delta)
        key = canonical_pair(split.D.pair)
        counts[key] = counts.get(key, 0) + 1
        qmax = max(qmax, float(delta.norm()))
    n_max = max(counts.values()) if counts else 0
    return TowerStats(X=float(X), Y=float(Y), Q=2.0 + qmax,
                      per_D_counts=counts, N_max=n_max, card=len(deltas))
