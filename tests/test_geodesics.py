"""Geodesic counts, short intervals, smoothing, and tower statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pgt import calibration as cal
from pgt.errors import CutoffExceededError
from pgt.gaussian import GaussianInt
from pgt.geodesics import (KernelSpec, PsiOptions, psi, psi_profile,
                           psi_short_interval, psi_smoothed, tower_stats,
                           trace_terms, trace_threshold)
from pgt import trace_engine

G = GaussianInt


def test_threshold_exclusions():
    for n in [G(0, 0), G(2, 0), G(-2, 0), G(1, 0), G(-1, 0)]:
        assert trace_threshold(n) is None
    # excluded-by-consequence: every other small trace is admissible
    for n in [G(0, 1), G(1, 1), G(3, 0), G(2, 1)]:
        assert trace_threshold(n) is not None


def test_threshold_value_n3():
    t = trace_threshold(G(3, 0))
    want = ((3.0 + math.sqrt(5.0)) / 2.0) ** 2
    assert t == pytest.approx(want, rel=1e-12)


def test_threshold_root_product_unity():
    # N(z) N(z^-1) = 1 for every admissible trace
    for a in range(-12, 13):
        for b in range(-12, 13):
            n = complex(a, b)
            root = np.sqrt(complex(n * n - 4))
            t1 = abs((n + root) / 2) ** 2
            t2 = abs((n - root) / 2) ** 2
            if max(t1, t2) > 1.0:
                assert t1 * t2 == pytest.approx(1.0, rel=1e-10)


@settings(max_examples=30, deadline=None)
@example(50.0, 70.0)
@given(st.floats(0.0, 400.0), st.floats(0.5, 200.0))
def test_trace_set_window_matches_threshold_filter(lo, width):
    hi = lo + width
    ts = trace_engine.trace_set(lo, hi)
    for j in range(len(ts)):
        assert lo < ts.thr[j] <= hi
    # exactly the admissible traces of a box around the window, in
    # (threshold, re, im) order
    r = math.isqrt(int(hi)) + 3
    want = sorted((trace_engine.threshold_of_pair(a, b), a, b)
                  for a in range(-r, r + 1) for b in range(-r, r + 1))
    want = [(a, b) for t, a, b in want if lo < t <= hi and t > 1.0]
    assert list(zip(ts.na.tolist(), ts.nb.tolist())) == want


def test_trace_window_excludes_n3_below_its_threshold():
    # thr(3) = 6.854..., so the window up to 6 omits it while keeping the
    # small complex traces
    ts = trace_engine.trace_set(1.0, 6.0)
    pairs = {(int(a), int(b)) for a, b in zip(ts.na, ts.nb)}
    assert (3, 0) not in pairs and (-3, 0) not in pairs
    assert (0, 1) in pairs  # thr = ((1+sqrt(5))/2)^2 = 2.618
    ts7 = trace_engine.trace_set(1.0, 7.0)
    pairs7 = {(int(a), int(b)) for a, b in zip(ts7.na, ts7.nb)}
    assert (3, 0) in pairs7


def test_psi_excludes_small_thresholds():
    # X = 10: n = 3 has threshold 6.85 (included); 2+i has 8.35 (included)
    r = psi(10.0, PsiOptions(V=500.0, validate=False))
    assert r.n_terms == 26
    r2 = psi(11.0, PsiOptions(V=500.0, validate=False))
    assert r2.n_terms >= r.n_terms


def test_psi_monotone_and_positive():
    opts = PsiOptions(V=1000.0, validate=False)
    values = [psi(x, opts).psi for x in (100.0, 200.0, 400.0, 800.0)]
    assert all(v > 0 for v in values)
    assert values == sorted(values)


def test_psi_near_main_term():
    r = psi(1000.0)
    assert abs(r.psi / r.main - 1.0) < 0.05
    assert r.remainder == pytest.approx(r.psi - r.main)
    assert r.constant_used == pytest.approx(1.0 / math.pi)


def test_psi_cap():
    # every entry point checks its upper threshold X, X+Y or X+2Y
    calls = [lambda: psi(1e5),
             lambda: psi_short_interval(2.9e4, 2e3),
             lambda: psi_smoothed(2.9e4, KernelSpec(Y=1e3)),
             lambda: psi_profile(2.9e4, 1e3),
             lambda: trace_terms(1e5)]
    for call in calls:
        with pytest.raises(CutoffExceededError):
            call()


def test_short_interval_consistency_with_psi_difference():
    opts = PsiOptions(V=1500.0, validate=False)
    a = psi(600.0, opts)
    b = psi(1200.0, opts)
    d = psi_short_interval(600.0, 600.0, opts)
    assert d.difference == pytest.approx(b.psi - a.psi, rel=1e-9)


def test_short_interval_additivity_partition():
    opts = PsiOptions(V=1500.0, validate=False)
    a = psi_short_interval(700.0, 100.0, opts)
    b = psi_short_interval(800.0, 250.0, opts)
    c = psi_short_interval(700.0, 350.0, opts)
    assert a.difference + b.difference == pytest.approx(c.difference, rel=1e-12)
    assert a.n_terms + b.n_terms == c.n_terms


def test_short_interval_nonnegative_and_trivial_bound():
    r = psi_short_interval(2000.0, 180.0)
    assert r.difference >= 0
    assert r.difference <= cal.TRIVIAL_BOUND_C * 2000.0**(1 + cal.TRIVIAL_BOUND_EPS) * 180.0


def test_trace_terms_invariants():
    from pgt.characters import discriminant_split, is_perfect_square
    terms = trace_terms(60.0, PsiOptions(V=400.0))
    assert terms
    for t in terms:
        assert t.threshold > 1.0
        assert t.weight == pytest.approx(
            math.sqrt(float((t.n * t.n - G(4, 0)).norm())))
        assert t.L1.value > 0
        delta = t.n * t.n - G(4, 0)
        assert not is_perfect_square(delta)
    # every included discriminant splits cleanly
    for t in terms[:8]:
        discriminant_split(t.n * t.n - G(4, 0))


def test_kernel_mass_and_support():
    k = KernelSpec(Y=30.0)
    assert abs(k.mass - 1.0) < 1e-8
    assert k.value(30.0) == 0.0 and k.value(60.0) == 0.0
    assert k.value(45.0) > 0
    assert k.cdf(29.0) == 0.0
    assert k.cdf(61.0) == 1.0
    assert k.cdf(45.0) == pytest.approx(0.5, abs=1e-9)  # symmetric bump


def test_kernel_mass_independent_quadrature():
    # Simpson on a fine grid as an independent check of the mass
    k = KernelSpec(Y=10.0)
    m = 4000
    h = 10.0 / m
    total = 0.0
    for i in range(m + 1):
        u = 10.0 + i * h
        w = 1 if i in (0, m) else (4 if i % 2 else 2)
        total += w * k.value(u)
    total *= h / 3.0
    assert total == pytest.approx(1.0, abs=1e-8)


def test_kernel_derivative_l1_scaling():
    # integral |k'| <= C / Y with the same C across Y
    c1 = KernelSpec(Y=20.0).derivative_l1() * 20.0
    c2 = KernelSpec(Y=200.0).derivative_l1() * 200.0
    assert c1 == pytest.approx(c2, rel=1e-6)
    assert c1 < 6.0


def test_smoothed_sandwich_and_mass_weighting():
    X = 200.0
    k = KernelSpec(Y=30.0)
    opts = PsiOptions(V=1000.0, validate=False)
    lo = psi(X, opts).psi
    hi = psi(X + 2 * k.Y, opts).psi
    sm = psi_smoothed(X, k, opts)
    assert lo <= sm <= hi
    # all thresholds <= X+Y get weight exactly 1
    full = psi(X + k.Y, opts).psi
    assert sm >= full - 1e-9


def test_smoothed_matches_direct_quadrature():
    X, Y = 300.0, 40.0
    k = KernelSpec(Y=Y)
    opts = PsiOptions(V=1200.0, validate=False)
    sm = psi_smoothed(X, k, opts)
    thr, cum = psi_profile(X, Y, opts)

    def psi_at(u):
        idx = int(np.searchsorted(thr, X + u, side="right"))
        return float(cum[idx - 1]) if idx else 0.0

    knots = sorted({Y, 2 * Y} | {float(t - X) for t in thr if Y < t - X < 2 * Y})
    direct = sum(psi_at(0.5 * (a + b)) * (k.cdf(b) - k.cdf(a))
                 for a, b in zip(knots[:-1], knots[1:]))
    assert sm == pytest.approx(direct, rel=1e-6)


def test_tower_stats_shapes():
    ts = tower_stats(1000.0, 125.0)
    # N(n^2 - 4) <= (N(n) + 4)^2, so Q = 2 + max sits under (X+Y+4)^2 + 2
    assert ts.Q <= (1000.0 + 125.0 + 4.0) ** 2 + 2.0
    assert ts.N_max == max(ts.per_D_counts.values())
    assert ts.card == sum(ts.per_D_counts.values())
    assert ts.N_max <= cal.TOWER_NMAX_C * math.log(ts.Q)
    assert ts.card <= cal.TOWER_CARD_C * 125.0 * math.log(1000.0)
