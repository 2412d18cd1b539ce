"""Spectral sums, eigenvalue file handling, and the explicit-formula shapes.

The package ships no spectrum; tests run on synthetic tables (labeled as
such) that exercise the machinery and the conditional skip paths.
"""

import math

import pytest

from pgt import calibration as cal
from pgt.errors import EigenvalueFileError
from pgt.geodesics import KernelSpec, PsiOptions, psi
from pgt.spectral import (EigenvalueTable, explicit_formula_residual,
                          load_eigenvalues, smoothed_spectral_side,
                          spectral_sum, stx_bound_report, weyl_law_exponent)


def synthetic_table(count=200, power=3.0):
    # r_j chosen so that #(r <= T) ~ T^power, like a Weyl law
    rs = [ (j / 2.0) ** (1.0 / power) * 4.0 for j in range(1, count + 1)]
    return EigenvalueTable(r_values=rs, source="synthetic test data")


def test_table_validation():
    with pytest.raises(ValueError):
        EigenvalueTable(r_values=[1.0, 1.0])
    with pytest.raises(ValueError):
        EigenvalueTable(r_values=[-1.0, 2.0])
    # a nan used to pass both the sign and the ascending check
    for bad in ([1.0, math.nan, 0.5], [1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError):
            EigenvalueTable(r_values=bad)
    t = EigenvalueTable(r_values=[])
    assert t.count_upto(10.0) == 0


def test_load_eigenvalues(tmp_path):
    p = tmp_path / "eigs.txt"
    p.write_text("# source: synthetic fixture\n\n# comment\n1.5\n2.25\n10.0\n")
    t = load_eigenvalues(str(p))
    assert t.r_values == [1.5, 2.25, 10.0]
    assert t.source == "synthetic fixture"
    assert len(t.checksum) == 64

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert load_eigenvalues(str(empty)).r_values == []

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n0.5\n")
    with pytest.raises(EigenvalueFileError) as err:
        load_eigenvalues(str(bad))
    assert err.value.line == 2

    neg = tmp_path / "neg.txt"
    neg.write_text("-3\n")
    with pytest.raises(EigenvalueFileError):
        load_eigenvalues(str(neg))

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("1.0\nnot-a-number\n")
    with pytest.raises(EigenvalueFileError) as err:
        load_eigenvalues(str(garbled))
    assert err.value.line == 2

    # non-finite entries: this file used to load as [6.6, nan, 3.0, inf]
    for text, line in (("6.6\nnan\n3.0\ninf\n", 2), ("1.0\ninf\n", 2), ("-inf\n", 1)):
        nonfinite = tmp_path / "nonfinite.txt"
        nonfinite.write_text(text)
        with pytest.raises(EigenvalueFileError) as err:
            load_eigenvalues(str(nonfinite))
        assert err.value.line == line


def test_spectral_sum_at_x_one_counts():
    t = synthetic_table(50)
    for T in (1.0, 3.0, 7.0):
        s = spectral_sum(t, T, 1.0)
        assert s == pytest.approx(t.count_upto(T))
    assert spectral_sum(t, 0.0, 100.0) == 0


@pytest.mark.parametrize("T, X", [(math.nan, 10.0), (-1.0, 10.0), (1.0, math.nan),
                                  (1.0, 0.5), (1.0, math.inf)])
def test_spectral_sum_rejects_out_of_range(T, X):
    # T = nan used to return 0j
    with pytest.raises(ValueError):
        spectral_sum(synthetic_table(10), T, X)


def test_spectral_sum_triangle_and_additivity():
    t = synthetic_table(80)
    X = 137.0
    full = spectral_sum(t, 10.0, X)
    assert abs(full) <= t.count_upto(10.0) + 1e-12
    # additive over disjoint ranges: sum over (0,5] plus (5,10]
    low = spectral_sum(t, 5.0, X)
    high = sum(complex(math.cos(r * math.log(X)), math.sin(r * math.log(X)))
               for r in t.r_values if 5.0 < r <= 10.0)
    assert full == pytest.approx(low + high, abs=1e-10)


def test_stx_report_shapes():
    t = EigenvalueTable(r_values=[2.0], source="one eigenvalue")
    rows = stx_bound_report(t, [4.0, 8.0, 16.0], [10.0, 100.0])
    ratios = {}
    for T, X, s, ratio in rows:
        assert math.isfinite(ratio)
        ratios.setdefault(X, []).append(ratio)
    for X, rr in ratios.items():
        assert rr == sorted(rr, reverse=True)  # single eigenvalue: 1/(T^2 X^(1/4))
    with pytest.raises(ValueError):
        stx_bound_report(EigenvalueTable(r_values=[]), [1], [1])


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
def test_stx_report_rejects_bad_t(T):
    # T = 0 used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="T must be > 0"):
        stx_bound_report(synthetic_table(10), [4.0, T], [10.0])


_RANGE = "need T >= 0 and a finite X >= 1"


@pytest.mark.parametrize("X, T, psi_value, match", [
    (0.0, 5.0, 100.0, _RANGE), (-5.0, 5.0, 100.0, _RANGE), (math.nan, 5.0, 100.0, _RANGE),
    (math.inf, 5.0, 100.0, _RANGE), (100.0, math.nan, 100.0, _RANGE),
    (100.0, -1.0, 100.0, _RANGE), (100.0, 5.0, math.nan, "geodesic_psi"),
    (100.0, 5.0, math.inf, "geodesic_psi")])
def test_explicit_formula_rejects_bad_inputs(X, T, psi_value, match):
    # X <= 0 used to raise "math domain error"; X = nan or psi = nan
    # returned a residual of nan
    with pytest.raises(ValueError, match=match):
        explicit_formula_residual(synthetic_table(10), X, T, psi_value)


@pytest.mark.parametrize("X, T", [(-5.0, 5.0), (0.0, 5.0), (math.nan, 5.0), (math.inf, 5.0),
                                  (100.0, math.nan), (100.0, -1.0)])
def test_smoothed_side_rejects_bad_inputs(X, T):
    # X = -5 used to raise TypeError, X = nan to die in int(), and T = nan
    # to drop every eigenvalue silently
    with pytest.raises(ValueError, match=_RANGE):
        smoothed_spectral_side(synthetic_table(10), X, T, KernelSpec(Y=4.0))


def test_explicit_formula_empty_table_is_geodesic_error():
    r = psi(400.0, PsiOptions(V=1000.0, validate=False))
    res = explicit_formula_residual(EigenvalueTable(r_values=[]), 400.0, 10.0, r.psi)
    assert res.residual == pytest.approx(abs(r.psi - 400.0**2 / 2.0))
    assert res.regime_ok


def test_explicit_formula_regime_flag():
    t = synthetic_table(10)
    res = explicit_formula_residual(t, 100.0, 50.0, 5000.0)
    assert not res.regime_ok  # 50 > sqrt(100)


def test_smoothed_side_empty_table_closed_form():
    # with no eigenvalues the integrand is (X+u)^2/2 * k(u); compare against
    # a high-resolution Simpson reference
    X, Y = 50.0, 8.0
    k = KernelSpec(Y=Y)
    side = smoothed_spectral_side(EigenvalueTable(r_values=[]), X, 5.0, k)
    m = 20000
    h = Y / m
    ref = 0.0
    for i in range(m + 1):
        u = Y + i * h
        w = 1 if i in (0, m) else (4 if i % 2 else 2)
        ref += w * 0.5 * (X + u) ** 2 * k.value(u)
    ref *= h / 3.0
    assert side.value == pytest.approx(ref, rel=1e-6)


def test_smoothed_side_regime_flag():
    k = KernelSpec(Y=4.0)
    t = synthetic_table(5)
    side = smoothed_spectral_side(t, 1000.0, 2.0, k, xi=0.1)
    assert not side.regime_ok


def test_kernel_mass_perturbation_is_linear():
    # scaling the kernel scales the empty-table spectral side linearly
    X, Y = 40.0, 6.0
    k = KernelSpec(Y=Y)
    base = smoothed_spectral_side(EigenvalueTable(r_values=[]), X, 1.0, k).value

    class Scaled:
        Y = k.Y
        def value(self, u):
            return 1.01 * k.value(u)
    scaled = smoothed_spectral_side(EigenvalueTable(r_values=[]), X, 1.0, Scaled())
    assert scaled.value == pytest.approx(1.01 * base, rel=1e-9)


def test_integration_by_parts_decay():
    # | integral (X+u)^(1+ir) k(u) du | <= C X^(1+l) / (r Y)^l at l = 2;
    # the envelope C = 60 was recorded from the same sweep (max 57 at the
    # pre-asymptotic edge r Y ~ 10 X); far beyond that the smooth bump
    # decays faster than any fixed l, so the ratio itself drops below 1
    from pgt.geodesics import _integrate
    X, Y = 200.0, 25.0
    k = KernelSpec(Y=Y)
    ratios = {}
    for r in (40.0, 80.0, 160.0, 320.0, 640.0):
        def f(u, r=r):
            z = (X + u) ** complex(1.0, r)
            return (z * k.value(u)).real
        def fim(u, r=r):
            z = (X + u) ** complex(1.0, r)
            return (z * k.value(u)).imag
        segs = max(256, int(r * Y / X * 16))
        val = complex(_integrate(f, Y, 2 * Y, segs), _integrate(fim, Y, 2 * Y, segs))
        ratios[r] = abs(val) / (X ** 3 / (r * Y) ** 2)
    assert all(v <= cal.BYPARTS_L2_ENVELOPE for v in ratios.values()), ratios
    assert ratios[640.0] < 1.0


def test_weyl_law_exponent_synthetic():
    t = synthetic_table(4000, power=3.0)
    exp = weyl_law_exponent(t)
    assert exp is not None
    assert abs(exp - 3.0) < 0.3
    # narrow tables refuse to fit
    narrow = EigenvalueTable(r_values=[1.0, 1.5, 2.0])
    assert weyl_law_exponent(narrow) is None


def test_determinism():
    t = synthetic_table(300)
    a = spectral_sum(t, 12.0, 55.5)
    b = spectral_sum(t, 12.0, 55.5)
    assert a == b
