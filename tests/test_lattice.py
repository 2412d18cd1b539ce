"""Shifted-circle counts and the remainder-exponent sweep."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pgt.errors import CutoffExceededError
from pgt.gaussian import GaussianInt, ResidueRing, canonical_rep, ideal_reps_upto
from pgt.harness import fit_exponent
from pgt.lattice import (EtaFit, circle_count, eta_fit, residue_class_count)
from pgt.quad_counts import lambda_partial_sum

G = GaussianInt


def test_circle_examples():
    assert circle_count((0, 0), 1).count == 5
    assert circle_count((0, 0), 2).count == 9
    assert circle_count((Fraction(1, 2), Fraction(1, 2)), Fraction(49, 100)).count == 0


def test_circle_monotone_in_m():
    prev = -1
    for M in (0, 1, 2, 3, 5, 8, 13, 21, 50, 100):
        c = circle_count((Fraction(1, 3), Fraction(2, 7)), M).count
        assert c >= prev
        prev = c


def test_circle_translation_invariance_integer_centers():
    for bx in range(-3, 4):
        for by in range(-3, 4):
            for M in (1, 2, 10, 25):
                assert circle_count((bx, by), M).count == \
                    circle_count((0, 0), M).count


def test_circle_boundary_points_included():
    # closed ball: (3,4) etc. lie exactly on radius 5
    assert circle_count((0, 0), 25).count - circle_count((0, 0), 24).count == 12


def test_circle_exact_vs_float_path():
    for M in (10, 100, 1000):
        exact = circle_count((Fraction(1, 4), Fraction(3, 8)), M).count
        fl = circle_count((0.25, 0.375), float(M)).count
        assert exact == fl


def test_circle_against_brute_force():
    for (bx, by) in [(Fraction(1, 3), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(7, 5), Fraction(-2, 3))]:
        for M in (Fraction(7), Fraction(33, 2), Fraction(101)):
            want = 0
            r = math.isqrt(int(M)) + 3
            for x in range(-r - 3, r + 4):
                for y in range(-r - 3, r + 4):
                    if (x - bx) ** 2 + (y - by) ** 2 <= M:
                        want += 1
            assert circle_count((bx, by), M).count == want


def test_circle_cap():
    with pytest.raises(CutoffExceededError):
        circle_count((0, 0), 2e9)


@pytest.mark.parametrize("M", [math.nan, -0.5, -5, Fraction(-1, 3), math.inf, -math.inf])
def test_circle_rejects_negative_and_nan_m(M):
    # nan and -0.5 used to count 0 points, -5 to fail the perimeter bound;
    # as a disk bound Z, +-inf raised OverflowError in an integer conversion,
    # and nan got past lambda_partial_sum's Z < 1 check
    with pytest.raises(ValueError, match="M must lie in"):
        circle_count((0.5, 0.25), M)
    with pytest.raises(ValueError, match="M must lie in"):
        circle_count((0, 0), M)
    q = canonical_rep(G(2, 1))
    with pytest.raises(ValueError, match="Z must be finite"):
        residue_class_count(G(1, 0), q, M)
    with pytest.raises(ValueError, match="Z must be finite"):
        lambda_partial_sum(q, M)


def test_eta_fit_rejects_nan_m():
    # used to return a nan exponent
    with pytest.raises(ValueError):
        eta_fit([1e3, math.nan], n_centers=3, seed=1)


_small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(_small_fraction, _small_fraction,
       st.fractions(min_value=0, max_value=60, max_denominator=12))
@settings(max_examples=150, deadline=None)
def test_circle_exact_path_matches_double_loop(bx, by, M):
    r = math.isqrt(int(M)) + 7
    want = sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1)
               if (x - bx) ** 2 + (y - by) ** 2 <= M)
    assert circle_count((bx, by), M).count == want


def test_residue_class_examples():
    one = canonical_rep(G(1, 0))
    r = residue_class_count(G(0, 0), one, 1)
    assert r.count == 5  # 0 and the four units
    flagged = residue_class_count(G(1, 0), canonical_rep(G(3, 0)), 2)
    assert flagged.below_main_one


def test_residue_class_partition():
    # classes partition the disk count exactly
    for qp in ideal_reps_upto(50):
        q = canonical_rep(G(*qp))
        Z = 400
        ring = ResidueRing(qp)
        total = sum(residue_class_count(G(*b), q, Z).count
                    for b in ring.representatives())
        assert total == circle_count((0, 0), Z).count, qp


def test_residue_class_remainder_envelope():
    q = canonical_rep(G(2, 1))
    r = residue_class_count(G(1, 0), q, 10**4)
    assert abs(r.remainder) <= 4.0 * (10**4 / 5) ** 0.35


def test_eta_fit_deterministic_and_bounds():
    f1 = eta_fit([1e3, 1e4, 1e5], n_centers=25, seed=7)
    f2 = eta_fit([1e3, 1e4, 1e5], n_centers=25, seed=7)
    assert f1.samples == f2.samples
    assert f1.fitted_exponent == f2.fitted_exponent
    fit = fit_exponent(f1.samples)
    assert f1.fitted_exponent == fit.slope
    assert f1.constant == math.exp(fit.intercept)
    f3 = eta_fit([1e3, 1e4, 1e5], n_centers=25, seed=8)
    assert f3.samples != f1.samples
    assert isinstance(f1, EtaFit)
    assert len(f1.residuals) == 3


def test_eta_fit_needs_two_points():
    with pytest.raises(ValueError):
        eta_fit([1e4], n_centers=5, seed=1)
    # and at least one center: with none, every sample read 0 and the fit
    # returned exponent 0 with constant 1e-300
    with pytest.raises(ValueError):
        eta_fit([1e3, 1e4], n_centers=0, seed=1)
