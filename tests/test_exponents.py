"""The balancing equations and every anchored exponent value."""

import math
from fractions import Fraction

import pytest

from pgt.exponents import (alpha_of, beta_of, corollary_exponents,
                           short_interval_exponents, solve_alpha, solve_beta,
                           uncond_system)

ROOT = math.sqrt(31049.0)


def test_solve_beta_anchor():
    nu = (197.0 - ROOT) / 32.0
    sigma, beta = solve_beta(nu)
    assert sigma == pytest.approx(0.93812, abs=1e-4)
    assert beta / 2.0 == pytest.approx(0.024773, abs=1e-5)


def test_solve_beta_degenerates_at_third():
    _, beta = solve_beta(1.0 / 3.0 + 1e-9)
    assert beta == pytest.approx(0.0, abs=1e-8)


def test_solve_beta_residual_and_monotone():
    prev = -1.0
    for nu in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        sigma, beta = solve_beta(nu)
        lhs = 20.0 * (1.0 - sigma) / (3.0 - sigma) - nu
        rhs = (sigma - 1.0) * (3.0 * nu - 1.0) / (4.0 - 3.0 * sigma)
        assert abs(lhs - rhs) <= 1e-10
        assert beta == pytest.approx(beta_of(nu, sigma))
        assert beta > prev
        prev = beta


def test_solve_beta_range():
    with pytest.raises(ValueError):
        solve_beta(1.0 / 3.0)
    with pytest.raises(ValueError):
        solve_beta(1.2)


def test_solve_alpha_zero_at_equal_arguments():
    # nu -> eta kills the (nu - eta) factor
    sigma, alpha = solve_alpha(0.3300001, 0.33)
    assert alpha == pytest.approx(0.0, abs=1e-6)


def test_solve_alpha_residual_and_monotone():
    eta = 131.0 / 416.0
    prev = -1.0
    for nu in (0.4, 0.5, 0.7, 0.9):
        sigma, alpha = solve_alpha(nu, eta)
        lhs = 1.0 + 20.0 * (1.0 - sigma) / (3.0 - sigma)
        rhs = 1.0 + eta + (nu - eta) * (1.0 - eta) / (2.0 - eta - sigma)
        assert abs(lhs - rhs) <= 1e-10
        assert alpha == pytest.approx(alpha_of(nu, eta, sigma))
        assert alpha > prev
        prev = alpha


def test_solve_alpha_range():
    with pytest.raises(ValueError):
        solve_alpha(0.5, 0.2)
    with pytest.raises(ValueError):
        solve_alpha(0.3, 0.31)


def test_continuity_on_grids():
    step = 0.01
    prev = solve_beta(0.6)[1]
    for k in range(1, 11):
        cur = solve_beta(0.6 + k * step)[1]
        assert abs(cur - prev) < 0.05 * step * 20
        prev = cur


def test_uncond_system_anchors():
    s = uncond_system()
    assert s["pointwise_exponent"] == pytest.approx(1.60023, abs=1e-5)
    assert s["sigma"] == pytest.approx(0.93812, abs=1e-4)
    assert s["nu"] == pytest.approx(0.649773, abs=1e-5)
    assert s["closed_form_residual"] <= 1e-10
    cf = s["closed_forms"]
    assert cf["sigma"] == pytest.approx((619.0 - ROOT) / 472.0, rel=1e-14)
    assert cf["nu"] == pytest.approx((197.0 - ROOT) / 32.0, rel=1e-14)
    assert cf["beta_half"] == pytest.approx((177.0 - ROOT) / 32.0, rel=1e-12)


def test_corollary_exponents_exact():
    c = corollary_exponents(Fraction(1, 6))
    assert c["pointwise"] == Fraction(67, 42)
    c0 = corollary_exponents(0)
    assert c0["pointwise_mean_lindelof"] == Fraction(34, 23)
    assert corollary_exponents(Fraction(1, 4))["pointwise_trivial_spectral"] == \
        Fraction(5, 3)
    assert corollary_exponents(Fraction(3, 16))["pointwise_trivial_spectral"] == \
        Fraction(13, 8)
    assert c["balancing_Y_exponent"] == Fraction(55, 84)  # (21 - 16/6)/28


def test_corollary_range():
    with pytest.raises(ValueError):
        corollary_exponents(Fraction(1, 3))


def test_short_interval_exponents():
    s0 = short_interval_exponents(0)
    assert s0["subconvex_X_exponent"] == Fraction(6, 5)
    assert s0["subconvex_Y_exponent"] == Fraction(2, 5)
    assert s0["gauss_X_exponent"] == Fraction(11, 10)
    assert s0["gauss_Y_exponent"] == Fraction(3, 5)
    s6 = short_interval_exponents(Fraction(1, 6))
    assert s6["V_X_exponent"] == 0          # algebraic cancellation at theta = 1/6
    assert s6["V_Y_exponent"] == Fraction(6, 5)

