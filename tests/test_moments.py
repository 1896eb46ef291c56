import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowhc import (
    InvalidInput,
    K_constant,
    MomentParams,
    asymptotic_expected_Y,
    claim_derivative_sign,
    claim_f,
    claim_max,
    exact_expected_Y,
    log_expected_Y,
    threshold_general,
    threshold_tight,
    tight_prefactor,
)
from rainbowhc.moments import loose_threshold, two_overlap_threshold

from conftest import enumerate_specs


# -- MomentParams ---------------------------------------------------------------

def test_params_validation():
    with pytest.raises(Exception):
        MomentParams(7, 3, 1, 0.5, 3)  # divisibility
    with pytest.raises(InvalidInput):
        MomentParams(6, 3, 1, 1.5, 3)  # p out of range
    with pytest.raises(InvalidInput):
        MomentParams(6, 3, 1, 0.5, 0)  # r < 1


def test_params_density_floor():
    params = MomentParams.from_color_density(10, 3, 1, 0.5, Fraction(11, 10))
    assert params.r == 11
    params = MomentParams.from_color_density(9, 4, 1, 0.5, Fraction(1, 2))
    assert params.r == 4  # floor(4.5)
    assert params.c == Fraction(4, 9)


# -- exact / log expected Y -------------------------------------------------------

def test_exact_tight_unit_p():
    # n=4, k=3, ell=2, p=1, r=4: 24 * 4!/4^4 = 2.25
    val = exact_expected_Y(MomentParams(4, 3, 2, 1, 4))
    assert val == Fraction(9, 4)


def test_exact_zero_p():
    assert exact_expected_Y(MomentParams(6, 3, 1, 0, 3)) == 0


def test_exact_known_loose_value():
    assert exact_expected_Y(MomentParams(6, 3, 1, Fraction(1, 2), 3)) == 20


def test_exact_r_below_m_is_zero():
    assert exact_expected_Y(MomentParams(6, 3, 1, Fraction(1, 2), 2)) == 0


def test_log_matches_exact():
    for spec in enumerate_specs(7):
        for p in (Fraction(1, 2), Fraction(9, 10)):
            for r in (spec.m, spec.m + 2):
                params = MomentParams(spec.n, spec.k, spec.ell, p, r)
                exact = exact_expected_Y(params)
                logged = log_expected_Y(params)
                assert abs(logged - math.log(exact)) <= 1e-10 * abs(math.log(exact))


def test_log_degenerate_cases():
    assert log_expected_Y(MomentParams(6, 3, 1, 0, 3)) == float("-inf")
    assert log_expected_Y(MomentParams(6, 3, 1, 0.5, 2)) == float("-inf")


def test_log_scales_to_large_n():
    params = MomentParams.from_color_density(10**6, 4, 3, 1e-5, Fraction(1))
    assert math.isfinite(log_expected_Y(params))


# -- asymptotics -------------------------------------------------------------------

def test_asymptotic_needs_feasible_density():
    with pytest.raises(InvalidInput):
        asymptotic_expected_Y(MomentParams.from_color_density(12, 3, 1, 0.5, Fraction(1, 3)))
    with pytest.raises(InvalidInput):
        asymptotic_expected_Y(MomentParams(12, 3, 1, 0, 12))


def test_asymptotic_boundary_branch_has_no_blowup():
    # c = 1/(k-ell): the dense-branch prefactor would divide by r - m = 0
    params = MomentParams.from_color_density(60, 4, 3, 0.05, Fraction(1))
    val = asymptotic_expected_Y(params)
    assert math.isfinite(val)


def test_asymptotic_error_shrinks_with_n():
    errs = []
    for n in (30, 60, 120, 240):
        p = math.e**2 / n
        params = MomentParams.from_color_density(n, 4, 3, p, Fraction(1))
        le = log_expected_Y(params)
        la = asymptotic_expected_Y(params)
        errs.append(abs(le - la) / abs(le))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_asymptotic_dense_and_boundary_consistent():
    # same (n, p): branch values differ only via the prefactor ratio once the
    # density bracket term is accounted; check against a direct recomputation
    n = 120
    p = 0.05
    dense = asymptotic_expected_Y(MomentParams.from_color_density(n, 4, 3, p, Fraction(2)))
    expected = 0.5 * math.log(2 * math.pi * n * 2 * n / (2 * n - n)) + n * (
        math.log(n) + math.log(p) - 2.0 + 1.0 * (math.log(2.0) - math.log(1.0))
    )
    assert abs(dense - expected) < 1e-9
    # just above the boundary (r = m + 1) the branches differ by exactly the
    # prefactor log-ratio plus the vanishing density term of the bracket
    m = n  # k=4, ell=3
    r = m + 1
    c = Fraction(r, n)
    near = asymptotic_expected_Y(MomentParams(n, 4, 3, p, r))
    at_boundary = asymptotic_expected_Y(MomentParams(n, 4, 3, p, m))
    excess = float(c) - 1.0
    predicted_gap = (
        0.5 * math.log(2 * math.pi * n * r / (r - m))
        - math.log(2 * math.pi * n)
        + n * excess * (math.log(float(c)) - math.log(excess))
    )
    assert abs((near - at_boundary) - predicted_gap) < 1e-9


# -- thresholds ---------------------------------------------------------------------

def test_threshold_general_examples():
    assert abs(threshold_general(4, 3, 1, 100) - math.e**2 / 100) < 1e-12
    assert abs(threshold_general(4, 3, 2, 100) - math.e**2 / 200) < 1e-12
    assert abs(threshold_general(5, 3, Fraction(1, 2), 100) - math.e**3 / 100**2) < 1e-12


def test_threshold_general_domain():
    with pytest.raises(InvalidInput):
        threshold_general(3, 1, 1, 100)  # ell < 2
    with pytest.raises(InvalidInput):
        threshold_general(4, 3, Fraction(1, 2), 100)  # c below 1/(k-ell)


def test_threshold_tight_examples():
    assert abs(threshold_tight(4, 1, 100) - 0.0738905609893065) < 1e-12
    assert abs(threshold_tight(4, 2, 100) - 0.03694528049465325) < 1e-12
    with pytest.raises(InvalidInput):
        threshold_tight(3, 1, 100)
    with pytest.raises(InvalidInput):
        threshold_tight(4, Fraction(1, 2), 100)


def test_threshold_tight_matches_general_at_tight_overlap():
    for c in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
        for n in (50, 500):
            assert threshold_tight(4, c, n) == pytest.approx(
                threshold_general(4, 3, c, n), rel=1e-12
            )


def test_prefactor_limits():
    assert tight_prefactor(1) == 1.0
    assert abs(tight_prefactor(Fraction(10**6 + 1, 10**6)) - 1.0) < 1e-4
    assert abs(tight_prefactor(10**6) - 1 / math.e) < 1e-6
    assert abs(tight_prefactor(2) - 0.5) < 1e-15


def test_threshold_tight_continuous_at_c_1():
    n = 100
    base = threshold_tight(4, 1, n)
    near = threshold_tight(4, Fraction(10**6 + 1, 10**6), n)
    assert abs(near / base - 1.0) < 1e-4


# -- K constant ------------------------------------------------------------------

def test_K_values():
    assert K_constant(4) == pytest.approx(4 * 24 * 4 * math.e**5, rel=1e-15)
    assert K_constant(5) == pytest.approx(4 * 120 * 5 * math.e**6, rel=1e-15)
    with pytest.raises(InvalidInput):
        K_constant(3)


@given(st.integers(4, 15))
@settings(max_examples=20, deadline=None)
def test_K_ratio(k):
    ratio = K_constant(k + 1) / K_constant(k)
    assert ratio == pytest.approx((k + 1) ** 2 / k * math.e, rel=1e-12)


# -- omega-style reference thresholds ----------------------------------------------

def test_omega_helpers():
    assert two_overlap_threshold(4, 100, 3.0) == pytest.approx(3.0 / 100**2)
    assert loose_threshold(3, 100, 2.0) == pytest.approx(2.0 * math.log(100) / 100**2)
    with pytest.raises(InvalidInput):
        two_overlap_threshold(4, 100, 0.0)
    with pytest.raises(InvalidInput):
        loose_threshold(3, 100, -1.0)


def test_formulas_past_the_float_range_return_floats():
    # inf above the float range, 0.0 below it, and the quotient through logs
    # where only the power n^d is past it
    # past k = 170, k! is not built at all: k = 10^9 returns at once
    assert K_constant(150) == K_constant(171) == K_constant(10**9) == math.inf
    assert threshold_general(105, 2, 1, 1030) == pytest.approx(
        math.exp(104 - 103 * math.log(1030)), rel=1e-12
    )
    assert two_overlap_threshold(200, 10**4, 1.0) == 0.0
    assert loose_threshold(200, 10**4, 1.0) == 0.0
    assert loose_threshold(120, 400, 1e100) == pytest.approx(
        math.exp(math.log(1e100 * math.log(400)) - 119 * math.log(400)), rel=1e-12
    )
    # e^2/n through logs: a subnormal at n = 10^310, 0.0 past it
    assert threshold_tight(4, 1, 10**310) == pytest.approx(math.exp(2) * 1e-310, rel=1e-9)
    assert threshold_tight(4, 1, 10**400) == 0.0


def test_thresholds_past_the_float_range_build_no_huge_power():
    # n^d with d = 10^6 has millions of digits; the log test comes first
    for threshold in (loose_threshold, two_overlap_threshold):
        start = time.perf_counter()
        assert threshold(10**6, 2 * 10**6, 1.0) == 0.0
        assert time.perf_counter() - start < 0.5, threshold.__name__


# -- claim ---------------------------------------------------------------------------

def test_claim_f_values():
    assert claim_f(2, 1) == pytest.approx(0.5, abs=1e-15)
    assert claim_f(2, 1e-6) == pytest.approx(1 / math.e, abs=1e-5)
    assert claim_f(1.5, 1) == pytest.approx(3**-0.5, abs=1e-12)
    with pytest.raises(InvalidInput):
        claim_f(1, 1)
    with pytest.raises(InvalidInput):
        claim_f(2, 0)


def test_claim_derivative_sign_positive_on_domain():
    assert claim_derivative_sign(2, 0.5) == 1
    for c in (1.1, 2.0, 10.0):
        for i in range(1, 101):
            assert claim_derivative_sign(c, i / 100) == 1


def test_claim_sign_matches_finite_differences():
    h = 1e-6
    for c in (1.1, 2.0, 10.0):
        for i in range(1, 101):
            x = i / 100
            fd = claim_f(c, x + h) - claim_f(c, x - h)
            assert (fd > 0) == (claim_derivative_sign(c, x) > 0)


def test_claim_f_monotone_on_grid():
    for c in (1.1, 2.0, 10.0):
        values = [claim_f(c, i / 100) for i in range(1, 101)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_claim_max_scan():
    for c in (Fraction(11, 10), Fraction(2), Fraction(10)):
        b, val = claim_max(c, 200)
        assert b == 200
        assert abs(val - tight_prefactor(c)) < 1e-12
    with pytest.raises(InvalidInput):
        claim_max(1, 100)


def test_claim_max_small_example():
    b, val = claim_max(Fraction(2), 50)
    assert (b, val) == (50, pytest.approx(0.5, abs=1e-15))
