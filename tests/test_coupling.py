"""Coupling schedules: midpoints, saturation, monotonicity, validation."""
import math

import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm

from qctrans import Constant, GaussianCDF, InvalidParameterError, Logistic, eval_P, eval_lambda

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_logistic_midpoint_is_half():
    assert eval_P(Logistic(15.0, 2.0), 2.0) == 0.5
    assert eval_P(Logistic(0.3, -7.0), -7.0) == 0.5


def test_logistic_start_value():
    # 1 / (1 + e^{-30}) = 1 - 9.358e-14 to the printed digits
    p = eval_P(Logistic(15.0, 2.0), 0.0)
    assert abs(p - 0.9999999999999064) < 5e-16
    assert abs(p - (1.0 - 9.358e-14)) < 5e-16


def test_logistic_against_direct_formula():
    for b, t0, t in [(0.5, 4.0, 1.0), (37.0, 0.0, 0.5), (0.014, 1250.0, 600.0)]:
        assert eval_P(Logistic(b, t0), t) == pytest.approx(
            1.0 / (1.0 + math.exp(b * (t - t0))), rel=1e-14)


def test_logistic_overflow_safe():
    assert eval_P(Logistic(40.0, 0.0), 1e308) == 0.0
    assert eval_P(Logistic(40.0, 0.0), -1e308) == 1.0


def test_gaussian_cdf_matches_normal_sf():
    for mu, sigma, t in [(0.0, 1.0, 0.7), (2.0, 0.25, 1.5), (-3.0, 5.0, 10.0)]:
        assert eval_P(GaussianCDF(mu, sigma), t) == pytest.approx(
            norm.sf((t - mu) / sigma), rel=1e-12)
    assert eval_P(GaussianCDF(2.0, 0.25), 2.0) == pytest.approx(0.5, abs=1e-15)


def test_constant_is_time_independent():
    for t in (-1e6, 0.0, 3.7, 1e6):
        assert eval_P(Constant(0.3), t) == 0.3
    assert eval_P(Constant(0.0), 1.0) == 0.0
    assert eval_P(Constant(1.0), 1.0) == 1.0


@given(b=st.floats(min_value=0.01, max_value=50.0), t0=finite, t=finite)
def test_logistic_range_and_complement(b, t0, t):
    p = eval_P(Logistic(b, t0), t)
    assert 0.0 <= p <= 1.0
    assert eval_P(Logistic(b, t0), t) + eval_lambda(Logistic(b, t0), t) == 1.0


@given(b=st.floats(min_value=0.01, max_value=50.0), t0=finite,
       t1=finite, t2=finite)
def test_logistic_monotone_decreasing(b, t0, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert eval_P(Logistic(b, t0), lo) >= eval_P(Logistic(b, t0), hi)


@given(mu=finite, sigma=st.floats(min_value=0.01, max_value=50.0),
       t1=finite, t2=finite)
def test_gaussian_monotone_decreasing(mu, sigma, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    sched = GaussianCDF(mu, sigma)
    assert eval_P(sched, lo) >= eval_P(sched, hi)
    assert 0.0 <= eval_P(sched, t1) <= 1.0


@given(b=st.floats(min_value=0.1, max_value=50.0), t0=finite,
       m=st.floats(min_value=30.0, max_value=700.0))
def test_logistic_saturation(b, t0, m):
    # |b (t - t0)| >= 30 pins P to its limit within 1e-12
    delta = m / b
    assert eval_P(Logistic(b, t0), t0 - delta) >= 1.0 - 1e-12
    assert eval_P(Logistic(b, t0), t0 + delta) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: Logistic(float("nan"), 0.0),
    lambda: Logistic(1.0, float("inf")),
    lambda: GaussianCDF(0.0, 0.0),
    lambda: GaussianCDF(0.0, -1.0),
    lambda: GaussianCDF(float("nan"), 1.0),
    lambda: Constant(-0.1),
    lambda: Constant(1.5),
    lambda: Constant(float("nan")),
])
def test_invalid_parameters_rejected(make):
    with pytest.raises(InvalidParameterError):
        make()


def test_eval_rejects_non_finite_time():
    with pytest.raises(InvalidParameterError):
        eval_P(Constant(0.5), float("nan"))
    with pytest.raises(InvalidParameterError):  # no OverflowError
        eval_P(Constant(0.5), 10**400)
