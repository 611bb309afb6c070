import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries import riesz
from gdseries import (
    DirichletSeries,
    Frequency,
    LineGrid,
    beta_identity,
    c_exact,
    check_abel_integral,
    check_fractional_identity,
    evaluate,
    make_frequency,
    paper_constant,
    proof_integral,
    riesz_mean,
    riesz_truncation,
    riesz_uniform_error,
    sigma_u_k_estimate,
    typical_mean_A,
    with_self_reference,
)

small_series = st.builds(
    lambda gaps, re, im: DirichletSeries(
        Frequency(np.concatenate([[0.0], np.cumsum(gaps)])[: len(re)]),
        np.asarray(re) + 1j * np.asarray(im),
    ),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=6, max_size=6),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=6, max_size=6),
)


def test_params_validation():
    D = DirichletSeries(make_frequency("linear", 4), np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        riesz_truncation(D, -0.1, 1.0)
    with pytest.raises(ValueError):
        riesz_truncation(D, 0.5, 0.0)
    riesz_truncation(D, 0.0, 1.0)  # k = 0 is the plain partial sum


@settings(max_examples=50, deadline=None)
@given(small_series, st.floats(min_value=0.1, max_value=4.0))
def test_k_zero_reduces_to_partial_sum(D, x):
    n_below = int(np.sum(D.freq.values < x))
    want = evaluate(D, 0.3 + 0.2j, n_below) if n_below else 0j
    got = riesz_mean(D, 0.0, x, 0.3 + 0.2j)
    assert got == want  # identical arithmetic, not just close


@settings(max_examples=50, deadline=None)
@given(small_series, st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.1, max_value=4.0))
def test_mean_is_dominated_by_coefficient_sum(D, k, x):
    # the weights (1 - lambda/x)^k live in [0, 1]
    assert abs(riesz_mean(D, k, x)) <= D.abs_sum(0.0) + 1e-12


def test_cutoff_is_strict_at_x():
    D = DirichletSeries(Frequency(np.array([0.0, 1.0, 2.0])), np.array([1.0, 1.0, 1.0], dtype=complex))
    # x equal to a frequency: that term's weight would be 0 anyway for k > 0,
    # but for k = 0 strictness is observable
    assert riesz_mean(D, 0.0, 2.0) == 2.0 + 0j
    trunc = riesz_truncation(D, 1.0, 2.0)
    assert trunc.M == 2


def test_truncation_weights_decrease_along_frequencies():
    D = DirichletSeries(make_frequency("linear", 10), np.ones(10, dtype=complex))
    trunc = riesz_truncation(D, 0.5, 8.5)
    w = np.abs(trunc.coeffs)
    assert np.all(np.diff(w) < 0)
    assert w[0] == pytest.approx((1 - 0 / 8.5) ** 0.5)


def test_truncation_empty_below_first_frequency():
    D = DirichletSeries(Frequency(np.array([2.0, 3.0])), np.array([1.0, 1.0], dtype=complex))
    assert riesz_truncation(D, 1.0, 1.5) is None


def test_typical_mean_is_zero_below_the_first_frequency():
    # lambda_1 = log 2 > 0.5: the sum has no term
    D = DirichletSeries(make_frequency("logprimes", 5), np.ones(5, dtype=complex))
    assert typical_mean_A(D, 1.0, 0.3 + 1j, 0.5) == 0j


def test_typical_mean_matches_scaled_mean():
    D = DirichletSeries(make_frequency("linear", 8), (np.arange(8) + 1).astype(complex))
    k, x, w = 0.5, 5.5, 0.2 + 1.1j
    lhs = typical_mean_A(D, k, w, x)
    lam = D.freq.values
    mask = lam < x
    rhs = np.sum(D.coeffs[mask] * np.exp(-w * lam[mask]) * (x - lam[mask]) ** k)
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=25, deadline=None)
@given(small_series, st.sampled_from([0.25, 0.5, 1.0]))
def test_abel_integral_residual_is_rounding_level(D, k):
    x = float(D.freq.values[-1]) * 0.9 + 0.05
    if np.min(np.abs(D.freq.values - x)) < 1e-9:
        x += 1e-3
    assert check_abel_integral(D, k, x) < 1e-10


@pytest.mark.parametrize("k, x", [(0.5, 2.0), (1.0, 2.5), (0.25, 0.9)])
def test_abel_integral_skips_the_segment_below_the_first_frequency(k, x):
    # lambda_1 = log 2 > 0: A^0 vanishes on [0, lambda_1)
    D = DirichletSeries(make_frequency("logprimes", 5), np.ones(5, dtype=complex))
    assert check_abel_integral(D, k, x) < 1e-12


def test_abel_rejects_x_at_a_frequency():
    D = DirichletSeries(make_frequency("linear", 5), np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        check_abel_integral(D, 0.5, 3.0)


def test_fractional_identity_small_instance():
    D = DirichletSeries(
        Frequency(np.array([0.0, 0.7, 1.9])),
        np.array([1.0 + 0j, -0.5 + 0.25j, 0.3 - 0.1j]),
    )
    resid = check_fractional_identity(D, 0.5, 2.5, tau=1e-4)
    assert resid < 1e-8


def test_fractional_identity_rejects_a_quadrature_that_does_not_converge():
    # lambda = n and n + one ulp give coinciding break points: quadpack warns,
    # and the residual (3.2e-05 against a tolerance of 1e-08) measured the quadrature
    D = DirichletSeries(make_frequency("interleave-expexp2", 9), np.ones(9, dtype=complex))
    with pytest.raises(ValueError, match="quadrature of the fractional identity failed: Extremely bad"):
        check_fractional_identity(D, 0.5, 3.7, tau=0.0)


def test_fractional_identity_needs_fractional_k():
    D = DirichletSeries(make_frequency("linear", 3), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        check_fractional_identity(D, 1.0, 2.5, tau=1e-4)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.5, 0.5), (1.0, 1.0), (2.5, 0.1), (0.1, 2.9), (3.0, 3.0)],
)
def test_beta_identity_spot_values(alpha, beta):
    lhs, rhs = beta_identity(alpha, beta)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert rhs == pytest.approx(
        math.gamma(alpha + 1) * math.gamma(beta) / math.gamma(alpha + beta + 1)
    )


def test_beta_identity_rejects_bad_parameters():
    with pytest.raises(ValueError):
        beta_identity(-1.5, 1.0)
    with pytest.raises(ValueError):
        beta_identity(1.0, 0.0)


def test_constants_at_k_one():
    assert c_exact(1.0) == pytest.approx(math.e / 2.0, abs=1e-15)
    assert paper_constant(1.0) == pytest.approx(math.e / math.pi, abs=1e-15)
    assert proof_integral(1.0) == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_constants_at_k_half():
    assert c_exact(0.5) == pytest.approx(2.010628203201094, abs=1e-12)
    # closed form and quadrature route agree
    k = 0.5
    via_quad = (math.e / math.pi) * math.gamma(k + 1.0) * proof_integral(k)
    assert c_exact(k) == pytest.approx(via_quad, abs=1e-9)


def test_constants_reject_k_out_of_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            c_exact(bad)


def test_uniform_error_needs_a_reference():
    D = DirichletSeries(make_frequency("linear", 8), np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        riesz_uniform_error(D, 1.0, 0.5, 4.0, LineGrid(0.5, 0.0, 6.3, 0.01))


def _criterion_5_series(M=128):
    """Ones on lambda_n = n - 1, n <= M, with f = 1/(1 - e^{-s}), and its grid on Re s = 1/2."""
    D = DirichletSeries(
        make_frequency("linear", M),
        np.ones(M, dtype=complex),
        reference=lambda s: 1.0 / (1.0 - np.exp(-np.asarray(s, dtype=complex))),
    )
    return D, LineGrid(0.5, 0.0, 2.0 * math.pi, 1e-3)


def test_uniform_error_geometric_golden():
    D, grid = _criterion_5_series()
    err = riesz_uniform_error(D, 1.0, 0.5, 20.0, grid)
    assert err == pytest.approx(0.19587601129073473, abs=1e-12)


@pytest.mark.parametrize("x", [40.0, 80.0, 160.0])
def test_uniform_error_follows_the_derivative_law(x):
    # f - R_x^1 f = -f'/x + O(e^{-x/2}) on Re s = 1/2, and sup |f'| there is
    # e^{-1/2} / (1 - e^{-1/2})^2, taken at t = 0
    D, grid = _criterion_5_series()
    law = math.exp(-0.5) / (1.0 - math.exp(-0.5)) ** 2
    assert x * riesz_uniform_error(D, 1.0, 0.5, x, grid) == pytest.approx(law, rel=1e-8)


@pytest.mark.parametrize("k, side", [(0.5, 1), (2.0, -1)])
def test_uniform_error_of_order_k_tends_to_k_times_the_derivative_law(k, side):
    # (1 - n/x)^k = 1 - k n/x + O((n/x)^2), so x err / k tends to sup |f'| on
    # Re s = 1/2, from above for k < 1 and from below for k > 1, with a gap of
    # order 1/x; M = 1024 keeps every x <= 640 clear of the truncation
    D, grid = _criterion_5_series(1024)
    law = math.exp(-0.5) / (1.0 - math.exp(-0.5)) ** 2
    xs = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
    gaps = [side * (x * riesz_uniform_error(D, k, 0.5, x, grid) / k - law) for x in xs]
    assert all(gap > 0 for gap in gaps)
    for gap, nxt in zip(gaps, gaps[1:]):
        assert nxt < gap
        assert nxt <= 0.51 * gap


def test_uniform_error_of_an_empty_truncation_is_the_sup_of_f():
    # no frequency lies below x = 0.5 < log 2, so R_x^1 is the zero function
    D = with_self_reference(DirichletSeries(make_frequency("logprimes", 5), np.ones(5, dtype=complex)))
    grid = LineGrid(0.5, 0.0, 10.0, 0.01)
    fmax = np.max(np.abs(D.reference(0.5 + 1j * grid.points())))
    assert riesz_uniform_error(D, 1.0, 0.5, 0.5, grid) == fmax


def test_sigma_u_k_growth_series_golden():
    # a_n = e^(lambda_n) has sigma_u = 1; the windowed estimate lands at
    # 0.846 with a divergent trend on this finite prefix
    lam = np.arange(24, dtype=float)
    D = DirichletSeries(Frequency(lam), np.exp(lam).astype(complex))
    est = sigma_u_k_estimate(D, 1.0, list(range(4, 21, 2)), LineGrid(0.0, 0.0, 2 * math.pi, 0.002))
    assert est.trend == "divergent"
    assert 0.75 <= est.estimate <= 1.0
    assert est.estimate == pytest.approx(0.8460808994550535, abs=1e-12)


def test_sigma_u_k_geometric_golden():
    # bounded on every right half-plane, so the estimate should sit near 0
    D = DirichletSeries(Frequency(np.arange(64, dtype=float)), np.ones(64, dtype=complex))
    est = sigma_u_k_estimate(D, 1.0, list(range(8, 49, 8)), LineGrid(0.0, 0.0, 2 * math.pi, 0.002))
    assert est.estimate == pytest.approx(0.07551062215360907, abs=1e-12)
    assert est.which == "sigma_u_k"


def test_every_quadrature_goes_through_the_module_quad(monkeypatch):
    # a profiler wraps the binding riesz.quad; a quadrature that imported
    # scipy's quad directly would escape it
    calls = []
    lazy_quad = riesz.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return lazy_quad(*args, **kwargs)

    monkeypatch.setattr(riesz, "quad", counting)
    D = DirichletSeries(Frequency(np.array([0.0, 0.7])), np.array([1.0 + 0j, -0.5j]))
    for run_one in (
        lambda: beta_identity(1.0, 2.0),
        lambda: check_fractional_identity(D, 0.5, 1.5, tau=1e-3),
        lambda: proof_integral(0.5),
    ):
        calls.clear()
        run_one()
        assert calls


def _guard_series():
    D = DirichletSeries(Frequency(np.array([0.0, 0.7, 1.5])), np.array([1.0 + 0j, -0.5j, 0.25]))
    return with_self_reference(D)


_GUARD_GRID = LineGrid(0.0, 0.0, 10.0, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda D: typical_mean_A(D, -0.5, 0.0, 1.0), "need k >= 0"),
        (lambda D: check_abel_integral(D, 0.5, 0.0), "need x > 0"),
        (lambda D: check_fractional_identity(D, 0.5, 0.0, 0.0), "need t > 0"),
        (lambda D: riesz_uniform_error(D, 0.5, 0.0, 1.0, _GUARD_GRID), "need sigma > 0"),
        (lambda D: sigma_u_k_estimate(D, 0.5, [1.0, 0.8], _GUARD_GRID), "xs must be increasing"),
    ],
    ids=["typical-k", "abel-x", "fractional-t", "uniform-error-sigma", "sigma-u-k-xs"],
)
def test_input_guards_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(_guard_series())
