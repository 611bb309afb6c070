import math

import numpy as np
import pytest

from gdseries import (
    Frequency,
    LineGrid,
    fejer_identity_residual,
    fejer_polynomial,
    fejer_sup,
    fejer_sup_max,
    neder_cauchy_check,
    neder_construct,
    neder_divergence_check,
    refine_gaps,
)
from gdseries.neder import _strict_floor


def base_integers():
    return Frequency(np.arange(1.0, 9.0))


def test_fejer_polynomial_m3_coefficients():
    poly = fejer_polynomial(3)
    assert poly.coeffs.tolist() == [0.5, 1.0, 0.0, -1.0, -0.5]


def test_fejer_vanishes_at_one():
    for m in (2, 3, 5, 8):
        assert fejer_polynomial(m)(1.0 + 0j) == pytest.approx(0.0, abs=1e-12)


def test_fejer_sup_small_m():
    assert fejer_sup(1) == 0.0
    assert fejer_sup(2) == pytest.approx(2.0, abs=1e-6)


def test_fejer_sup_max_is_bounded():
    c_obs = fejer_sup_max()
    assert c_obs == pytest.approx(3.6546588850074464, abs=1e-9)
    assert c_obs < 4.0
    sups = [fejer_sup(m) for m in range(1, 65)]
    assert max(sups) == c_obs


def _circle_sup(m):
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    return float(np.max(np.abs(fejer_polynomial(m).eval_many(np.exp(1j * theta)))))


def test_fejer_sup_equals_eval_many_bit_for_bit():
    # fejer_sup reads prefix columns of one cached power table; m = 65 and 100
    # need more columns than the table is first built with, and m = 300 then
    # replaces it with a wider one, which must not change any value
    ms = list(range(1, 65)) + [65, 100]
    expected = [_circle_sup(m) for m in ms]
    assert [fejer_sup(m) for m in ms] == expected
    fejer_sup(300)
    assert [fejer_sup(m) for m in ms] == expected
    assert fejer_sup_max() == 3.6546588850074464


def test_construction_r_values_for_unit_blocks():
    # x = 0.1 on integer frequencies: r_n = largest integer strictly below
    # e^(e^(2 x lambda_n) |I_k|)
    c = neder_construct(base_integers(), 0.1)
    assert [e.r for e in c.entries] == [3, 4, 6, 9, 15, 27, 57]
    assert not any(e.cap_applied for e in c.entries)


def test_construction_block_weights():
    c = neder_construct(base_integers(), 0.1)
    assert c.block_sizes == {k: 1 for k in range(1, 9)}
    assert c.block_b[1] == pytest.approx(math.exp(-0.1), abs=1e-15)
    assert c.block_b[2] == pytest.approx(math.exp(-0.2), abs=1e-15)


def test_construction_eta_head_subdivides_first_gap():
    c = neder_construct(base_integers(), 0.1)
    # first block: 2r = 6 points at 1 + j/6
    want = [1.0 + j / 6.0 for j in range(6)]
    assert np.allclose(c.eta.values[:6], want, atol=1e-12)
    assert np.all(np.diff(c.eta.values) > 0)


def test_construction_keeps_the_final_base_point():
    base = base_integers()
    c = neder_construct(base, 0.1)
    assert c.eta.values[-1] == base.values[-1]
    assert c.coeffs[-1] == 0.0


def test_coefficient_block_sums_follow_harmonic_numbers():
    c = neder_construct(base_integers(), 0.1)
    coeffs = np.abs(np.asarray(c.coeffs, dtype=complex))
    blocks = np.asarray(c.point_block)
    for entry in c.entries:
        b = c.block_b[entry.k]
        h = sum(1.0 / j for j in range(1, entry.r))
        got = coeffs[blocks == entry.k].sum()
        assert got == pytest.approx(2.0 * b * h, rel=1e-12)


def test_divergence_rows_meet_the_floor():
    c = neder_construct(base_integers(), 0.1)
    rows = neder_divergence_check(c)
    assert all(r.passed for r in rows if not r.exempt)
    assert rows[0].threshold == pytest.approx(math.exp(-0.1) / 4.0)
    # e^(-0.1) * (e^(-0.1*7/6)/2 + e^(-0.1*8/6)), checked by hand
    assert rows[0].block_sum == pytest.approx(1.1944887283458168, abs=1e-12)


def test_divergence_thresholds_scale_with_x():
    for x in (0.05, 0.25):
        c = neder_construct(base_integers(), x)
        rows = neder_divergence_check(c)
        assert all(r.threshold == pytest.approx(math.exp(-x) / 4.0) for r in rows)
        assert all(r.passed for r in rows if not r.exempt)


def test_bases_with_a_gap_above_one_are_refined_first():
    for values in ([0.0, 2.5, 3.0], [0.0, 0.5, 3.2, 4.0]):
        freq = Frequency(np.array(values))
        c = neder_construct(freq, 0.1)
        assert c.refined
        assert np.array_equal(c.base.values, refine_gaps(freq).values)
        assert np.all(np.diff(c.eta.values) > 0)
        rows = neder_divergence_check(c)
        assert any(not r.exempt for r in rows)
        assert all(r.passed for r in rows if not r.exempt)


def test_point_budget_caps_and_exempts():
    c = neder_construct(base_integers(), 0.25, point_budget=120)
    assert any(e.cap_applied for e in c.entries)
    rows = neder_divergence_check(c)
    capped = {e.k for e in c.entries if e.cap_applied}
    assert all(r.exempt for r in rows if r.k in capped)


def test_r_cap_parameter_truncates_everything():
    c = neder_construct(base_integers(), 0.1, r_cap=5)
    assert all(e.r <= 5 for e in c.entries)
    assert [e.cap_applied for e in c.entries] == [False, False, True, True, True, True, True]


def test_fejer_identity_is_exact_regrouping():
    c = neder_construct(base_integers(), 0.1)
    s_values = [0.3 + 0j, 0.1 + 2.0j, 0.8 - 5.0j, 0.05 + 9.1j, 1.0 + 0.5j]
    assert fejer_identity_residual(c, 2, s_values) < 1e-12


def test_fejer_identity_needs_a_block_in_the_prefix():
    c = neder_construct(base_integers(), 0.1)
    with pytest.raises(ValueError, match="K = 0 is below the smallest block id 1"):
        fejer_identity_residual(c, 0, [0.3 + 0j])


def test_cauchy_block_difference_zero_when_K_equals_L():
    c = neder_construct(base_integers(), 0.1)
    grid = LineGrid(1e-3, 0.0, 20.0, 0.1)
    observed, bound = neder_cauchy_check(c, 2, 2, grid)
    assert observed == 0.0
    assert bound > 0.0


def test_cauchy_bound_dominates_observation():
    c = neder_construct(base_integers(), 0.1)
    grid = LineGrid(1e-3, 0.0, 50.0, 0.05)
    observed, bound = neder_cauchy_check(c, 1, 3, grid)
    assert observed <= bound + 1e-9
    assert observed == pytest.approx(4.69346378970416, abs=1e-9)
    assert bound == pytest.approx(9.006491622867447, abs=1e-9)


@pytest.mark.parametrize("x", [0.05, 0.1, 0.25])
def test_cauchy_observation_is_the_one_shot_grid_max(x):
    # criterion 11's constructions, every 0 <= K <= L <= 8, on criterion 11's
    # grid and on Re s = 0 with a step that does not divide the window (20.3 /
    # 0.37 rounds to 55 intervals); at x = 0.25 (10,005 points) only the
    # smaller grid, which keeps the one-shot phase matrix near 9 MB
    c = neder_construct(base_integers(), x)
    grids = [LineGrid(0.0, -3.0, 17.3, 0.37)] + ([LineGrid(1e-3, 0.0, 50.0, 0.05)] if x < 0.25 else [])
    for grid in grids:
        ts = grid.points()
        for K in range(9):
            for L in range(K, 9):
                mask = (c.point_block > K) & (c.point_block <= L)
                lam, coeffs = c.eta.values[mask], np.asarray(c.coeffs)[mask]
                amp = coeffs * np.exp(-lam * grid.sigma)
                want = float(np.max(np.abs(np.exp(-1j * np.outer(ts, lam)) @ amp))) if mask.any() else 0.0
                assert neder_cauchy_check(c, K, L, grid)[0] == want, (grid, K, L)


def test_series_view_matches_construction():
    c = neder_construct(base_integers(), 0.1)
    D = c.series()
    assert D.M == c.eta.M
    assert np.array_equal(np.asarray(c.coeffs), D.coeffs)


def test_construct_passes_an_infinite_y_to_the_point_budget():
    # at x = 1, y = exp(e^{2 x lambda}) overflows from lambda = 4 on; r then
    # comes from what is left of the 10,000-point budget
    assert _strict_floor(math.inf) == math.inf
    c = neder_construct(base_integers(), 1.0)
    assert [e.r for e in c.entries] == [1618, 3382, 1, 1, 1, 1, 1]
    assert all(e.cap_applied for e in c.entries[1:])


def test_construct_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        neder_construct(base_integers(), 0.0)
