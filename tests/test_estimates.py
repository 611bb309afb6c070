import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries.cli import _jsonable
from gdseries.estimates import GROWTH_TOL, windowed_limsup


def test_empty_input_gives_minus_inf_and_inconclusive():
    est = windowed_limsup("L", [])
    assert est.estimate == -math.inf
    assert est.trend == "inconclusive"


def test_short_input_is_inconclusive():
    est = windowed_limsup("L", [(1, 1.0), (2, 1.0)])
    assert est.trend == "inconclusive"
    assert est.estimate == 1.0


def test_constant_ratios_are_convergent_with_exact_estimate():
    est = windowed_limsup("sigma_c", [(i, 0.75) for i in range(1, 61)])
    assert est.estimate == 0.75
    assert est.trend == "convergent"
    assert est.window_size == 20


def test_growing_ratios_are_divergent():
    est = windowed_limsup("L", [(i, 0.1 * i) for i in range(1, 61)])
    assert est.trend == "divergent"
    assert est.estimate == 6.0


def test_decaying_ratios_are_convergent():
    est = windowed_limsup("L", [(i, 1.0 / i) for i in range(1, 61)])
    assert est.trend == "convergent"
    # windowed max = the first ratio in the final third
    assert est.estimate == 1.0 / 41


def test_growth_within_tolerance_counts_as_stable():
    # a drift far below GROWTH_TOL between thirds must not read as divergence
    eps = GROWTH_TOL / 100
    pairs = [(i, 1.0 + eps * (i // 20)) for i in range(1, 61)]
    est = windowed_limsup("L", pairs)
    assert est.trend == "convergent"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=10, max_size=80))
def test_estimate_is_max_of_final_window(ratios):
    pairs = list(enumerate(ratios, start=1))
    est = windowed_limsup("Delta", pairs)
    w = est.window_size
    assert w == math.ceil(len(ratios) / 3)
    assert est.estimate == max(r for _, r in pairs[-w:])


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("shape", [lambda i: math.sin(3.0 * i) + 0.1 * i, lambda i: 1.0 / i, lambda i: math.cos(2.0 * i)],
                         ids=["rising", "falling", "oscillating"])
def test_window_rule_for_short_sequences(n, shape):
    # the three chunks [:lo], [lo:n-w], [n-w:] of the trend, written out for each n
    ratios = [shape(i) for i in range(1, n + 1)]
    est = windowed_limsup("L", list(enumerate(ratios, start=1)))
    w = math.ceil(n / 3)
    assert (est.window_size, est.estimate) == (w, max(ratios[n - w :]))
    if n < 3:
        assert est.trend == "inconclusive"
        return
    lo = max(1, n - 2 * w)
    m1, m2, m3 = max(ratios[:lo]), max(ratios[lo : n - w]), max(ratios[n - w :])
    scale = max(abs(m1), abs(m2), abs(m3), 1e-12)
    g_first, g_last = (m2 - m1) / scale, (m3 - m2) / scale
    if g_last <= GROWTH_TOL:
        assert est.trend == "convergent"
    else:
        assert est.trend == ("divergent" if g_first > GROWTH_TOL else "inconclusive")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=10, max_size=80))
def test_trend_is_one_of_the_three_labels(ratios):
    est = windowed_limsup("L", list(enumerate(ratios, start=1)))
    assert est.trend in ("convergent", "divergent", "inconclusive")


def test_serialized_estimate_is_json_ready():
    est = windowed_limsup("sigma_u", [(i, float(i)) for i in range(1, 31)])
    d = _jsonable(est)
    assert d["which"] == "sigma_u"
    assert isinstance(d["ratios"][0], list)
    assert d["windowSize"] == 10
