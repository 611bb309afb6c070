import math
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries import (
    DirichletSeries,
    Frequency,
    PerronQuery,
    make_frequency,
    perron_integral,
    perron_vs_direct,
    required_T,
    riesz_mean,
    tail_bound,
    with_self_reference,
)
from gdseries import perron as perron_module
from gdseries.series import _eval_points


def two_term():
    return DirichletSeries(Frequency(np.array([0.0, 1.0])), np.array([1.0 + 0j, 1.0 + 0j]))


def seeded_five():
    rng = np.random.default_rng(5)
    lam = np.cumsum(rng.uniform(0.2, 0.8, 5))
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return DirichletSeries(Frequency(lam), coeffs)


def test_query_validation():
    with pytest.raises(ValueError):
        PerronQuery(x=0.0, k=1.0, epsilon=0.5, T=10.0, step=0.1)
    with pytest.raises(ValueError):
        PerronQuery(x=1.0, k=-0.5, epsilon=0.5, T=10.0, step=0.1)
    with pytest.raises(ValueError):
        PerronQuery(x=1.0, k=1.0, epsilon=0.0, T=10.0, step=0.1)
    with pytest.raises(ValueError):
        PerronQuery(x=1.0, k=1.0, epsilon=0.5, T=10.0, step=25.0)  # step > 2T


def test_tail_bound_vacuous_at_k_zero():
    assert tail_bound(0.0, 1.0, 0.5, 2.0, 1e6) == math.inf


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_required_T_inverts_tail_bound(k, x, eps):
    tol = 1e-5
    T = required_T(k, x, eps, 3.0, tol)
    assert tail_bound(k, x, eps, 3.0, T) <= tol * (1 + 1e-9)
    # and is monotone: twice the height, smaller tail
    assert tail_bound(k, x, eps, 3.0, 2 * T) < tol


def test_single_term_inversion_recovers_the_coefficient():
    D = DirichletSeries(Frequency(np.array([0.0])), np.array([2.5 + 0j]))
    q = PerronQuery(x=1.0, k=1.0, epsilon=1.0, T=2500.0, step=0.05)
    res = perron_integral(D, q, quad_tol=1e-3)
    assert abs(res.value - 2.5) <= res.tail + 1e-3


def test_two_term_comparison_within_budget():
    T = required_T(1.0, 2.0, 0.5, 2.0, 1e-4)
    comp = perron_vs_direct(two_term(), PerronQuery(x=2.0, k=1.0, epsilon=0.5, T=T, step=0.05), quad_tol=1e-3)
    assert comp.residual <= comp.budget
    assert comp.residual < 1e-6
    # the direct side is the exact weighted sum
    want = riesz_mean(two_term(), 1.0, 2.0)
    assert comp.direct == want


def test_seeded_five_term_golden():
    D = seeded_five()
    x = float(D.freq.values[2]) + 0.5
    direct = riesz_mean(D, 1.0, x)
    assert direct.real == pytest.approx(-0.28105328601731483, abs=1e-12)
    assert direct.imag == pytest.approx(-0.44431078836651294, abs=1e-12)
    T = required_T(1.0, x, 0.3, D.abs_sum(0.0), 1e-4)
    assert T == pytest.approx(17207.545394637724, rel=1e-12)
    comp = perron_vs_direct(D, PerronQuery(x=x, k=1.0, epsilon=0.3, T=T, step=0.05), quad_tol=1e-3)
    assert comp.residual < 1e-8


def test_contour_line_independence():
    # the inversion must not depend on epsilon beyond its certificate
    D = two_term()
    vals = {}
    for eps in (0.25, 0.5):
        T = required_T(1.0, 2.0, eps, 2.0, 1e-3)
        res = perron_integral(D, PerronQuery(x=2.0, k=1.0, epsilon=eps, T=T, step=0.05), quad_tol=1e-3)
        vals[eps] = res
    gap = abs(vals[0.25].value - vals[0.5].value)
    assert gap <= vals[0.25].tail + vals[0.5].tail + 2e-3


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-4.0, max_value=4.0))
def test_scaling_linearity(cr, ci):
    c = complex(cr, ci)
    D = two_term()
    scaled = DirichletSeries(D.freq, c * D.coeffs)
    q = PerronQuery(x=2.0, k=1.0, epsilon=0.5, T=50.0, step=0.05)
    base = perron_integral(D, q, f_norm=2.0).value
    got = perron_integral(scaled, q, f_norm=2.0 * abs(c)).value
    assert got == pytest.approx(c * base, rel=5e-13, abs=1e-13)


def test_k_zero_at_a_frequency_is_rejected():
    D = two_term()
    with pytest.raises(ValueError):
        perron_integral(D, PerronQuery(x=1.0, k=0.0, epsilon=0.5, T=100.0, step=0.05))


def test_k_zero_off_frequency_has_no_certificate():
    D = two_term()
    res = perron_integral(D, PerronQuery(x=1.5, k=0.0, epsilon=0.5, T=5000.0, step=0.05))
    assert res.tail == math.inf
    # the value still approaches the sharp partial sum
    assert abs(res.value - 2.0) < 0.05


def test_insufficient_T_is_rejected_with_guidance():
    D = two_term()
    q = PerronQuery(x=2.0, k=1.0, epsilon=0.5, T=10.0, step=0.05)
    with pytest.raises(ValueError, match="T"):
        perron_integral(D, q, quad_tol=1e-6)


def test_external_reference_requires_explicit_norm():
    D = DirichletSeries(
        make_frequency("linear", 3),
        np.ones(3, dtype=complex),
        reference=lambda s: 1.0 / (1.0 - np.exp(-np.asarray(s, dtype=complex))),
    )
    q = PerronQuery(x=1.5, k=1.0, epsilon=0.5, T=200.0, step=0.05)
    with pytest.raises(ValueError):
        perron_integral(D, q)
    res = perron_integral(D, q, f_norm=5.0)
    assert math.isfinite(res.value.real)


# loose enough that every boundary case stops after round 2
_BOUNDARY_TOL = 1e3
# a chunk small enough that the boundary cases stay cheap
_SMALL_CHUNK = 8


def _boundary_case(M, points):
    """A seeded M-term series and a query whose first round has ``points`` points."""
    rng = np.random.default_rng(M)
    D = DirichletSeries(make_frequency("log", M), rng.standard_normal(M) + 1j * rng.standard_normal(M))
    # n = ceil(2T / step) = points - 1, and the spacing 2T / n rounds
    return D, PerronQuery(x=1.7, k=1.0, epsilon=0.5, T=(points - 1.5) * 0.05 / 2, step=0.05)


@cache
def _whole_grid_perron(M, points):
    """(value, step, rounds) of perron_integral's rounds over whole-grid arrays, as first written."""
    D, q = _boundary_case(M, points)
    f = partial(_eval_points, D)
    x, k, eps, T = q.x, q.k, q.epsilon, q.T
    prefactor = math.gamma(k + 1.0) / (2.0 * math.pi * x**k)

    def g(ts):
        s = eps + 1j * ts
        return np.asarray(f(s), dtype=complex) * np.exp(x * s) / s ** (1.0 + k)

    n = max(2, int(math.ceil(2.0 * T / q.step)))
    h = 2.0 * T / n
    ts = -T + h * np.arange(n + 1)
    vals = g(ts)
    integral = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    rounds = 1
    while rounds < 14:
        mids = -T + h * (np.arange(n) + 0.5)
        mid_sum = 0j
        for start in range(0, mids.size, _SMALL_CHUNK):
            mid_sum += g(mids[start : start + _SMALL_CHUNK]).sum()
        refined = integral / 2.0 + (h / 2.0) * mid_sum
        change = abs(refined - integral) * prefactor
        integral = refined
        n *= 2
        h /= 2.0
        rounds += 1
        if change <= 0.1 * _BOUNDARY_TOL:
            break
    return complex(prefactor * integral), h, rounds


@pytest.mark.parametrize("reference", [False, True], ids=["sum", "reference"])
@pytest.mark.parametrize("points", [7, 8, 9, 17])
@pytest.mark.parametrize("M", [1, 7, 100])
def test_chunked_rounds_keep_the_whole_grid_bits(M, points, reference, monkeypatch):
    # n + 1 first-round points on either side of a chunk edge; the reference
    # evaluates the same sum, so both share one expected value
    monkeypatch.setattr(perron_module, "_CHUNK", _SMALL_CHUNK)
    D, q = _boundary_case(M, points)
    if reference:
        D = with_self_reference(D)
    res = perron_integral(D, q, f_norm=D.abs_sum(0.0), quad_tol=_BOUNDARY_TOL)
    assert (res.value, res.step, res.rounds) == _whole_grid_perron(M, points)


def test_perron_memory_is_bounded_by_the_first_round():
    # acceptance criterion 4's largest call: about 688k integrand points
    rng = np.random.default_rng(5)
    lam = np.cumsum(rng.uniform(0.2, 0.8, 5))
    D = DirichletSeries(Frequency(lam), rng.standard_normal(5) + 1j * rng.standard_normal(5))
    x = float(lam[2]) + 0.5
    T = required_T(1.0, x, 0.3, D.abs_sum(0.0), 1e-4)
    tracemalloc.start()
    try:
        perron_vs_direct(D, PerronQuery(x=x, k=1.0, epsilon=0.3, T=T, step=0.05), quad_tol=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
