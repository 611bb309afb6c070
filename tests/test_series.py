import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries import (
    DirichletSeries,
    Frequency,
    LineGrid,
    builtin_coefficients,
    coefficient_recover,
    evaluate,
    halfplane_norm,
    line_sup_report,
    make_frequency,
    read_coefficients_csv,
    riesz_uniform_error,
    series_from_descriptor,
    translate,
    with_self_reference,
    write_coefficients_csv,
)
from gdseries.bounds import _partial_sup_profile
from gdseries.series import _BLOCK_ENTRIES, _eval_line, _phase_blocks


def geometric(M=20):
    return DirichletSeries(make_frequency("linear", M), np.ones(M, dtype=complex))


small_series = st.builds(
    lambda gaps, re, im: DirichletSeries(
        Frequency(np.concatenate([[0.0], np.cumsum(gaps)])[: len(re)]),
        np.asarray(re) + 1j * np.asarray(im),
    ),
    st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=5, max_size=5),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=5, max_size=5),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=5, max_size=5),
)


def test_evaluate_geometric_closed_form():
    D = geometric(30)
    s = 1.0 + 0.7j
    got = evaluate(D, s)
    q = np.exp(-s)
    want = (1 - q**30) / (1 - q)
    assert abs(got - want) < 1e-12


def test_evaluate_partial_sum_prefix():
    D = geometric(10)
    assert evaluate(D, 0.5, N=1) == pytest.approx(1.0)
    full = evaluate(D, 0.5)
    head = evaluate(D, 0.5, N=9)
    assert abs(full - head - np.exp(-0.5 * 9)) < 1e-14


def test_evaluate_rejects_bad_N():
    D = geometric(5)
    with pytest.raises(ValueError):
        evaluate(D, 1.0, N=6)
    with pytest.raises(ValueError):
        evaluate(D, 1.0, N=0)


def test_line_grid_points_hit_both_ends():
    grid = LineGrid(0.5, 0.0, 2.0, 0.3)
    pts = grid.points()
    assert pts[0] == 0.0
    assert pts[-1] == 2.0
    assert np.all(np.diff(pts) > 0)


def test_line_grid_rejects_empty_window():
    with pytest.raises(ValueError):
        LineGrid(0.5, 3.0, 1.0, 0.1)


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_line_sup_below_coefficient_sum(D):
    grid = LineGrid(0.2, 0.0, 10.0, 0.1)
    rep = line_sup_report(D, None, grid, max_rounds=3)
    assert rep.value <= D.abs_sum(0.2) + 1e-9
    assert rep.certified_upper >= rep.value


def test_line_sup_finds_the_peak_of_a_single_term():
    # |a e^{-lambda s}| is constant in t, so any grid point is the sup
    D = DirichletSeries(Frequency(np.array([2.0])), np.array([3.0 + 0j]))
    rep = line_sup_report(D, None, LineGrid(1.0, 0.0, 5.0, 0.5))
    assert rep.value == pytest.approx(3.0 * math.exp(-2.0))


@settings(max_examples=40, deadline=None)
@given(small_series, st.floats(-1, 1), st.floats(-1, 1))
def test_translate_composes(D, a, b):
    once = translate(translate(D, complex(a, 0.3)), complex(b, -0.1))
    direct = translate(D, complex(a + b, 0.2))
    assert np.allclose(once.coeffs, direct.coeffs, rtol=1e-12, atol=1e-12)


def test_translate_shifts_evaluation():
    D = geometric(12)
    w = 0.4 + 0.9j
    s = 0.2 - 0.3j
    assert abs(evaluate(translate(D, w), s) - evaluate(D, s + w)) < 1e-12


def test_with_self_reference_evaluates_the_full_sum():
    D = with_self_reference(geometric(8))
    s = 0.7 + 0.1j
    assert abs(D.reference(s) - evaluate(D, s)) < 1e-14


def test_kernel_blocks_match_one_shot_expressions():
    # M = 3000 puts 699 points in a block, so the 2001-point grid takes three
    M = 3000
    rng = np.random.default_rng(5)
    D = DirichletSeries(make_frequency("log", M), rng.standard_normal(M) + 1j * rng.standard_normal(M))
    grid = LineGrid(1e-3, 0.0, 100.0, 0.05)
    ts, lam = grid.points(), D.freq.values
    amp = D.coeffs * np.exp(-lam * grid.sigma)
    sizes = [phase.shape[0] for _, phase in _phase_blocks(1j * ts, lam)]
    assert sizes == [_BLOCK_ENTRIES // M] * 2 + [ts.size - 2 * (_BLOCK_ENTRIES // M)]

    phase = np.exp(-1j * np.outer(ts, lam))
    assert np.array_equal(_eval_line(D, grid.sigma, ts), phase @ amp)
    one_shot = np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)
    assert np.array_equal(_partial_sup_profile(D, grid), one_shot)
    s = grid.sigma + 1j * ts
    assert np.array_equal(with_self_reference(D).reference(s), np.exp(-np.outer(s, lam)) @ D.coeffs)


def _with_reference(f):
    return DirichletSeries(make_frequency("linear", 4), np.ones(4, dtype=complex), reference=f)


@pytest.mark.parametrize(
    "call",
    [
        lambda D: coefficient_recover(D, 1, sigma=1.0, T=10.0, step=0.5),
        lambda D: riesz_uniform_error(D, 1.0, 0.5, 2.5, LineGrid(0.5, 0.0, 5.0, 0.5)),
    ],
    ids=["coefficient_recover", "riesz_uniform_error"],
)
def test_reference_of_the_wrong_shape_is_rejected(call):
    with pytest.raises(ValueError, match="shape"):
        call(_with_reference(lambda s: 1.0))


def test_scalar_only_reference_error_propagates():
    D = _with_reference(lambda s: cmath.exp(-complex(s)))
    with pytest.raises(TypeError):
        coefficient_recover(D, 1, sigma=1.0, T=10.0, step=0.5)


def test_certificate_uses_the_sampled_spacing():
    # 2.5 steps of 0.4 round to 2 intervals: the grid is sampled at spacing 0.5
    D = DirichletSeries(Frequency(np.array([0.0, 0.1])), np.array([1.0, -1.0], dtype=complex))
    rep = line_sup_report(D, None, LineGrid(0.0, 0.0, 1.0, 0.4), max_rounds=1)
    assert rep.step == 0.4
    assert rep.certified_upper >= rep.value + D.lipschitz(0.0) * 0.25


def test_coefficient_recover_small_polynomial():
    D = with_self_reference(
        DirichletSeries(
            Frequency(np.array([0.0, 1.0, 2.5])),
            np.array([1.0 + 0j, -2.0 + 1j, 0.5 - 0.5j]),
        )
    )
    got = coefficient_recover(D, 2, sigma=1.0, T=5000.0, step=0.05)
    assert abs(got - (-2.0 + 1j)) < 5e-3


def test_coefficient_recover_rejects_a_step_wider_than_the_window():
    D = with_self_reference(DirichletSeries(make_frequency("linear", 4), np.ones(4)))
    with pytest.raises(ValueError, match="step"):
        coefficient_recover(D, 2, sigma=1.0, T=1000.0, step=5000.0)


def test_halfplane_norm_certificate_brackets_value():
    D = geometric(10)
    rep = halfplane_norm(D, t_min=0.0, t_max=30.0, step=0.05, levels=5)
    assert rep.estimate <= rep.certified_upper
    assert rep.certified_upper <= D.abs_sum(0.0) + 1e-12
    # for positive coefficients the sup on sigma -> 0 is the value at s = 0
    assert rep.estimate == pytest.approx(10.0, rel=1e-2)


def test_builtin_coefficients_tags():
    assert builtin_coefficients("ones", 3).tolist() == [1, 1, 1]
    assert builtin_coefficients("alternating", 3).tolist() == [-1, 1, -1]
    assert builtin_coefficients("inverse-square", 3)[2] == pytest.approx(1 / 9)


def test_seeded_normal_is_reproducible():
    a = builtin_coefficients("seeded-normal", 6, seed=11)
    b = builtin_coefficients("seeded-normal:11", 6)
    c = builtin_coefficients("seeded-normal", 6, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_normal_without_seed_is_an_error():
    with pytest.raises(ValueError):
        builtin_coefficients("seeded-normal", 4)


def test_coefficients_csv_roundtrip(tmp_path):
    path = tmp_path / "coeffs.csv"
    coeffs = np.array([1.5 + 0j, -0.25 + 2j, 0.0 - 1j])
    write_coefficients_csv(path, coeffs)
    back = read_coefficients_csv(path)
    assert np.array_equal(back, coeffs)
    header = path.read_text().splitlines()[0]
    assert header == "index,re,im"


def test_coefficients_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,x,y\n1,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_coefficients_csv(path)


def test_series_from_descriptor_with_builtin_parts(tmp_path):
    desc = {"frequency": {"kind": "linear", "m": 4}, "coefficients": "alternating"}
    D = series_from_descriptor(desc)
    assert D.M == 4
    assert D.coeffs.tolist() == [-1, 1, -1, 1]

    p = tmp_path / "series.json"
    p.write_text(json.dumps(desc))
    D2 = series_from_descriptor(p)
    assert np.array_equal(D2.freq.values, D.freq.values)


def test_series_from_descriptor_with_files(tmp_path):
    fpath = tmp_path / "freq.txt"
    fpath.write_text("0.0\n0.5\n2.0\n")
    cpath = tmp_path / "c.csv"
    write_coefficients_csv(cpath, [1 + 1j, 2 + 0j, -1 + 0j])
    D = series_from_descriptor({"frequency": str(fpath), "coefficients": str(cpath)})
    assert D.M == 3
    assert D.freq.values.tolist() == [0.0, 0.5, 2.0]


def test_series_rejects_length_mismatch():
    with pytest.raises(ValueError):
        DirichletSeries(make_frequency("linear", 3), np.ones(4, dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_series_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        DirichletSeries(make_frequency("linear", 3), np.array([1.0, bad, 1.0]))


def test_translate_overflow_is_an_error():
    D = DirichletSeries(make_frequency("linear", 3), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        translate(D, -800.0)
