import cmath
import json
import math
import sys
import threading

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
from gdseries import series as series_module
from gdseries.series import (
    _BLOCK_ENTRIES,
    NormReport,
    SupReport,
    _eval_line,
    _eval_points,
    _phase_blocks,
    _phase_sum,
)


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


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_line_grid_rejects_non_finite_values(field, bad):
    args = [0.5, 0.0, 2.0, 0.3]
    args[field] = bad
    with pytest.raises(ValueError, match="finite"):
        LineGrid(*args)


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


def test_translate_carries_the_reference():
    D = with_self_reference(geometric(8))
    s0 = 0.3 + 0.5j
    shifted = translate(D, s0)
    s = np.array([0.7 + 0.1j, 1.2 - 2.0j])
    assert np.array_equal(shifted.reference(s), D.reference(s + s0))
    assert abs(shifted.reference(s)[0] - evaluate(shifted, s[0])) < 1e-12


def test_with_self_reference_evaluates_the_full_sum():
    D = with_self_reference(geometric(8))
    s = 0.7 + 0.1j
    assert abs(D.reference(s) - evaluate(D, s)) < 1e-14


def test_kernel_blocks_match_one_shot_expressions(monkeypatch):
    # M = 3000 puts 87 points in a block, so the 2001-point grid takes 23,
    # striped over at least two workers
    monkeypatch.setattr(series_module, "_WORKERS", max(2, series_module._WORKERS))
    M = 3000
    rng = np.random.default_rng(5)
    D = DirichletSeries(make_frequency("log", M), rng.standard_normal(M) + 1j * rng.standard_normal(M))
    grid = LineGrid(1e-3, 0.0, 100.0, 0.05)
    ts, lam = grid.points(), D.freq.values
    amp = D.coeffs * np.exp(-lam * grid.sigma)
    blocks = []
    _phase_blocks(1j * ts, lam, lambda lo, phase: blocks.append((lo, phase.shape[0], threading.get_ident())))
    rows = _BLOCK_ENTRIES // M
    assert sorted((lo, size) for lo, size, _ in blocks) == [
        (lo, min(rows, ts.size - lo)) for lo in range(0, ts.size, rows)
    ]
    assert len(blocks) > 2
    assert len({ident for _, _, ident in blocks}) >= 2

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


def test_series_from_descriptor_frequency_tag_takes_m_from_the_coefficients(tmp_path):
    cpath = tmp_path / "c.csv"
    write_coefficients_csv(cpath, [1 + 1j, 2 + 0j, -1 + 0j])
    D = series_from_descriptor({"frequency": "linear", "coefficients": str(cpath)})
    assert np.array_equal(D.freq.values, make_frequency("linear", 3).values)
    assert D.coeffs.tolist() == [1 + 1j, 2 + 0j, -1 + 0j]
    with pytest.raises(ValueError, match="a frequency tag needs a coefficients file"):
        series_from_descriptor({"frequency": "linear", "coefficients": "ones"})


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


# ---------------------------------------------------------------------------
# the line-sup engine against the loop it replaces


def _naive_line_sup(D, N, grid, tol_sup=1e-4, max_rounds=10):
    """The refinement loop with every round evaluated on its whole grid."""
    N = D.M if N is None else N
    step, best, t_best, rounds, prev = grid.step, -math.inf, grid.t_min, 0, None
    while True:
        ts = grid.points(step)
        vals = np.abs(_eval_line(D, grid.sigma, ts, N))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, t_best = float(vals[i]), float(ts[i])
        rounds += 1
        if (prev is not None and abs(best - prev) <= tol_sup * max(best, 1e-300)) or rounds >= max_rounds:
            break
        prev = best
        step /= 2.0
    spacing = float(np.max(np.diff(ts)))
    upper = min(best + D.lipschitz(grid.sigma, N) * spacing / 2.0, D.abs_sum(grid.sigma, N))
    return SupReport(best, max(upper, best), t_best, step, rounds)


def _naive_norm(D, t_min, t_max, step, sigma_min, levels, tol_sup):
    """One naive line sup per level, combined as halfplane_norm combines them."""
    sigmas = tuple(sigma_min * 2.0**j for j in range(levels))
    reps = [_naive_line_sup(D, None, LineGrid(sg, t_min, t_max, step), tol_sup) for sg in sigmas]
    estimate = max(r.value for r in reps)
    upper = max(min(max(r.certified_upper for r in reps), D.abs_sum(0.0)), estimate)
    return NormReport(estimate, upper, sigmas, tuple(r.value for r in reps)), reps


@pytest.fixture
def rows_built(monkeypatch):
    """Count the phase rows (points) that ``_eval_line`` is asked for."""
    count = [0]
    inner = series_module._eval_line

    def counting(D, sigma, ts, N=None):
        count[0] += ts.size
        return inner(D, sigma, ts, N)

    monkeypatch.setattr(series_module, "_eval_line", counting)
    return count


def _seeded(kind, M, seed):
    rng = np.random.default_rng(seed)
    return DirichletSeries(make_frequency(kind, M), rng.standard_normal(M) + 1j * rng.standard_normal(M))


def _fresh_rows(grid, rounds):
    """Rows a refinement needs: only the odd points of a true refinement, else all."""
    total, old = 0, None
    for j in range(rounds):
        ts = grid.points(grid.step / 2.0**j)
        refines = old is not None and ts.size == 2 * old.size - 1 and np.array_equal(ts[::2], old)
        total += old.size - 1 if refines else ts.size
        old = ts
    return total


@pytest.mark.parametrize(
    "M, N, window, max_rounds",
    [
        # 699 points per block: the 700 new points of round 2 take a full block
        # and a block of one point
        (375, None, (0.0, 35.0, 0.05), 2),
        # 20.3 / 0.09 and its halvings round to 226, 451, 902 and 1804 intervals:
        # round 2 is not a true refinement and is evaluated afresh, rounds 3 and 4 are
        (40, 25, (-3.0, 17.3, 0.09), 4),
        (40, 25, (-3.0, 17.3, 0.09), 1),
    ],
    ids=["multi-block", "not-a-refinement", "one-round"],
)
def test_line_sup_report_is_bit_identical_to_full_grid_rounds(M, N, window, max_rounds, rows_built):
    D = _seeded("log", M, 8)
    grid = LineGrid(1e-3, *window)
    want = _naive_line_sup(D, N, grid, tol_sup=1e-12, max_rounds=max_rounds)
    rows_built[0] = 0
    got = line_sup_report(D, N, grid, tol_sup=1e-12, max_rounds=max_rounds)
    assert got == want
    assert got.rounds == max_rounds
    assert rows_built[0] == _fresh_rows(grid, max_rounds)


def test_halfplane_norm_is_bit_identical_with_levels_stopping_in_different_rounds(rows_built):
    D = _seeded("log", 60, 3)
    args = (-3.0, 17.3, 0.09, 1e-3, 6, 1e-7)
    want, reps = _naive_norm(D, *args)
    assert len({r.rounds for r in reps}) > 1
    rows_built[0] = 0
    assert halfplane_norm(D, *args) == want
    grid = LineGrid(1e-3, *args[:3])
    assert rows_built[0] == _fresh_rows(grid, max(r.rounds for r in reps))


def test_eval_line_gives_one_row_per_sigma():
    D = _seeded("logprimes", 50, 1)
    ts = LineGrid(0.0, 0.0, 10.0, 0.1).points()
    rows = _eval_line(D, [0.0, 0.25, 1.0], ts, 30)
    assert rows.shape == (3, ts.size)
    for row, sigma in zip(rows, (0.0, 0.25, 1.0)):
        assert np.array_equal(row, _eval_line(D, sigma, ts, 30))


def test_phase_sum_of_one_amplitude_owns_its_output():
    D = _seeded("log", 30, 2)
    z = 1j * LineGrid(0.0, 0.0, 10.0, 0.1).points()
    out = _phase_sum(z, D.freq.values, D.coeffs)
    assert out.ndim == 1
    assert out.flags.owndata


def test_halfplane_norm_builds_each_phase_row_once(rows_built):
    D = DirichletSeries(make_frequency("log", 2000), np.ones(2000))
    halfplane_norm(D)
    # 8 levels x (2001 + 4001) rows when every level rebuilt every round
    assert rows_built[0] == 4001


def test_line_sup_report_builds_only_the_new_points(rows_built):
    D = DirichletSeries(make_frequency("log", 10_000), np.ones(10_000))
    line_sup_report(D, None, LineGrid(1e-3, 0.0, 100.0, 0.05))
    # 2001 + 4001 rows when each round rebuilt its whole grid
    assert rows_built[0] == 4001


@pytest.fixture
def striped():
    """A series and a grid whose 1399 points take two full blocks and one of one row."""
    D = _seeded("log", 375, 4)
    grid = LineGrid(0.2, 0.0, 69.9, 0.05)
    rows = _BLOCK_ENTRIES // D.M
    assert grid.points().size == 2 * rows + 1
    return D, grid


@pytest.mark.parametrize("workers", [2, 3])
def test_results_do_not_depend_on_the_worker_count(striped, workers, monkeypatch):
    D, grid = striped
    ts = grid.points()

    def results():
        return [
            _eval_line(D, grid.sigma, ts),
            _eval_line(D, [0.0, grid.sigma, 1.0], ts, 300),
            _eval_points(D, grid.sigma + 1j * ts),
            _partial_sup_profile(D, grid),
            line_sup_report(D, None, grid),
            halfplane_norm(D, 0.0, 69.9, 0.05),
        ]

    monkeypatch.setattr(series_module, "_WORKERS", 1)
    want = results()
    monkeypatch.setattr(series_module, "_WORKERS", workers)
    got = results()
    for g, w in zip(got[:4], want[:4]):
        assert np.array_equal(g, w)
    assert got[4:] == want[4:]


@pytest.mark.parametrize("raise_in_caller", [False, True])
def test_phase_blocks_reraise_a_worker_exception_and_leave_no_thread(raise_in_caller, monkeypatch):
    monkeypatch.setattr(series_module, "_WORKERS", 3)
    monkeypatch.setattr(series_module, "_BLOCK_POINTS", 2)
    before = threading.active_count()
    caller = threading.get_ident()

    def work(lo, phase):
        if (threading.get_ident() == caller) == raise_in_caller:
            raise RuntimeError(f"block at {lo}")

    with pytest.raises(RuntimeError, match="block at"):
        _phase_blocks(1j * np.arange(20.0), np.arange(1.0, 5.0), work)
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    monkeypatch.setattr(series_module, "_WORKERS", 2)
    D = _seeded("log", 20, 6)
    ts = LineGrid(0.0, 0.0, 100.0, 0.05).points()
    _eval_line(D, 0.0, ts)
    assert started == []
    # a grid of two blocks does start the second worker
    _eval_line(D, 0.0, np.concatenate([ts, ts, ts]))
    assert len(started) == 1


def test_partial_sup_profile_folds_every_block_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: a lost update in
    # the fold of column maxima would leave some sup below its serial value
    D = _seeded("log", 4096, 10)
    grid = LineGrid(0.0, 0.0, 20.0, 0.05)
    monkeypatch.setattr(series_module, "_BLOCK_POINTS", 4)
    monkeypatch.setattr(series_module, "_WORKERS", 1)
    want = _partial_sup_profile(D, grid)
    monkeypatch.setattr(series_module, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(_partial_sup_profile(D, grid), want)
    finally:
        sys.setswitchinterval(interval)
