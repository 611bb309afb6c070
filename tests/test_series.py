import cmath
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdseries import (
    BUILTIN_KINDS,
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
    riesz_truncation,
    riesz_uniform_error,
    series_from_descriptor,
    sigma_u_k_estimate,
    translate,
    with_self_reference,
    write_coefficients_csv,
)
from gdseries import acceptance
from gdseries.cli import run
from gdseries.bounds import _partial_sup_profile
from gdseries import series as series_module
from gdseries.series import (
    NormReport,
    SupReport,
    _block_rows,
    _eval_line,
    _eval_points,
    _line_block,
    _phase_blocks,
    _phase_sum,
    _refine_lines,
    _refine_max,
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
    # M = 3000 puts 21 points in a block, so the 2001-point grid takes 96,
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
    rows = _block_rows(M)
    assert sorted((lo, size) for lo, size, _ in blocks) == [
        (lo, min(rows, ts.size - lo)) for lo in range(0, ts.size, rows)
    ]
    assert len(blocks) > 2
    assert len({ident for _, _, ident in blocks}) >= 2

    phase = np.exp(-1j * np.outer(ts, lam))
    assert np.array_equal(_eval_line(D, [amp], ts)[0], phase @ amp)
    one_shot = np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)
    assert np.array_equal(_partial_sup_profile(D, grid), one_shot)
    s = grid.sigma + 1j * ts
    assert np.array_equal(with_self_reference(D).reference(s), np.exp(-np.outer(s, lam)) @ D.coeffs)


def test_narrow_series_fill_the_entry_budget(monkeypatch):
    # below 16 frequencies a block holds 2^16 // m rows, more than 4096: a
    # 5-term series puts 13,107 points in a block, so 30,001 points take three
    ms = (1, 5, 15, 16, 17)
    assert [_block_rows(m) for m in ms] == [series_module._BLOCK_ENTRIES // m for m in ms]
    monkeypatch.setattr(series_module, "_WORKERS", max(2, series_module._WORKERS))
    D = _seeded("log", 5, 3)
    grid = LineGrid(0.1, 0.0, 300.0, 0.01)
    ts, lam = grid.points(), D.freq.values
    blocks = []
    _phase_blocks(1j * ts, lam, lambda lo, phase: blocks.append((lo, phase.shape[0])))
    assert sorted(blocks) == [(0, 13_107), (13_107, 13_107), (26_214, 3_787)]

    amp = D.coeffs * np.exp(-lam * grid.sigma)
    phase = np.exp(-1j * np.outer(ts, lam))
    assert np.array_equal(_eval_line(D, [amp], ts)[0], phase @ amp)
    s = grid.sigma + 1j * ts
    assert np.array_equal(_eval_points(D, s), np.exp(-np.outer(s, lam)) @ D.coeffs)
    one_shot = np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)
    assert np.array_equal(_partial_sup_profile(D, grid), one_shot)


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
    # the Lipschitz constant on Re s = 0 is sum |a_n| lambda_n
    assert rep.certified_upper >= rep.value + math.fsum(np.abs(D.coeffs) * D.freq.values) * 0.25


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
    rep = halfplane_norm(D, LineGrid(1e-3, 0.0, 30.0, 0.05), levels=5)
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


@pytest.mark.parametrize("tag", ["seeded-normalXYZ", "seeded-normal:abc", "seeded-normal:"])
def test_builtin_coefficients_rejects_a_tag_the_descriptor_rejects(tag, tmp_path, monkeypatch):
    # one tag rule for the library and for descriptors (and so the command line)
    with pytest.raises(ValueError, match=re.escape(f"unknown coefficient tag {tag!r}; expected one of ones,")):
        builtin_coefficients(tag, 3, seed=1)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="neither a file nor a builtin tag"):
        series_from_descriptor({"frequency": {"kind": "linear", "m": 3}, "coefficients": tag})


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


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,abc,0", "row 1: not a finite number: 'abc'"),
        ("1.0,1,0", "row 1: index is not an integer: '1.0'"),
        ("1,1e400,0", "row 1: not a finite number: '1e400'"),
        ("1,1,0\n2,0, nan", "row 2: not a finite number: ' nan'"),
        ("1,1,0\n\n2,-inf,0", "row 2: not a finite number: '-inf'"),
    ],
)
def test_coefficients_csv_names_the_row_of_a_cell_that_is_not_a_finite_number(rows, message, tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text(f"index,re,im\n{rows}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_coefficients_csv(path)
    argv = ["series", "coeffs", "--kind", "linear", "--n", "2", "--coeffs-file", str(path)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_series_from_descriptor_with_builtin_parts(tmp_path):
    desc = {"frequency": {"kind": "linear", "m": 4}, "coefficients": "alternating"}
    D = series_from_descriptor(desc)
    assert D.M == 4
    assert D.coeffs.tolist() == [-1, 1, -1, 1]

    p = tmp_path / "series.json"
    p.write_text(json.dumps(desc))
    D2 = series_from_descriptor(p)
    assert np.array_equal(D2.freq.values, D.freq.values)


def test_series_from_descriptor_with_files(tmp_path, monkeypatch):
    fpath = tmp_path / "freq.txt"
    fpath.write_text("0.0\n0.5\n2.0\n")
    cpath = tmp_path / "c.csv"
    write_coefficients_csv(cpath, [1 + 1j, 2 + 0j, -1 + 0j])
    D = series_from_descriptor({"frequency": str(fpath), "coefficients": str(cpath)})
    assert D.M == 3
    assert D.freq.values.tolist() == [0.0, 0.5, 2.0]
    # any string that is no builtin tag names a file, relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lambdas").write_text("0.0\n0.5\n2.0\n")
    write_coefficients_csv(tmp_path / "coeffs.dat", [1 + 1j, 2 + 0j, -1 + 0j])
    for desc in ({"frequency": "lambdas", "coefficients": "coeffs.dat"},
                 {"frequency": {"kind": "linear"}, "coefficients": "coeffs.dat"}):
        assert series_from_descriptor(desc).coeffs.tolist() == [1 + 1j, 2 + 0j, -1 + 0j]


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
        vals = np.abs(_eval_line(D, _amplitudes(D, N, (grid.sigma,)), ts, N)[0])
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, t_best = float(vals[i]), float(ts[i])
        rounds += 1
        if (prev is not None and abs(best - prev) <= tol_sup * max(best, 1e-300)) or rounds >= max_rounds:
            break
        prev = best
        step /= 2.0
    spacing = float(np.max(np.diff(ts)))
    lam = D.freq.values[:N]
    lipschitz = math.fsum(np.abs(D.coeffs[:N]) * lam * np.exp(-lam * grid.sigma))
    cap = D.abs_sum(grid.sigma, N)
    # 2E, twice the rounding term E = 2u (T L + (N + 8) cap) of the series docstring
    rounding = 4.0 * 2.0**-53 * (max(abs(grid.t_min), abs(grid.t_max)) * lipschitz + (N + 8) * cap)
    upper = min(best + lipschitz * spacing / 2.0 + rounding, cap)
    return SupReport(best, max(upper, best), t_best, step, rounds)


def _naive_norm(D, grid, levels, tol_sup):
    """One naive line sup per level, combined as halfplane_norm combines them."""
    sigmas = tuple(grid.sigma * 2.0**j for j in range(levels))
    reps = [_naive_line_sup(D, None, LineGrid(sg, grid.t_min, grid.t_max, grid.step), tol_sup) for sg in sigmas]
    estimate = max(r.value for r in reps)
    upper = max(min(max(r.certified_upper for r in reps), D.abs_sum(0.0)), estimate)
    return NormReport(estimate, upper, sigmas, tuple(r.value for r in reps)), reps


@pytest.fixture
def rows_built(monkeypatch):
    """Count the phase rows (points) that ``_eval_line`` is asked for; the
    points of each call follow the count."""
    count = [0]
    inner = series_module._eval_line

    def counting(D, amps, ts, N=None):
        count[0] += ts.size
        count.append(ts.copy())
        return inner(D, amps, ts, N)

    monkeypatch.setattr(series_module, "_eval_line", counting)
    return count


def _asked_once(calls, t_min):
    """No t is asked twice, except by a round that asks its whole grid afresh:
    only such a round asks for t_min, since a refinement asks for midpoints."""
    seen = set()
    for ts in calls:
        if ts.size and ts[0] == t_min:
            seen = set()
        points = set(ts.tolist())
        if len(points) < ts.size or points & seen:
            return False
        seen |= points
    return True


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
        # 233 points per block: the 700 new points of round 2 take three full
        # blocks and a block of one point
        (281, None, (0.0, 35.0, 0.05), 2),
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
    rows_built[:] = [0]
    got = line_sup_report(D, N, grid, tol_sup=1e-12, max_rounds=max_rounds)
    assert got == want
    assert got.rounds == max_rounds
    assert rows_built[0] <= _fresh_rows(grid, max_rounds)
    assert _asked_once(rows_built[1:], grid.t_min)
    if M == 281:  # multi-block
        assert any(ts.size % _block_rows(M) == 1 for ts in rows_built[1:])


def test_halfplane_norm_is_bit_identical_with_levels_stopping_in_different_rounds(rows_built):
    D = _seeded("log", 60, 3)
    grid = LineGrid(1e-3, -3.0, 17.3, 0.09)
    want, reps = _naive_norm(D, grid, 6, 1e-7)
    assert len({r.rounds for r in reps}) > 1
    rows_built[:] = [0]
    assert halfplane_norm(D, grid, 6, 1e-7) == want
    assert rows_built[0] <= _fresh_rows(grid, max(r.rounds for r in reps))
    assert _asked_once(rows_built[1:], grid.t_min)


def _amplitudes(D, N, sigmas):
    return [D.coeffs[:N] * np.exp(-D.freq.values[:N] * sigma) for sigma in sigmas]


def test_eval_line_gives_one_row_per_sigma():
    D = _seeded("logprimes", 50, 1)
    ts = LineGrid(0.0, 0.0, 10.0, 0.1).points()
    rows = _eval_line(D, _amplitudes(D, 30, (0.0, 0.25, 1.0)), ts, 30)
    assert len(rows) == 3
    assert all(len(row) == ts.size for row in rows)
    for row, sigma in zip(rows, (0.0, 0.25, 1.0)):
        assert np.array_equal(row, _eval_line(D, _amplitudes(D, 30, (sigma,)), ts, 30)[0])


def test_phase_sum_rows_own_their_output():
    D = _seeded("log", 30, 2)
    z = 1j * LineGrid(0.0, 0.0, 10.0, 0.1).points()
    for amps in ([D.coeffs], [D.coeffs, D.coeffs[:10], -D.coeffs]):
        out = _phase_sum(z, D.freq.values, amps)
        assert len(out) == len(amps)
        for row in out:
            assert row.ndim == 1
            assert row.flags.owndata


def _complex_exp_line_block(t, lam, phase):
    """The line block as the complex exp at z = 1j * t builds it."""
    series_module._exp_block(1j * t, lam, phase)


@pytest.mark.parametrize("kind", ["linear", "log", "logprimes"])
def test_line_block_keeps_the_bits_of_the_complex_exp(kind):
    # linear and log start at lambda_1 = 0; the windows hold t < 0 and t = 0,
    # and the last reaches |t lambda| = 1e6
    M = 512
    lam = make_frequency(kind, M).values
    rng = np.random.default_rng(21)
    amps = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (M, 37, 1)]
    rows = _block_rows(M)
    # an even row count puts t = 0 on the middle point of the third window
    assert rows % 2 == 0
    reach = 1e6 / lam[-1]
    windows = [
        np.array([0.0]),
        np.array([-2.5]),
        # a full block and one of one row, with t = 0 at its middle point
        LineGrid(0.0, -50.0, 50.0, 100.0 / rows).points(),
        LineGrid(0.0, -reach, reach, reach / 500).points(),
    ]
    assert windows[2].size == rows + 1 and 0.0 in windows[2]
    for ts in windows:
        got = _phase_sum(ts, lam, amps, _line_block)
        want = _phase_sum(1j * ts, lam, amps)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("kind", ["linear", "log", "logprimes"])
def test_line_paths_keep_the_bits_of_the_complex_exp(kind, monkeypatch):
    D = _seeded(kind, 300, 17)
    stack = np.array([D.coeffs, -2.0 * D.coeffs, D.coeffs[::-1]])
    grid = LineGrid(0.1, -30.0, 20.0, 0.05)
    ref = with_self_reference(D)

    def results():
        return [
            line_sup_report(D, None, grid),
            line_sup_report(D, 200, grid),
            halfplane_norm(D, LineGrid(1e-3, -30.0, 20.0, 0.05), levels=3),
            _partial_sup_profile(D, grid).tolist(),
            _partial_sup_profile(D, grid, stack).tolist(),
            riesz_uniform_error(ref, 1.0, 0.5, float(D.freq.values[40]), grid),
        ]

    got = results()
    monkeypatch.setattr(series_module, "_line_block", _complex_exp_line_block)
    assert got == results()


def test_halfplane_norm_builds_each_phase_row_once(rows_built):
    D = DirichletSeries(make_frequency("log", 2000), np.ones(2000))
    halfplane_norm(D)
    # 8 levels x (2001 + 4001) rows when every level rebuilt every round, 4001
    # when every new point was evaluated, and 2014 when round 1 evaluated its
    # whole grid: the maxima sit at t = 0, and the shifted-amplitude and
    # Lipschitz bounds skip most points away from it
    assert rows_built[0] == 264


def test_line_sup_report_builds_only_the_new_points(rows_built):
    D = DirichletSeries(make_frequency("log", 10_000), np.ones(10_000))
    line_sup_report(D, None, LineGrid(1e-3, 0.0, 100.0, 0.05))
    # 2001 + 4001 rows when each round rebuilt its whole grid, 4001 when every
    # new point was evaluated, and 2016 when round 1 evaluated its whole grid
    assert rows_built[0] == 266


def _riesz_lines(D, xs, sigma, ks=(0.25, 0.5, 1.0)):
    """One line per non-empty truncation R_x^k(D): prefixes of D's frequency."""
    truncs = (riesz_truncation(D, k, float(x)) for k in ks for x in xs)
    return [(trunc.coeffs, sigma) for trunc in truncs if trunc is not None]


def _over_prefix(D, c):
    """The series of coefficients c over D's first len(c) frequencies."""
    return DirichletSeries(Frequency(D.freq.values[: c.size]), c)


def _criterion_6_lines(D):
    lam_hi = float(D.freq.values[-1])
    return _riesz_lines(D, np.linspace(0.3 * lam_hi, 1.3 * lam_hi, 6) + 1e-3, 1e-3)


@pytest.mark.parametrize(
    "D, lines, window, tol_sup, max_rounds",
    [
        # criterion 6: 18 truncations of each of four of its polynomials
        *[
            (D, _criterion_6_lines(D), (0.0, 60.0, 0.05), 1e-4, 3)
            for D, _ in acceptance._polynomial_family(7)[2:6]
        ],
        # the widest prefix takes 233 points per block, so the 700 new points
        # of round 2 take three full blocks and a block of one point
        (
            _seeded("log", 281, 8),
            [(_seeded("log", 281, 8).coeffs[:N], sg) for N in (281, 280, 200, 1) for sg in (1e-3, 0.5)]
            + _riesz_lines(_seeded("log", 281, 8), (2.0, 4.0, 5.6), 0.25),
            (0.0, 35.0, 0.05), 1e-12, 2,
        ),
        # round 2 is not a true refinement and is evaluated afresh; the lines
        # stop in rounds 2 to 5, the widest ones first
        (
            _seeded("log", 40, 3),
            _riesz_lines(_seeded("log", 40, 3), (1.0, 2.5, 3.0, 3.7), 1e-3),
            (-3.0, 17.3, 0.09), 1e-7, 10,
        ),
    ],
    ids=[f"criterion-6-{i}" for i in range(2, 6)] + ["multi-block", "not-a-refinement"],
)
def test_lines_over_prefixes_equal_one_line_sup_each(D, lines, window, tol_sup, max_rounds, rows_built):
    grid = LineGrid(0.0, *window)
    want = [line_sup_report(_over_prefix(D, c), None, LineGrid(sg, *window), tol_sup, max_rounds) for c, sg in lines]
    rows_built[:] = [0]
    got = _refine_lines(D, lines, grid, tol_sup, max_rounds)
    assert got == want
    # at most one build of each round's new rows for all lines
    assert rows_built[0] <= _fresh_rows(grid, max(rep.rounds for rep in got))
    assert _asked_once(rows_built[1:], grid.t_min)
    if D.M == 281:  # multi-block
        assert any(ts.size % _block_rows(D.M) == 1 for ts in rows_built[1:])


def test_each_round_builds_rows_over_the_widest_live_prefix(monkeypatch):
    widths = []
    rounds = [0]
    inner, points = series_module._eval_line, LineGrid.points

    def recording(D, amps, ts, N=None):
        widths.append((rounds[0], N))
        return inner(D, amps, ts, N)

    def counting(grid, step=None):
        # a refinement round takes its grid's points once
        rounds[0] += 1
        return points(grid, step)

    monkeypatch.setattr(series_module, "_eval_line", recording)
    monkeypatch.setattr(LineGrid, "points", counting)
    D = _seeded("log", 40, 3)
    lines = _riesz_lines(D, (1.0, 2.5, 3.0, 3.7), 1e-3)
    reps = _refine_lines(D, lines, LineGrid(0.0, -3.0, 17.3, 0.09), 1e-7)
    live = [max(c.size for (c, _), rep in zip(lines, reps) if rep.rounds >= r) for r in range(1, 6)]
    # the 40-term truncations stop after round 3, a 20-term one runs to round 5
    assert live == [40, 40, 40, 20, 20]
    # round 5's 3,610 points are no refinement of round 4's 1,805 and cross
    # both floors of the coarse pass: it asks for its centres, then for the
    # points their bounds cannot skip
    assert [r for r, _ in widths] == [1, 2, 3, 4, 5, 5]
    assert all(width == live[r - 1] for r, width in widths)
    D = acceptance._polynomial_family(7)[2][0]
    reps = _refine_lines(D, _criterion_6_lines(D), LineGrid(1e-3, 0.0, 60.0, 0.05), 1e-4, 3)
    assert {rep.rounds for rep in reps} == {2, 3}


def _evaluating(f, calls):
    """A ``rows`` for ``_refine_max`` that evaluates f(j, ts) at every point a
    round lacks, recording each call's grid size, flag and maxima so far."""

    def rows(ts, refined, best):
        calls.append((ts.size, refined, dict(best)))
        ts = ts[1::2] if refined else ts
        return ts, [f(j, ts) for j in best]

    return rows


def test_refine_max_flags_only_true_refinements():
    # 57.3 / 0.07 and its halvings round to 819, 1637, 3274 and 6549 intervals:
    # only round 3's grid keeps round 2's points as its even points
    calls = []
    rising = _evaluating(lambda j, ts: np.full(ts.size, float(len(calls))), calls)
    ((best, t_best, spacing, step, rounds),) = _refine_max(rising, 1, LineGrid(0.0, -10.0, 47.3, 0.07), 1e-12, 4)
    assert [(size, refined) for size, refined, _ in calls] == [(820, False), (1638, False), (3275, True), (6550, False)]
    assert (best, t_best, step, rounds) == (4.0, -10.0, 0.07 / 8, 4)
    assert spacing == float(np.max(np.diff(LineGrid(0.0, -10.0, 47.3, 0.07).points(0.07 / 8))))


def test_refine_max_keeps_the_first_t_of_a_tie():
    # within a round the smaller t wins; a later round's equal value at a
    # smaller t does not replace an earlier round's
    calls = []
    peaks = _evaluating(lambda j, ts: np.isin(ts, [-1.0, 1.0, -1.75] if j else [1.0, -1.0]).astype(float), calls)
    got = _refine_max(peaks, 2, LineGrid(0.0, -2.0, 2.0, 0.5), 0.0, 3)
    assert [(best, t_best, rounds) for best, t_best, _, _, rounds in got] == [(1.0, -1.0, 2), (1.0, -1.0, 2)]
    assert [refined for _, refined, _ in calls] == [False, True]


def test_refine_max_stops_each_function_by_tol_or_max_rounds():
    # the max after round r is 1 - 2^-r for function 0, r for function 1 and 1
    # for function 2: relative rises of 1 / (2^r - 1), 1 / r and 0
    calls = []
    levels = [lambda r: 1.0 - 0.5**r, float, lambda r: 1.0]
    funcs = _evaluating(lambda j, ts: np.full(ts.size, levels[j](len(calls))), calls)
    got = _refine_max(funcs, 3, LineGrid(0.0, 0.0, 1.0, 0.25), 1.0 / 63, 9)
    # a rise of at most tol stops a function, equality included
    assert [(best, rounds) for best, _, _, _, rounds in got] == [(1.0 - 0.5**6, 6), (9.0, 9), (1.0, 2)]
    assert [list(best) for _, _, best in calls] == [[0, 1, 2]] * 2 + [[0, 1]] * 4 + [[1]] * 3
    # each round is told the maxima before it
    assert calls[6][2] == {1: 6.0}
    assert [step for _, _, _, step, _ in got] == [0.25 / 32, 0.25 / 256, 0.125]
    (only,) = _refine_max(_evaluating(lambda j, ts: ts, []), 1, LineGrid(0.0, 0.0, 1.0, 0.25), 1.0, 1)
    assert only == (1.0, 1.0, 0.25, 0.25, 1)


def test_lines_must_share_one_frequency():
    # every line is a coefficient row over D's frequency; no lines give no reports
    D = _seeded("log", 20, 1)
    assert _refine_lines(D, [], LineGrid(0.0, 0.0, 10.0, 0.1), 1e-4) == []


def test_sigma_u_k_ratios_equal_one_line_sup_per_length():
    D = _seeded("log", 100, 5)
    k, xs = 0.5, [0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.0, 4.7]
    grid = LineGrid(0.7, -3.0, 17.3, 0.09)
    pairs = []
    for i, x in enumerate(xs, start=1):
        trunc = riesz_truncation(D, k, x)
        sup = line_sup_report(trunc, None, LineGrid(0.0, -3.0, 17.3, 0.09)).value
        pairs.append((i, math.log(sup) / x))
    assert sigma_u_k_estimate(D, k, xs, grid).ratios == tuple(pairs)


def test_criterion_6_builds_each_phase_row_once_per_polynomial(rows_built):
    acceptance._polynomial_family(7)  # the shared family is built before counting
    rows_built[:] = [0]
    assert acceptance.criterion_6(7)[0]
    # one refinement of 1201 + 1200 + 2400 rows at most per polynomial, where
    # each of the 900 truncations made its own (2,271,300 rows); 168,050 when
    # every new point was evaluated
    assert rows_built[0] <= 50 * 4801
    assert rows_built[0] == 75_800


@st.composite
def _line_cases(draw):
    """A polynomial with M <= 40, lines over its prefixes and sigma-levels, and
    a window (t_min, t_max, step) whose step need not divide it."""
    M = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["log", "logprimes", "linear", "random"]))
    if kind == "random":
        gaps = draw(st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=M, max_size=M))
        freq = Frequency(np.cumsum(gaps))
    else:
        freq = make_frequency(kind, M)
    if draw(st.booleans()):
        coeffs = np.ones(M, dtype=complex)
    else:
        parts = st.lists(st.floats(min_value=-3, max_value=3), min_size=2 * M, max_size=2 * M)
        coeffs = np.array(draw(parts)).view(complex)
    D = DirichletSeries(freq, coeffs)
    lines = draw(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=M), st.sampled_from([0.0, 1e-3, 0.1, 0.5])),
            min_size=1,
            max_size=4,
        )
    )
    t_min = draw(st.floats(min_value=-20.0, max_value=20.0))
    width = draw(st.floats(min_value=0.5, max_value=30.0))
    step = width / draw(st.floats(min_value=1.5, max_value=80.0))
    return D, [(D.coeffs[:N], sg) for N, sg in lines], (t_min, t_min + width, step)


def _ones_case(kind, M, window):
    D = DirichletSeries(make_frequency(kind, M), np.ones(M, dtype=complex))
    return D, [(D.coeffs, 0.0), (D.coeffs[: M // 2], 1e-3), (D.coeffs, 0.1)], window


def _wide_case(kind, M, window):
    """Seeded lines wide enough, over enough points, for the coarse pass."""
    D = _seeded(kind, M, 13)
    return D, [(D.coeffs, 0.0), (D.coeffs[: M // 2], 1e-3), (D.coeffs, 0.1)], window


_RIPPLE = DirichletSeries(make_frequency("log", 2), np.array([-2.0 + 1.5j, 1.0]))


@settings(max_examples=60, deadline=None)
@given(_line_cases(), st.sampled_from([1e-4, 1e-12]), st.integers(min_value=1, max_value=6))
# the maxima sit at t = 0, and most midpoints are skipped
@example(_ones_case("log", 40, (0.0, 20.0, 0.05)), 1e-12, 6)
# the peak at t = 2 pi lies between grid points, so the max rises between rounds
@example(_ones_case("linear", 40, (1.0, 7.0, 0.01)), 1e-12, 6)
# |g| rises by more than L d / 2 over a distance d, so the slope term needs its full d
@example((_RIPPLE, [(_RIPPLE.coeffs, 0.0)], (0.5, 25.5, 12.5)), 1e-4, 3)
# lines past both floors of the coarse pass: 57.3 / 0.07 and its halvings round
# to 819, 1637 and 3274 intervals, so rounds 1 and 2 run the pass on their whole
# grids and round 3 refines round 2, reading the bounds the pass left
@example(_wide_case("linear", 120, (-10.0, 47.3, 0.07)), 1e-12, 4)
@example(_wide_case("logprimes", 200, (-10.0, 47.3, 0.07)), 1e-4, 6)
@example(_wide_case("log", 300, (0.0, 40.0, 0.05)), 1e-4, 1)
def test_skipped_points_cannot_raise_a_line_max(case, tol_sup, max_rounds):
    D, lines, window = case
    asked = []
    inner = series_module._eval_line

    def recording(D, amps, ts, N=None):
        asked.append(ts.copy())
        return inner(D, amps, ts, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_eval_line", recording)
        got = _refine_lines(D, lines, LineGrid(0.0, *window), tol_sup, max_rounds)
    # the results of evaluating every point each round lacks
    for (c, sg), rep in zip(lines, got):
        assert rep == _naive_line_sup(D, c.size, LineGrid(sg, *window), tol_sup, max_rounds)
    norm = halfplane_norm(D, LineGrid(1e-3, *window), 3, tol_sup)
    assert norm == _naive_norm(D, LineGrid(1e-3, *window), 3, tol_sup)[0]
    # a point no round asked for holds at most its line's max
    seen = set(np.concatenate(asked).tolist())
    grid = LineGrid(0.0, *window)
    for (c, sg), rep in zip(lines, got):
        points = {t for j in range(rep.rounds) for t in grid.points(grid.step / 2.0**j).tolist()}
        skipped = np.array(sorted(points - seen))
        if skipped.size:
            amp = series_module._line_terms(D.freq.values[: c.size], c, sg)[0]
            assert np.abs(inner(D, [amp], skipped, c.size)[0]).max() <= rep.value


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("max_rounds", [1, 10])
def test_a_tie_between_t_and_minus_t_reports_the_negative_t(seed, max_rounds):
    # real coefficients make |D(-t)| equal |D(t)| bit for bit on a grid of 2^11
    # intervals symmetric about 0, and the first t of a tie is the negative one;
    # the coarse pass asks for the tied points of seed 0 (offsets 2 and 6 from
    # their centres) and evaluates those of seed 1 as centres
    rng = np.random.default_rng(seed)
    D = DirichletSeries(make_frequency("log", 64), rng.standard_normal(64))
    grid = LineGrid(0.0, -8.0, 8.0, 16.0 / 2**11)
    vals = np.abs(_eval_line(D, [D.coeffs], grid.points())[0])
    assert np.array_equal(vals, vals[::-1])
    rep = line_sup_report(D, None, grid, max_rounds=max_rounds)
    assert rep == _naive_line_sup(D, None, grid, max_rounds=max_rounds)
    assert rep.t_at_max < 0


@pytest.fixture
def striped():
    """A series and a grid whose 2 * rows + 1 points take two full blocks and one of one row."""
    D = _seeded("log", 375, 4)
    rows = _block_rows(D.M)
    grid = LineGrid(0.2, 0.0, 0.1 * rows, 0.05)
    assert grid.points().size == 2 * rows + 1
    return D, grid


@pytest.mark.parametrize("workers", [2, 3])
def test_results_do_not_depend_on_the_worker_count(striped, workers, monkeypatch):
    D, grid = striped
    ts = grid.points()

    def results():
        return [
            _eval_line(D, _amplitudes(D, D.M, (grid.sigma,)), ts),
            _eval_line(D, _amplitudes(D, 300, (0.0, grid.sigma, 1.0)), ts, 300),
            _eval_points(D, grid.sigma + 1j * ts),
            _partial_sup_profile(D, grid),
            line_sup_report(D, None, grid),
            halfplane_norm(D, LineGrid(1e-3, 0.0, grid.t_max, 0.05)),
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
    # blocks of two rows over the four frequencies
    monkeypatch.setattr(series_module, "_BLOCK_ENTRIES", 2 * 4)
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
    _eval_line(D, [D.coeffs], ts)
    assert started == []
    # a grid of two blocks does start the second worker
    _eval_line(D, [D.coeffs], np.concatenate([ts, ts, ts]))
    assert len(started) == 1


@pytest.mark.parametrize("M", [series_module._BLOCK_ENTRIES // 2 + 1, series_module._BLOCK_ENTRIES + 1])
def test_wide_series_take_blocks_of_two_rows(M, monkeypatch):
    # past 2^15 frequencies the entry budget gives one row or none; the floor of
    # two keeps every block but the last off the one-row path, which doubles it
    D = _seeded("log", M, 12)
    calls = []
    inner = series_module._phase_blocks

    def recording(z, lam, work, *rest):
        blocks = []
        calls.append((z.size, blocks))

        def recorded(lo, phase):
            blocks.append((lo, phase.shape[0]))
            work(lo, phase)

        inner(z, lam, recorded, *rest)

    monkeypatch.setattr(series_module, "_phase_blocks", recording)
    grid = LineGrid(0.0, 0.0, 1.0, 0.1)
    line_sup_report(D, None, grid, max_rounds=1)
    # the coarse pass asks for the centres t = 0, 0.8 and 1, then for the
    # points between them that their bounds cannot skip
    assert calls[0][0] == 3
    for size, blocks in calls:
        assert sorted(blocks) == [(lo, min(2, size - lo)) for lo in range(0, size, 2)]
    calls.clear()
    _eval_line(D, [D.coeffs], grid.points())
    ((size, blocks),) = calls
    assert size == 11
    assert sorted(blocks) == [(lo, 2) for lo in range(0, 10, 2)] + [(10, 1)]


def test_line_sup_memory_is_one_small_block_per_worker(monkeypatch):
    # at M = 10^4 a block is 6 rows, 0.96 MB of phases per worker; blocks of
    # 2^18 entries peaked at 8.6 MB
    monkeypatch.setattr(series_module, "_WORKERS", 2)
    D = DirichletSeries(make_frequency("log", 10_000), np.ones(10_000))
    tracemalloc.start()
    try:
        line_sup_report(D, None, LineGrid(0.0, 0.0, 100.0, 0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_partial_sup_profile_folds_every_block_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: a lost update in
    # the fold of column maxima would leave some sup below its serial value
    D = _seeded("log", 4096, 10)
    grid = LineGrid(0.0, 0.0, 20.0, 0.05)
    # blocks of four rows over the 4096 frequencies
    monkeypatch.setattr(series_module, "_BLOCK_ENTRIES", 4 * 4096)
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


def test_partial_sup_profile_folds_in_place_to_the_one_shot_bits(monkeypatch):
    # the in-place fold against the whole-block formula on rows + 1 points,
    # a full block and one of one row; the three members of a stack read one
    # phase block, so none may fold into it
    for kind in BUILTIN_KINDS:
        if kind == "custom-from-list":
            continue
        for M in (1, 2, 131, 132, 4096):
            rows = _block_rows(M)
            grid = LineGrid(0.1, 0.0, 0.05 * rows, 0.05)
            ts = grid.points()
            assert ts.size == rows + 1
            rng = np.random.default_rng(M)
            coeffs = rng.standard_normal((3, M)) + 1j * rng.standard_normal((3, M))
            D = DirichletSeries(make_frequency(kind, M), coeffs[0])
            lam = D.freq.values
            phase = np.exp(-1j * np.outer(ts, lam))
            one_shot = [
                np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)
                for amp in coeffs * np.exp(-lam * grid.sigma)
            ]
            for workers in (1, 3):
                monkeypatch.setattr(series_module, "_WORKERS", workers)
                assert np.array_equal(_partial_sup_profile(D, grid), one_shot[0])
                for row, want in zip(_partial_sup_profile(D, grid, coeffs), one_shot):
                    assert np.array_equal(row, want)
