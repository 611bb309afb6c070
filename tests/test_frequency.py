import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries import (
    BUILTIN_KINDS,
    Frequency,
    check_bc,
    check_lc,
    check_poly_growth,
    estimate_L,
    make_frequency,
    read_frequency_file,
    refine_gaps,
)
from gdseries.cli import run
from gdseries.frequency import _first_primes


def test_builtin_kinds_construct_and_are_monotone():
    for kind in BUILTIN_KINDS:
        if kind == "custom-from-list":
            freq = make_frequency(kind, 4, [0.0, 0.5, 1.25, 3.0])
        else:
            freq = make_frequency(kind, 40)
        assert freq.M == (4 if kind == "custom-from-list" else 40)
        assert np.all(np.diff(freq.values) > 0)


def test_linear_frequency_starts_at_zero():
    freq = make_frequency("linear", 5)
    assert freq.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_log_frequency_is_log_n():
    freq = make_frequency("log", 6)
    assert np.allclose(freq.values, np.log(np.arange(1, 7)))
    assert freq.values[0] == 0.0


def test_first_primes_sieve_bound_covers_the_mth_prime():
    # _first_primes sieves once, up to int(m (log m + log log m)) + 3 for
    # m >= 6; an odd-only sieve gives the m-th prime to check it against
    limit = 1_400_000
    odd = np.ones(limit // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, math.isqrt(limit) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.concatenate([[2], 2 * np.flatnonzero(odd) + 1])
    assert primes.size >= 10**5
    bounds = [int(m * (math.log(m) + math.log(math.log(m)))) + 3 for m in range(6, 10**5 + 1)]
    assert np.all(np.array(bounds) > primes[5 : 10**5])
    for m in (1, 2, 5, 6, 7, 1000, 10**5):
        assert np.array_equal(_first_primes(m), primes[:m])


def test_logprimes_is_q_independent_and_log_is_not():
    assert make_frequency("logprimes", 5).q_independent
    assert not make_frequency("log", 5).q_independent


def test_make_frequency_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_frequency("ramanujan", 10)


def test_make_frequency_rejects_non_monotone_custom():
    # the message names the repeated value as a plain float
    with pytest.raises(ValueError, match=r"index 2 -> 3 \(1\.0 -> 1\.0\)$"):
        make_frequency("custom-from-list", 3, [0.0, 1.0, 1.0])


def test_values_are_read_only():
    freq = make_frequency("linear", 4)
    with pytest.raises(ValueError):
        freq.values[0] = -1.0


def test_interleave_exp2_log_gaps_are_exact():
    # the squeezed point sits e^(-n^2) below the next integer; float
    # subtraction of the values underflows long before n = 50, so the
    # log-gap metadata must carry the exact exponent
    freq = make_frequency("interleave-exp2", 100)
    lg = freq.log_gaps
    assert np.all(np.isfinite(lg))
    assert lg[0] == -1.0
    assert lg[2] == -4.0
    assert lg[4] == -9.0
    assert lg.min() == -2500.0
    # the naive float route bottoms out near one ulp (about e^-36 at these
    # magnitudes) while the true gap at n = 10 is e^-100
    assert lg[18] == -100.0
    assert np.log(freq.gaps[18]) > -40.0


def test_estimate_L_log_is_exactly_one():
    est = estimate_L(make_frequency("log", 2000))
    assert est.estimate == 1.0
    assert est.trend == "convergent"
    assert all(r == 1.0 for _, r in est.ratios)


def test_estimate_L_linear_goes_to_zero():
    est = estimate_L(make_frequency("linear", 2000))
    assert est.estimate < 0.05
    assert est.trend == "convergent"


def test_estimate_L_needs_three_points():
    with pytest.raises(ValueError):
        estimate_L(make_frequency("linear", 2))


def test_check_bc_log_holds():
    rep = check_bc(make_frequency("log", 100), l=1.0, delta=0.1)
    assert rep.verdict == "evidence-for"
    assert rep.condition == "BC"
    assert np.isfinite(rep.infimum_log_constant)


def _interleaved_by_position(M, double_exponential):
    # the construction one position at a time, with a branch on parity, as a
    # bit-for-bit reference for make_frequency's loop over (n, n + eps_n) pairs
    floor = -sys.float_info.max
    vals = np.empty(M)
    log_gaps = np.empty(max(M - 1, 0))
    for pos in range(1, M + 1):
        n = (pos + 1) // 2
        if pos % 2 == 1:
            vals[pos - 1] = float(n)
            continue
        if double_exponential:
            inner = math.exp(float(n * n)) if n * n < 709 else math.inf
            eps = math.exp(-inner) if math.isfinite(inner) else 0.0
            log_eps = -inner if math.isfinite(inner) else floor
        else:
            eps = math.exp(-float(n * n))
            log_eps = -float(n * n)
        target = n + eps
        if target <= n:
            target = np.nextafter(float(n), math.inf)
        vals[pos - 1] = target
        log_gaps[pos - 2] = max(log_eps, floor)
        if pos - 1 < M - 1:
            log_gaps[pos - 1] = math.log1p(-eps) if eps < 1 else floor
    return vals, log_gaps


@pytest.mark.parametrize("kind", ["interleave-exp2", "interleave-expexp2"])
def test_interleaved_pairs_keep_the_position_loop_bits(kind):
    # odd and even M, M = 1 (an empty log-gap array), the one-ulp nudge from
    # n = 7 on, and for expexp2 the eps = 0 floor from n = 27 on, that is
    # from M = 54
    for M in list(range(1, 61)) + [10_000, 10_001]:
        want_vals, want_gaps = _interleaved_by_position(M, kind == "interleave-expexp2")
        freq = make_frequency(kind, M)
        assert freq.generator == kind
        assert freq.values.tobytes() == want_vals.tobytes(), M
        assert freq.log_gaps.shape == want_gaps.shape, M
        assert freq.log_gaps.tobytes() == want_gaps.tobytes(), M


def test_log_gaps_are_one_read_only_array():
    # M - 1 log-gaps in every case: the log of the float gaps byte for byte,
    # or the interleave kinds' exact values, which the float route loses
    for kind in BUILTIN_KINDS:
        if kind == "custom-from-list":
            continue
        for M in (1, 2, 3, 50, 2000):
            freq = make_frequency(kind, M)
            assert freq.log_gaps.shape == (M - 1,) and not freq.log_gaps.flags.writeable, (kind, M)
            float_route = np.log(np.diff(freq.values))
            if kind.startswith("interleave"):
                want = _interleaved_by_position(M, kind == "interleave-expexp2")[1]
                assert M < 50 or not np.array_equal(freq.log_gaps, float_route), (kind, M)
            else:
                want = float_route
            assert freq.log_gaps.tobytes() == want.tobytes(), (kind, M)
    with pytest.raises(ValueError, match="read-only"):
        make_frequency("log", 5).log_gaps[0] = 0.0


def test_check_bc_interleave_fails():
    rep = check_bc(make_frequency("interleave-exp2", 100), l=1.0, delta=0.1)
    assert rep.verdict == "evidence-against"


def test_check_lc_interleave_holds():
    rep = check_lc(make_frequency("interleave-exp2", 100), delta=0.5)
    assert rep.verdict == "evidence-for"


def test_check_lc_reads_decaying_near_the_float_ceiling():
    # the log-constants reach the clipped floor -1.8e308 within the final third, so the
    # running minimum falls by more than 1e300 there: the slope reads -inf, with no warning
    rep = check_lc(make_frequency("interleave-expexp2", 60), delta=0.5)
    run_min = np.minimum.accumulate(rep.running_log_constants)
    tail = run_min[-math.ceil(run_min.size / 3):]
    assert tail[0] - tail[-1] > 1e300
    assert (rep.trend, rep.verdict) == ("decaying", "evidence-against")


def test_check_lc_rejects_bad_delta():
    with pytest.raises(ValueError):
        check_lc(make_frequency("log", 10), delta=0.0)


def test_check_poly_growth_sqrtlog_holds():
    rep = check_poly_growth(make_frequency("sqrtlog", 2000), l=1.0, d=2.0, delta=0.1)
    assert rep.verdict == "evidence-for"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12),
)
def test_refine_gaps_caps_every_gap_and_keeps_input(gap_list):
    vals = np.concatenate([[0.0], np.cumsum(gap_list)])
    freq = Frequency(vals)
    fine = refine_gaps(freq)
    assert np.all(np.diff(fine.values) <= 1.0 + 1e-12)
    # original points survive as a subsequence
    pos = np.searchsorted(fine.values, freq.values)
    assert np.allclose(fine.values[pos], freq.values, atol=1e-12)


@pytest.mark.parametrize(
    "pair",
    [[16383.363038312678, 16385.63282502644], [131071.95902647606, 131073.9755541116]],
)
def test_refine_gaps_unit_steps_stay_within_one_across_a_power_of_two(pair):
    # here a + 1 crosses 2^14 (2^17) and rounds up; every gap must still be <= 1
    fine = refine_gaps(Frequency(pair))
    assert np.max(np.diff(fine.values)) <= 1.0
    assert fine.values[0] == pair[0] and fine.values[-1] == pair[1]


@pytest.mark.parametrize(
    "vals, want",
    [
        ([0.0, 0.5, 3.7, 4.2, 9.05], [0.0, 0.5, 1.5, 2.5, 3.1, 3.7, 4.2, 5.2, 6.2, 7.2, 8.125, 9.05]),
        ([0.25, 1.75], [0.25, 1.0, 1.75]),
        # a + 1 rounds up across 2^14 and is nudged down by one ulp
        ([16383.363038312678, 16385.63282502644],
         [16383.363038312678, 16384.363038312677, 16384.99793166956, 16385.63282502644]),
    ],
)
def test_refine_gaps_pinned_floats(vals, want):
    assert refine_gaps(Frequency(vals)).values.tolist() == want


def test_refine_gaps_refuses_a_gap_no_array_can_hold_at_once():
    # the output is allocated before the first point is written
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dimension"):
        refine_gaps(Frequency([0.0, 1e300]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "vals, gap",
    [
        ([9007199254740986.0, 9007199254740996.0], "gap 1 -> 2 (9007199254740986.0 -> 9007199254740996.0)"),
        ([2.0**53 - 10, 2.0**53 - 9, 2.0**53 + 4], "gap 2 -> 3 (9007199254740983.0 -> 9007199254740996.0)"),
    ],
)
def test_refine_gaps_names_the_input_gap_it_cannot_refine(vals, gap):
    # above 2^53 the floats lie 2 apart, so no point can come within 1 of the gap's end
    with pytest.raises(ValueError, match=re.escape(gap) + " cannot be refined"):
        refine_gaps(Frequency(vals))


def test_refine_gaps_noop_when_already_fine():
    freq = make_frequency("log", 30)
    fine = refine_gaps(freq)
    assert fine.M == freq.M
    # one point has no gap to refine
    single = Frequency([2.5])
    assert refine_gaps(single) is single


def test_read_frequency_file_roundtrip(tmp_path):
    p = tmp_path / "freq.txt"
    p.write_text("# comment line\n0.0\n0.5\n\n1.75\n")
    freq = read_frequency_file(p)
    assert freq.values.tolist() == [0.0, 0.5, 1.75]


def test_read_frequency_file_rejects_decreasing(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\n0.5\n")
    with pytest.raises(ValueError):
        read_frequency_file(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\n1\ninf\n", "3: not a finite number: 'inf'"),
        ("0\n# note\nnan # a comment\n", "3: not a finite number: 'nan'"),
        ("0\n1e400\n", "2: not a finite number: '1e400'"),
        ("0\nx\n", "2: not a finite number: 'x'"),
    ],
)
def test_read_frequency_file_names_the_line_that_is_not_a_finite_number(text, message, tmp_path, capsys):
    p = tmp_path / "f.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{message}')}$"):
        read_frequency_file(p)
    assert run(["freq", "make", "--freq-file", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {p}:{message}\n")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda _: Frequency([[0.0, 1.0]]), "frequency values must be a 1-D sequence"),
        (lambda _: Frequency([]), "frequency needs at least one value"),
        (lambda _: Frequency([0.0, math.nan]), "frequency values must be finite"),
        (lambda _: Frequency([0.0, 1.0, 2.0], log_gaps=[0.0]), "log_gaps must have length M - 1"),
        (lambda _: make_frequency("custom-from-list", 3, [0.0, 1.0]), "custom list has 2 values, expected M=3"),
        (lambda tmp: read_frequency_file(_comments_only(tmp)), "no values found"),
        (lambda _: check_bc(make_frequency("linear", 1), 1.0, 0.1), "condition checks need at least two frequency values"),
        (lambda _: check_bc(make_frequency("linear", 20), 0.0, 0.1), "need l > 0 and delta > 0"),
        (lambda _: check_bc(make_frequency("linear", 20), 1.0, -0.1), "need l > 0 and delta > 0"),
        (lambda _: check_poly_growth(make_frequency("linear", 20), 1.0, 0.0, 0.1), "need l > 0, d > 0 and delta > 0"),
    ],
    ids=["2-D", "empty", "nan", "log-gaps-length", "custom-length", "comments-only", "bc-one-value", "bc-l",
         "bc-delta", "poly-d"],
)
def test_input_guards_name_the_bad_input(tmp_path, build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(tmp_path)


def _comments_only(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# lambda_n, one a line\n\n   # none yet\n")
    return path


def test_condition_reports_below_ten_values_are_inconclusive():
    freq = make_frequency("log", 9)
    for rep in (check_bc(freq, 1.0, 0.1), check_lc(freq, 0.1), check_poly_growth(freq, 1.0, 2.0, 0.1)):
        assert (rep.trend, rep.verdict) == ("inconclusive", "inconclusive")
