import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdseries import (
    DirichletSeries,
    Frequency,
    LineGrid,
    delta_sequence_estimate,
    hardy_check,
    kronecker_norm,
    make_frequency,
    sigma_a_estimate,
    sigma_c_estimate,
    sigma_u_estimate,
    sn_bound,
    sn_bound_optimal,
    theorem_bound_profile,
)
from gdseries import bounds as bounds_module
from gdseries.bounds import _log_ratios, _partial_sup_profile
from gdseries.estimates import windowed_limsup

small_series = st.builds(
    lambda gaps, re, im: DirichletSeries(
        Frequency(np.concatenate([[0.0], np.cumsum(gaps)])[: len(re)]),
        np.asarray(re) + 1j * np.asarray(im),
    ),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=6, max_size=6),
    st.lists(st.floats(min_value=-2, max_value=2), min_size=6, max_size=6),
)


def test_sn_bound_linear_reference_values():
    freq = make_frequency("linear", 10)
    paper = sn_bound(freq, 3, 1.0, "paper")
    exact = sn_bound(freq, 3, 1.0, "exact")
    # lambda_4 / gap_3 = 3, so the factor is 3 c(1) * 3 = 9 c(1)
    assert paper.value == pytest.approx(9.0 * math.e / math.pi, rel=1e-13)
    assert exact.value == pytest.approx(9.0 * math.e / 2.0, rel=1e-13)
    assert math.exp(paper.log_factor) == pytest.approx(paper.value, rel=1e-12)


def test_sn_bound_validates_index_and_k():
    freq = make_frequency("linear", 5)
    with pytest.raises(ValueError):
        sn_bound(freq, 5, 1.0)  # needs lambda_6
    with pytest.raises(ValueError):
        sn_bound(freq, 0, 1.0)
    with pytest.raises(ValueError):
        sn_bound(freq, 2, 1.5)


def test_sn_bound_log_factor_survives_extreme_gaps():
    freq = make_frequency("interleave-expexp2", 30)
    b = sn_bound(freq, 7, 0.5)
    assert math.isfinite(b.log_factor)
    assert b.value == math.inf  # linear space overflows, by design


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_sn_bound_optimal_never_beats_fixed_k_upward(N):
    freq = make_frequency("log", 10)
    best = sn_bound_optimal(freq, N, "exact")
    for k in (0.25, 0.5, 1.0):
        assert best.log_factor <= sn_bound(freq, N, k, "exact").log_factor + 1e-9
    assert 0 < best.k <= 1.0


def test_profile_bc_log_golden_midpoint():
    M = 10_000
    prof = theorem_bound_profile(make_frequency("log", M), "bc", {}, Ns=[M // 2], variant="paper")
    assert prof.rows[0].ratio == pytest.approx(8.570826391190462, abs=1e-9)


def test_profile_lc_linear_is_flat():
    # once e^(-delta lambda_N) is tiny the ratio settles at 3e/pi; the
    # correction terms decay like k log N, so start N deep enough
    M = 400
    prof = theorem_bound_profile(
        make_frequency("linear", M), "lc", {"delta": 0.1}, Ns=range(300, 399), variant="paper"
    )
    ratios = [row.ratio for row in prof.rows]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)
    assert ratios[-1] == pytest.approx(3.0 * math.e / math.pi, rel=1e-12)


def test_profile_refines_coarse_frequencies():
    freq = Frequency(np.array([0.0, 5.0, 10.0, 30.0]))
    prof = theorem_bound_profile(freq, "bc", {}, Ns=[2])
    assert prof.refined


def test_profile_rejects_unknown_regime():
    with pytest.raises(ValueError):
        theorem_bound_profile(make_frequency("log", 20), "abc", {})


def test_profile_csv_rows_are_two_columns():
    prof = theorem_bound_profile(make_frequency("log", 30), "bc", {}, Ns=[5, 10, 20])
    rows = list(prof.csv_rows())
    assert rows[0] == (5, pytest.approx(prof.rows[0].ratio))
    assert all(len(r) == 2 for r in rows)


@settings(max_examples=30, deadline=None)
@given(small_series, st.integers(min_value=1, max_value=5), st.sampled_from([0.25, 0.5, 1.0]))
def test_hardy_inequality_holds(D, N, k):
    lhs, rhs = hardy_check(D, N, k)
    assert lhs <= rhs + 1e-12


def test_hardy_needs_next_frequency():
    D = DirichletSeries(make_frequency("linear", 4), np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        hardy_check(D, 4, 0.5)


def test_kronecker_norm_is_an_upper_bound_for_dependent_frequencies():
    D = DirichletSeries(make_frequency("linear", 3), np.array([1.0, -2.0, 3.0j]))
    rep = kronecker_norm(D)
    assert rep.value == pytest.approx(6.0)
    assert not rep.exact
    assert rep.status == "upper-bound-only"


def test_kronecker_norm_exact_for_independent_frequencies():
    D = DirichletSeries(
        make_frequency("logprimes", 4), np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
    )
    rep = kronecker_norm(D)
    assert rep.exact
    assert rep.value == pytest.approx(1.875)


@settings(max_examples=30, deadline=None)
@given(small_series)
def test_sigma_a_dominates_sigma_c(D):
    # absolute convergence cannot start left of conditional convergence
    est_c = sigma_c_estimate(D)
    est_a = sigma_a_estimate(D)
    if math.isfinite(est_c.estimate) and math.isfinite(est_a.estimate):
        assert est_a.estimate >= est_c.estimate - 1e-9


def test_sigma_a_geometric_series_is_zero_line():
    # sum e^{-ns}: both abscissas are 0 and the prefix estimate approaches it
    D = DirichletSeries(make_frequency("linear", 400), np.ones(400, dtype=complex))
    est = sigma_a_estimate(D)
    assert abs(est.estimate) < 0.05
    assert est.which == "sigma_a"


def test_sigma_u_random_signs_golden():
    M = 512
    rng = np.random.default_rng(7)
    signs = (rng.integers(0, 2, M) * 2 - 1).astype(complex)
    D = DirichletSeries(make_frequency("log", M), signs)
    est = sigma_u_estimate(D, LineGrid(0.0, 0.0, 100.0, 0.05))
    assert est.estimate == pytest.approx(0.7058766159546863, abs=1e-12)


def test_partial_sup_profile_matches_direct_loop():
    rng = np.random.default_rng(3)
    D = DirichletSeries(
        make_frequency("log", 12), rng.standard_normal(12) + 1j * rng.standard_normal(12)
    )
    grid = LineGrid(0.5, 0.0, 10.0, 0.25)
    sups = _partial_sup_profile(D, grid)
    ts = grid.points()
    for N in (1, 5, 12):
        direct = max(
            abs(sum(D.coeffs[n] * np.exp(-D.freq.values[n] * complex(0.5, t)) for n in range(N)))
            for t in ts
        )
        assert sups[N - 1] == pytest.approx(direct, rel=1e-12)


def test_bohr_corollary_sups_stabilize_at_sigma_one():
    # partial-sum sups on the sigma = 1 line settle to a plateau: the
    # running max over N is flat across the whole final third
    M = 48
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    D = DirichletSeries(make_frequency("linear", M), coeffs)
    sups = _partial_sup_profile(D, LineGrid(1.0, 0.0, 100.0, 0.05))
    running = np.maximum.accumulate(sups)
    w = int(np.ceil(M / 3))
    assert running[-w] == running[-1]
    assert running[-1] == pytest.approx(1.0981977389514872, abs=1e-12)


def test_delta_sequence_requires_shared_frequency():
    freq = make_frequency("linear", 16)
    other = make_frequency("log", 16)
    fam_good = [
        DirichletSeries(freq, np.ones(16, dtype=complex)),
        DirichletSeries(freq, -np.ones(16, dtype=complex)),
    ]
    grid = LineGrid(0.0, 0.0, 20.0, 0.1)
    est = delta_sequence_estimate(fam_good, grid)
    assert est.which == "Delta"
    fam_bad = [fam_good[0], DirichletSeries(other, np.ones(16, dtype=complex))]
    with pytest.raises(ValueError):
        delta_sequence_estimate(fam_bad, grid)


def test_delta_family_shares_each_phase_block(monkeypatch):
    M, count = 400, 5
    freq = make_frequency("log", M)
    rng = np.random.default_rng(9)
    family = [DirichletSeries(freq, rng.standard_normal(M) + 1j * rng.standard_normal(M)) for _ in range(count)]
    grid = LineGrid(0.0, 0.0, 100.0, 0.05)
    # one profile per member, as each member was evaluated on its own
    members = [_partial_sup_profile(D, grid) for D in family]
    pairs = []
    for j, sups in enumerate(members, start=1):
        ratios = [r for _, r in _log_ratios(freq.values, sups)]
        pairs.append((j, max(ratios[-math.ceil(len(ratios) / 3):])))

    built = []
    inner = bounds_module._phase_blocks

    def counting(z, lam, work):
        def counted(lo, phase):
            built.append(lo)
            work(lo, phase)

        inner(z, lam, counted)

    monkeypatch.setattr(bounds_module, "_phase_blocks", counting)
    stacked = _partial_sup_profile(family[0], grid, np.array([D.coeffs for D in family]))
    for row, sups in zip(stacked, members):
        assert np.array_equal(row, sups)
    built.clear()
    assert delta_sequence_estimate(family, grid) == windowed_limsup("Delta", pairs)
    # 2001 points in blocks of 655: four blocks, each built once for all members
    assert sorted(built) == [0, 655, 1310, 1965]
