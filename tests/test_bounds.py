import math
import re
import tracemalloc

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
from gdseries import series as series_module
from gdseries.bounds import _log_ratios, _partial_sup_profile
from gdseries.estimates import windowed_limsup
from gdseries.series import _block_rows

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


@pytest.mark.parametrize("kind", ["log", "linear", "sqrtlog", "interleave-exp2", "interleave-expexp2"])
@pytest.mark.parametrize("variant", ["paper", "exact"])
def test_sn_bound_optimal_is_the_sn_bound_at_its_order(kind, variant):
    # the k-search shares one log(lambda_(N+1) / gap_N) per call; the result
    # must still be the bound sn_bound gives at the order it found
    freq = make_frequency(kind, 60)
    for N in (1, 2, 17, 58, 59):
        best = sn_bound_optimal(freq, N, variant)
        assert best == sn_bound(freq, N, best.k, variant)


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


@pytest.mark.parametrize(("regime", "kind", "params", "c"), [
    ("poly", "sqrtlog", {"d": 2.0}, 2.0),
    ("bc", "log", {}, 1.0),
])
def test_profile_ratio_follows_the_gamma_law(regime, kind, params, c):
    # with k = 1/log N and lambda_{N+1}/gap_N = c N log N (1 + O(1/N)) the row
    # 3 (e/pi) Gamma(1+k) (lambda_{N+1}/gap_N)^k over the envelope N is the law
    # below, which tends to 3e^2/pi like log log N / log N: criterion 12's drift
    M = 10_000
    prof = theorem_bound_profile(make_frequency(kind, M), regime, params, Ns=[2500, 5000, 9999])
    assert [row.N for row in prof.rows] == [2500, 5000, 9999]
    for row in prof.rows:
        log_n = math.log(row.N)
        law = 3.0 * math.e**2 / math.pi * math.gamma(1.0 + 1.0 / log_n) * (c * log_n) ** (1.0 / log_n)
        assert row.ratio == pytest.approx(law, rel=1e-4)


def test_lc_profile_ratio_follows_the_gamma_law():
    # on linear lambda_n = n - 1 every gap is 1, so lambda_{N+1}/gap_N = N, and
    # the envelope e^{delta lambda_N} is 1/k: the row 3 (e/pi) Gamma(1+k)/k N^k
    # over it leaves 3 (e/pi) Gamma(1+k) N^k, which tends to 3e/pi once k underflows
    M, delta = 10_000, 0.1
    Ns = [2, 5, 20, 2500, 5000, 9999]
    prof = theorem_bound_profile(make_frequency("linear", M), "lc", {"delta": delta}, Ns=Ns)
    assert [row.N for row in prof.rows] == Ns
    for row in prof.rows:
        k = min(1.0, math.exp(-delta * (row.N - 1)))
        law = 3.0 * math.e / math.pi * math.gamma(1.0 + k) * row.N**k
        assert row.ratio == pytest.approx(law, rel=1e-12)


@pytest.mark.parametrize(("M", "band"), [(100_000, (1.01024, 0.99077)), (300_000, (1.00883, 0.99197))])
def test_poly_profile_enters_the_one_percent_band_near_three_hundred_thousand(M, band):
    # criterion 12's POLY flatness over [M/4, M): the gamma law's correction
    # falls like log log N / log N, so the +-1% band holds only from M of about 3e5
    prof = theorem_bound_profile(make_frequency("sqrtlog", M), "poly", {"d": 2.0}, Ns=range(M // 4, M))
    ratios = {row.N: row.ratio for row in prof.rows}
    up, dn = max(ratios.values()) / ratios[M // 2], min(ratios.values()) / ratios[M // 2]
    assert (up, dn) == pytest.approx(band, abs=1e-5)
    assert (up <= 1.01 and dn >= 0.99) == (M == 300_000)


def test_profile_refines_coarse_frequencies():
    freq = Frequency(np.array([0.0, 5.0, 10.0, 30.0]))
    prof = theorem_bound_profile(freq, "bc", {}, Ns=[2])
    assert prof.refined


def test_profile_rejects_unknown_regime():
    with pytest.raises(ValueError):
        theorem_bound_profile(make_frequency("log", 20), "abc", {})


@pytest.mark.parametrize("regime, variant, message",
                         [("abc", "paper", "unknown regime 'abc'"), ("bc", "abc", "unknown constant variant 'abc'")])
def test_profile_rejects_an_unknown_regime_or_variant_before_any_row(regime, variant, message):
    # lambda_1 = log 1 = 0 gives no row, so only an up-front check can see the name
    with pytest.raises(ValueError, match=message):
        theorem_bound_profile(make_frequency("log", 5), regime, {}, Ns=[1], variant=variant)


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


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_hardy_weights_below_1e300_are_exact(k):
    # on [0, lambda_2] = [0, 1e-305] the sup of |a_1| x^k is 1e-305k, so rhs is
    # exactly 3; a weight floored at 1e-300 would make it 3e5 at k = 1
    D = DirichletSeries(Frequency([0.0, 1e-305, 1.0]), np.ones(3, dtype=complex))
    assert hardy_check(D, 1, k) == (1.0, pytest.approx(3.0, rel=1e-12))


def _unsettled_hardy_series(M: int) -> DirichletSeries:
    """sum_{lambda_n < x} a_n (x - lambda_n)^(1/4) = x^(1/4) - 2^(1/4) (x - c)^(1/4) on [0, 1].

    It peaks at the kink c = 1/2 - 2^-30, and each dyadic grid gets one point
    closer to c from below, so ``hardy_check(D, 2, 0.25)`` runs every round.
    The frequencies past 1 only widen the rows.
    """
    lam = np.concatenate([[0.0, 0.5 - 2.0**-30], np.arange(1.0, M - 1.0)])
    coeffs = np.zeros(M, dtype=complex)
    coeffs[:2] = 1.0, -(2.0**0.25)
    return DirichletSeries(Frequency(lam), coeffs)


def _hardy_check_whole_chunks(D, N, k):
    """hardy_check with each chunk built from whole-array temporaries, as the
    in-place version must reproduce bit for bit."""
    lam = D.freq.values
    lam_next = float(lam[N])

    def grid_max(m):
        xs = lam_next * np.arange(m + 1) / m
        best = 0.0
        chunk = max(1, (1 << 20) // max(1, D.M))
        for start in range(0, xs.size, chunk):
            diff = xs[start : start + chunk, None] - lam[None, :]
            w = np.where(diff > 0.0, np.power(np.maximum(diff, 1e-300), k), 0.0)
            # the kernel doubles a one-row chunk, so that it is summed as a GEMV
            sums = (np.repeat(w, 2, axis=0) if len(w) == 1 else w) @ D.coeffs
            best = max(best, float(np.max(np.abs(sums))))
        return best

    m = bounds_module._HARDY_POINTS - 1
    sup = grid_max(m)
    for _ in range(bounds_module._HARDY_ROUNDS - 1):
        m *= 2
        nxt = grid_max(m)
        stable = abs(nxt - sup) <= bounds_module._HARDY_TOL * max(nxt, 1e-300)
        sup = max(sup, nxt)
        if stable:
            break
    rhs = 3.0 * math.exp(-k * float(D.freq.log_gaps[N - 1])) * sup
    return abs(complex(np.sum(D.coeffs[:N]))), rhs


def test_hardy_in_place_chunks_keep_the_whole_chunk_bits(monkeypatch):
    cases = [(_unsettled_hardy_series(M), 2, 0.25) for M in (3, 20)]
    # M = 4096 makes 256-row chunks, so the first grid's last point, where
    # this increasing sum peaks, starts a chunk of its own
    cases.append((DirichletSeries(make_frequency("linear", 4096), np.ones(4096)), 100, 0.5))
    rng = np.random.default_rng(26)
    for i in range(30):  # criterion 3's instances: M in 2..20
        m = int(rng.integers(2, 21))
        D = DirichletSeries(Frequency(np.cumsum(rng.uniform(0.05, 0.5, m)) - 0.05),
                            rng.standard_normal(m) + 1j * rng.standard_normal(m))
        cases.append((D, int(rng.integers(1, m)), (0.25, 0.5, 1.0)[i % 3]))
    for D, N, k in cases:
        assert hardy_check(D, N, k) == _hardy_check_whole_chunks(D, N, k)
    # wide rows: several chunks from the first rounds on
    monkeypatch.setattr(bounds_module, "_HARDY_ROUNDS", 4)
    for M in (700, 3000):
        D = DirichletSeries(Frequency(np.cumsum(rng.uniform(0.05, 0.5, M))),
                            rng.standard_normal(M) + 1j * rng.standard_normal(M))
        assert hardy_check(D, M // 2, 0.5) == _hardy_check_whole_chunks(D, M // 2, 0.5)


def test_hardy_rhs_does_not_depend_on_the_chunking():
    # x = lambda_(N+1), where the sum peaks, is the last of the first round's
    # 257 points, so a row count that divides 256 leaves it in a block of its
    # own: the first and last M of 64 and of 32 rows; the terms past it are zero
    entries = series_module._BLOCK_ENTRIES
    alone = [M for rows in (64, 32) for M in (entries // (rows + 1) + 1, entries // rows)]
    shared = [200, 3000, 5000]
    assert [_block_rows(M) for M in alone] == [64, 64, 32, 32]
    assert all(256 % _block_rows(M) for M in shared)
    rhs = {hardy_check(DirichletSeries(make_frequency("linear", M), np.ones(M)), 100, 0.5)[1]
           for M in shared + alone}
    assert len(rhs) == 1


def test_hardy_memory_is_one_chunk_buffer(monkeypatch):
    # the last round's 2^18 fresh points in chunks of _block_rows(M) rows,
    # one 1 MiB complex buffer per worker and a 0.5 MiB float temporary per
    # chunk; whole-grid rounds in (1 << 20) // M-row chunks peaked at 27.5 MB
    monkeypatch.setattr(series_module, "_WORKERS", 2)
    D = _unsettled_hardy_series(20)
    tracemalloc.start()
    try:
        hardy_check(D, 2, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_hardy_weighs_each_x_point_once(monkeypatch):
    weighed = []
    refine_max = bounds_module._refine_max

    def counting(rows, *args):
        def counted(xs, refined, best):
            points, values = rows(xs, refined, best)
            weighed.append(points.size)
            return points, values

        return refine_max(counted, *args)

    monkeypatch.setattr(bounds_module, "_refine_max", counting)
    hardy_check(_unsettled_hardy_series(20), 2, 0.25)
    # 12 rounds: the 257 points of the first grid, then only each round's new midpoints
    assert len(weighed) == 12
    assert sum(weighed) == 2**19 + 1


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


def test_partial_sup_profile_memory_is_a_phase_and_a_float_block_per_worker(monkeypatch):
    # at M = 2000 a block is 32 rows: 1 MB of phases and 0.5 MB of moduli per
    # worker; blocks of 2^18 entries peaked at 12.8 MB, and whole-block
    # products, sums and moduli at 23.1 MB
    monkeypatch.setattr(series_module, "_WORKERS", 2)
    D = DirichletSeries(make_frequency("log", 2000), np.ones(2000))
    tracemalloc.start()
    try:
        sigma_u_estimate(D, LineGrid(0.0, 0.0, 100.0, 0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_partial_sup_profile_coarse_pass_peaks_below_a_halfplane_norm(monkeypatch):
    # past its floors the fold holds per worker a half-height block of centre
    # phases, one of shifted sums and one of their moduli, and no bound per
    # point: 3.4 to 3.7 MB at M = 2000, below the 4.56 MB at which
    # halfplane_norm peaks on log with M = 2000 ones
    monkeypatch.setattr(series_module, "_WORKERS", 2)
    rng = np.random.default_rng(0)
    seeded = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    for kind, coeffs in (("log", np.ones(2000)), ("log", seeded), ("linear", seeded)):
        D = DirichletSeries(make_frequency(kind, 2000), coeffs)
        tracemalloc.start()
        try:
            _partial_sup_profile(D, LineGrid(0.0, 0.0, 100.0, 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.56e6


def test_sigma_u_with_two_ratios_is_inconclusive():
    # lambda_1 = log 1 = 0 forms no ratio, which leaves N = 2, 3: too few for a trend
    D = DirichletSeries(make_frequency("log", 3), np.ones(3))
    est = sigma_u_estimate(D, LineGrid(0.0, 0.0, 100.0, 0.05))
    assert [N for N, _ in est.ratios] == [2, 3]
    # every term is 1 at t = 0, so sup |S_N| = N = e^{lambda_N}
    assert [r for _, r in est.ratios] == pytest.approx([1.0, 1.0], rel=1e-14)
    assert est.window_size == 1
    assert est.estimate == est.ratios[-1][1]
    assert est.trend == "inconclusive"


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


def test_delta_sequence_skips_members_without_ratios():
    # on log with M = 1 the only frequency is lambda_1 = 0, so no member has a ratio
    freq = make_frequency("log", 1)
    family = [DirichletSeries(freq, [c]) for c in (1.0, -2.0, 0.5j)]
    est = delta_sequence_estimate(family, LineGrid(0.0, 0.0, 20.0, 0.1))
    assert est.ratios == ()
    assert est.estimate == -math.inf
    assert est.trend == "inconclusive"


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
    inner = series_module._phase_blocks

    def counting(z, lam, work, *rest):
        def counted(lo, phase):
            built.append(lo)
            work(lo, phase)

        inner(z, lam, counted, *rest)

    monkeypatch.setattr(series_module, "_phase_blocks", counting)
    stacked = _partial_sup_profile(family[0], grid, np.array([D.coeffs for D in family]))
    for row, sups in zip(stacked, members):
        assert np.array_equal(row, sups)
    built.clear()
    assert delta_sequence_estimate(family, grid) == windowed_limsup("Delta", pairs)
    # 2001 points in blocks of 163 rows, each built once for all members
    assert sorted(built) == list(range(0, 2001, _block_rows(M)))


def test_profile_without_ns_runs_over_every_n():
    freq = make_frequency("log", 40)
    assert theorem_bound_profile(freq, "bc") == theorem_bound_profile(freq, "bc", Ns=range(1, 40))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: delta_sequence_estimate([], LineGrid(0.0, 0.0, 10.0, 0.1)), "need a nonempty family"),
        (lambda: theorem_bound_profile(make_frequency("log", 60), "bc", Ns=slice(1, 30, 0)),
         "the step of N must not be 0"),
        (lambda: theorem_bound_profile(make_frequency("log", 60), "bc", Ns=[60]),
         "need 1 <= N < M = 60 (the bound uses lambda_(N+1))"),
    ],
    ids=["empty-family", "zero-step", "n-at-m"],
)
def test_input_guards_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
