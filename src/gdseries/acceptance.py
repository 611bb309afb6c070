"""The acceptance suite: twelve numbered checks with numeric anchors.

Each check returns a CriterionResult rather than raising, so the CLI can
print a full pass/fail table; the pytest wrappers assert on ``passed``.
Two checks are expected to fail and are reported faithfully rather than
loosened: the fourth Riesz approximation error sits near 0.049 (the
convergence rate is 1/x, so the 1e-2 target is out of reach at x = 80), and
the polynomial-growth profile drifts by about 1.5% over the tested window
(above the 1% flatness target for every constant variant).  The numbers in
this module are frozen from independent oracle runs; regressions against
them are part of the checks.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    _partial_sup_profile,
    hardy_check,
    sn_bound,
    sn_bound_optimal,
    theorem_bound_profile,
)
from .frequency import (
    Frequency,
    check_bc,
    check_lc,
    estimate_L,
    make_frequency,
)
from .neder import (
    _fejer_sups,
    fejer_identity_residual,
    fejer_sup_max,
    neder_cauchy_check,
    neder_construct,
    neder_divergence_check,
)
from .perron import PerronQuery, perron_integral, perron_vs_direct, required_T
from .riesz import (
    beta_identity,
    c_exact,
    check_abel_integral,
    proof_integral,
    riesz_truncation,
    riesz_uniform_error,
)
from .series import (
    DirichletSeries,
    LineGrid,
    _refine_lines,
    builtin_coefficients,
    halfplane_norm,
    line_sup_report,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "format_table"]

# frozen oracle goldens (see the build notes for the generating scripts)
GOLDEN_RIESZ_ERRORS = {
    10: 0.38913008469504407,
    20: 0.19587601129073473,
    40: 0.09794245202394469,
    80: 0.04897122611291005,
}
GOLDEN_KRONECKER_SUP = 4.4163226270784035
GOLDEN_C_OBS = 3.6546588850074464
GOLDEN_CAUCHY = (4.69346378970416, 9.006491622867447)
GOLDEN_PROFILE_MID = {"bc": 8.570826391190462, "lc": 2.5957679382967505, "poly": 9.297500312051843}
GOLDEN_L_SQRTLOG = 3.034854258770293
# criteria 6 and 7 read their sups and certified norms on this window
_FAMILY_GRID = LineGrid(1e-3, 0.0, 60.0, 0.05)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.cid:2d} ({self.elapsed:6.2f}s) {self.title}: {self.detail}"


def _random_instance(rng: np.random.Generator) -> DirichletSeries:
    m = int(rng.integers(2, 21))
    lam = np.cumsum(rng.uniform(0.05, 0.5, m))
    lam -= lam[0]
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return DirichletSeries(Frequency(lam), coeffs)


def criterion_1(seed: int) -> Tuple[bool, str]:
    """Beta identity to 1e-8 on the 10x10 parameter grid."""
    worst = 0.0
    for alpha in np.linspace(0.1, 3.0, 10):
        for beta in np.linspace(0.1, 3.0, 10):
            lhs, rhs = beta_identity(float(alpha), float(beta))
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-8, f"max |quad - gamma| = {worst:.3e} (tol 1e-8)"


def criterion_2(seed: int) -> Tuple[bool, str]:
    """Abel integral identity residual <= 1e-10 on 100 seeded instances."""
    rng = np.random.default_rng(20_000 + seed)
    ks = (0.25, 0.5, 1.0)
    worst = 0.0
    for i in range(100):
        D = _random_instance(rng)
        lam = D.freq.values
        x = float(rng.uniform(0.2, 1.1)) * float(lam[-1])
        while np.min(np.abs(lam - x)) < 1e-6 or x <= 0:
            x = float(rng.uniform(0.2, 1.1)) * float(lam[-1])
        worst = max(worst, check_abel_integral(D, ks[i % 3], x))
    return worst <= 1e-10, f"max residual = {worst:.3e} over 100 instances (tol 1e-10)"


def criterion_3(seed: int) -> Tuple[bool, str]:
    """Hardy inequality lhs <= rhs on 100 seeded instances."""
    rng = np.random.default_rng(30_000 + seed)
    ks = (0.25, 0.5, 1.0)
    violations = 0
    worst_margin = math.inf
    for i in range(100):
        D = _random_instance(rng)
        N = int(rng.integers(1, D.M))
        lhs, rhs = hardy_check(D, N, ks[i % 3])
        worst_margin = min(worst_margin, rhs - lhs)
        if lhs > rhs + 1e-12:
            violations += 1
    return violations == 0, f"violations = {violations}/100, min (rhs - lhs) = {worst_margin:.3e}"


def criterion_4(seed: int) -> Tuple[bool, str]:
    """Perron vs direct on 1-, 2- and 5-term polynomials plus cross-epsilon."""
    parts = []
    ok = True

    D1 = DirichletSeries(Frequency(np.array([0.0])), np.array([1.0 + 0j]))
    r1 = perron_integral(D1, PerronQuery(x=1.0, k=1.0, epsilon=1.0, T=2000.0, step=0.05), quad_tol=1e-3)
    res1 = abs(r1.value - 1.0)
    ok &= res1 <= 1e-3
    parts.append(f"single={res1:.2e}")

    D2 = DirichletSeries(Frequency(np.array([0.0, 1.0])), np.array([1.0 + 0j, 1.0 + 0j]))
    T2 = required_T(1.0, 2.0, 0.5, 2.0, 1e-4)
    c2 = perron_vs_direct(D2, PerronQuery(x=2.0, k=1.0, epsilon=0.5, T=T2, step=0.05), quad_tol=1e-3)
    ok &= c2.residual <= 1e-3 and c2.residual <= c2.budget
    parts.append(f"two={c2.residual:.2e}")

    rng = np.random.default_rng(5)
    lam = np.cumsum(rng.uniform(0.2, 0.8, 5))
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    D5 = DirichletSeries(Frequency(lam), coeffs)
    x = float(lam[2]) + 0.5
    fnorm = D5.abs_sum(0.0)
    vals = {}
    for eps, tau in ((0.3, 1e-4), (0.25, 1e-3), (0.5, 1e-3), (1.0, 1e-3)):
        T = required_T(1.0, x, eps, fnorm, tau)
        cr = perron_vs_direct(D5, PerronQuery(x=x, k=1.0, epsilon=eps, T=T, step=0.05), quad_tol=1e-3)
        vals[eps] = cr
        if eps == 0.3:
            ok &= cr.residual <= 1e-3 and cr.residual <= cr.budget
            parts.append(f"five={cr.residual:.2e}")
    for a, b in ((0.25, 0.5), (0.5, 1.0), (0.25, 1.0)):
        gap = abs(vals[a].perron.value - vals[b].perron.value)
        budget = vals[a].budget + vals[b].budget
        ok &= gap <= budget
    parts.append("cross-eps ok")
    return bool(ok), ", ".join(parts)


def criterion_5(seed: int) -> Tuple[bool, str]:
    """Riesz uniform approximation of 1/(1-e^-s): decreasing errors, last < 1e-2."""
    M = 128
    D = DirichletSeries(
        make_frequency("linear", M),
        np.ones(M, dtype=complex),
        reference=lambda s: 1.0 / (1.0 - np.exp(-np.asarray(s, dtype=complex))),
    )
    grid = LineGrid(0.5, 0.0, 2.0 * math.pi, 1e-3)
    errs = {x: riesz_uniform_error(D, 1.0, 0.5, float(x), grid) for x in (10, 20, 40, 80)}
    regression = all(abs(errs[x] - GOLDEN_RIESZ_ERRORS[x]) <= 1e-9 for x in errs)
    decreasing = errs[10] > errs[20] > errs[40] > errs[80]
    small = errs[80] < 1e-2
    detail = (
        "errors " + ", ".join(f"x={x}: {errs[x]:.5f}" for x in (10, 20, 40, 80))
        + f"; decreasing={decreasing}, last<1e-2={small} (rate ~3.92/x), golden={regression}"
    )
    return decreasing and small and regression, detail


@functools.lru_cache(maxsize=1)
def _polynomial_family(seed: int) -> Tuple[Tuple[DirichletSeries, float], ...]:
    """50 seeded polynomials with their certified half-plane norms.

    Criteria 6 and 7 share one build per seed; the series are frozen and
    their coefficients read-only.
    """
    rng = np.random.default_rng(60_000 + seed)
    family = []
    for _ in range(50):
        m = 6
        lam = np.cumsum(rng.uniform(0.1, 0.8, m))
        lam -= lam[0]
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        D = DirichletSeries(Frequency(lam), coeffs)
        cert = halfplane_norm(D, _FAMILY_GRID, levels=6).certified_upper
        family.append((D, cert))
    return tuple(family)


def criterion_6(seed: int) -> Tuple[bool, str]:
    """Riesz norm bound with the exact constant on 50 seeded polynomials."""
    anchor = abs(c_exact(1.0) - math.e / 2.0)
    quad_route = abs(c_exact(1.0) - (math.e / math.pi) * math.gamma(2.0) * proof_integral(1.0))
    if anchor > 1e-6 or quad_route > 1e-9:
        return False, f"c_exact(1) anchor off: |c-e/2|={anchor:.2e}, quad route {quad_route:.2e}"
    violations = 0
    checked = 0
    for D, cert in _polynomial_family(seed):
        lam_hi = float(D.freq.values[-1])
        xs = np.linspace(0.3 * lam_hi, 1.3 * lam_hi, 6) + 1e-3
        # every truncation is a prefix of D's frequency: one refinement for all
        found = [(riesz_truncation(D, k, float(x)), c_exact(k) * cert) for k in (0.25, 0.5, 1.0) for x in xs]
        found = [(trunc.coeffs, bound) for trunc, bound in found if trunc is not None]
        checked += len(found)
        lines = [(c, _FAMILY_GRID.sigma) for c, _ in found]
        reports = _refine_lines(D, lines, _FAMILY_GRID, tol_sup=1e-4, max_rounds=3)
        violations += sum(rep.value > bound + 1e-9 for rep, (_, bound) in zip(reports, found))
    return (
        violations == 0,
        f"violations = {violations}/{checked} sups; c_exact(1)-e/2 = {anchor:.1e}",
    )


def criterion_7(seed: int) -> Tuple[bool, str]:
    """Partial-sum bound chain: line_sup(S_N) <= sn_bound(exact) * cert norm."""
    violations = 0
    checked = 0
    for D, cert in _polynomial_family(seed):
        sups = _partial_sup_profile(D, _FAMILY_GRID)
        for N in range(1, D.M):
            lhs = float(sups[N - 1])
            for k in (0.25, 0.5, 1.0):
                checked += 1
                rhs = sn_bound(D.freq, N, k, "exact").value * cert
                if lhs > rhs + 1e-9:
                    violations += 1
            checked += 1
            rhs = sn_bound_optimal(D.freq, N, "exact").value * cert
            if lhs > rhs + 1e-9:
                violations += 1
    return violations == 0, f"violations = {violations}/{checked} bound comparisons"


def criterion_8(seed: int) -> Tuple[bool, str]:
    """Kronecker alignment: grid sup reaches 95% of sum |a_n|, never exceeds it."""
    freq = make_frequency("logprimes", 5)
    coeffs = builtin_coefficients("seeded-normal", 5, seed)
    D = DirichletSeries(freq, coeffs)
    total = D.abs_sum(0.0)
    sup = line_sup_report(D, None, LineGrid(1e-3, 0.0, 1e4, 0.02), tol_sup=1e-4, max_rounds=1).value
    reaches = sup >= 0.95 * total
    stays = sup <= total + 1e-9
    golden = abs(sup - GOLDEN_KRONECKER_SUP) <= 1e-9 if seed == 7 else True
    return (
        reaches and stays and golden,
        f"sup = {sup:.6f} of sum|a| = {total:.6f} (fraction {sup / total:.4f}), golden={golden}",
    )


def criterion_9(seed: int) -> Tuple[bool, str]:
    """Density anchors: L(log)=1 exactly, L(linear)<0.01, L(sqrtlog) divergent ~3.034."""
    est_log = estimate_L(make_frequency("log", 10_000))
    exact_one = est_log.estimate == 1.0 and all(r == 1.0 for _, r in est_log.ratios)
    est_lin = estimate_L(make_frequency("linear", 10_000))
    lin_ok = est_lin.estimate < 0.01
    est_sq = estimate_L(make_frequency("sqrtlog", 10_000))
    sq_ok = est_sq.trend == "divergent" and abs(est_sq.estimate - GOLDEN_L_SQRTLOG) <= 1e-12
    return (
        exact_one and lin_ok and sq_ok,
        f"log exact-1={exact_one}, linear={est_lin.estimate:.5f}, "
        f"sqrtlog={est_sq.estimate:.6f} ({est_sq.trend})",
    )


def criterion_10(seed: int) -> Tuple[bool, str]:
    """Condition-checker verdict table for the four reference frequencies."""
    rows = [
        ("bc log", check_bc(make_frequency("log", 100), 1.0, 0.1).verdict, "evidence-for"),
        ("bc exp2", check_bc(make_frequency("interleave-exp2", 100), 1.0, 0.1).verdict, "evidence-against"),
        ("lc exp2", check_lc(make_frequency("interleave-exp2", 100), 0.5).verdict, "evidence-for"),
        ("lc expexp2", check_lc(make_frequency("interleave-expexp2", 60), 0.5).verdict, "evidence-against"),
        ("lc sqrtlog", check_lc(make_frequency("sqrtlog", 10_000), 0.5).verdict, "evidence-for"),
    ]
    est = estimate_L(make_frequency("interleave-expexp2", 10_000))
    l_zero = est.estimate < 0.01
    est_sq = estimate_L(make_frequency("sqrtlog", 10_000))
    bad = [f"{name}: {got}" for name, got, want in rows if got != want]
    ok = not bad and l_zero and est_sq.trend == "divergent"
    summary = "all verdicts reproduced" if ok else "; ".join(bad) or "L anchors off"
    return ok, summary + f"; L(expexp2)={est.estimate:.5f}"


def criterion_11(seed: int) -> Tuple[bool, str]:
    """Neder construction: divergence floor, Fejer identity, Cauchy bound, bounded C."""
    rng = np.random.default_rng(110_000 + seed)
    base = Frequency(np.arange(1.0, 9.0))
    grid = LineGrid(1e-3, 0.0, 50.0, 0.05)
    parts = []
    ok = True
    for x in (0.05, 0.1, 0.25):
        c = neder_construct(base, x)
        rows = neder_divergence_check(c)
        bad = [r for r in rows if not r.exempt and not r.passed]
        ok &= not bad
        s_samples = [complex(rng.uniform(0.05, 1.0), rng.uniform(-10.0, 10.0)) for _ in range(10)]
        resid = fejer_identity_residual(c, 3, s_samples)
        ok &= resid <= 1e-12
        observed, bound = neder_cauchy_check(c, 1, 3, grid)
        ok &= observed <= bound + 1e-9
        if x == 0.1:
            ok &= abs(observed - GOLDEN_CAUCHY[0]) <= 1e-9
            ok &= abs(bound - GOLDEN_CAUCHY[1]) <= 1e-9
            parts.append(f"cauchy {observed:.4f} <= {bound:.4f}")
        parts.append(f"x={x}: div ok, fejer {resid:.1e}")
    c_obs = fejer_sup_max()
    sups = _fejer_sups(range(1, 65))
    ok &= abs(c_obs - GOLDEN_C_OBS) <= 1e-9 and max(sups) <= c_obs <= 4.0
    parts.append(f"C_obs={c_obs:.4f}")
    return bool(ok), "; ".join(parts)


def criterion_12(seed: int) -> Tuple[bool, str]:
    """Profile flatness at M = 1e4: max over [M/4, M] within 1% of N = M/2."""
    M = 10_000
    Ns = range(M // 4, M)
    specs = [
        ("bc", make_frequency("log", M), {}),
        ("lc", make_frequency("linear", M), {"delta": 0.1}),
        ("poly", make_frequency("sqrtlog", M), {"d": 2.0}),
    ]
    ok = True
    parts = []
    for regime, freq, params in specs:
        prof = theorem_bound_profile(freq, regime, params, Ns=Ns, variant="paper")
        ratios = {row.N: row.ratio for row in prof.rows}
        mid = ratios[M // 2]
        values = list(ratios.values())
        up = max(values) / mid
        dn = min(values) / mid
        flat = up <= 1.01 and dn >= 0.99
        golden = abs(mid - GOLDEN_PROFILE_MID[regime]) <= 1e-9
        ok &= flat and golden
        parts.append(f"{regime}: max/mid={up:.5f} min/mid={dn:.5f} flat={flat}")
    return bool(ok), "; ".join(parts)


CRITERIA: Dict[int, Tuple[str, Callable[[int], Tuple[bool, str]]]] = {
    1: ("beta identity quadrature vs gamma ratio", criterion_1),
    2: ("Abel integral identity piecewise-exact residual", criterion_2),
    3: ("Hardy partial-sum inequality", criterion_3),
    4: ("Perron inversion vs direct Riesz mean", criterion_4),
    5: ("Riesz uniform approximation of the geometric series", criterion_5),
    6: ("Riesz mean norm bound with exact constant", criterion_6),
    7: ("partial-sum bound chain with certified norms", criterion_7),
    8: ("Kronecker alignment on log-prime frequency", criterion_8),
    9: ("density anchors for log, linear, sqrtlog", criterion_9),
    10: ("gap-condition verdict table", criterion_10),
    11: ("Neder construction checks", criterion_11),
    12: ("bound-profile flatness over N", criterion_12),
}


def run_criterion(cid: int, seed: int = 7) -> CriterionResult:
    title, fn = CRITERIA[cid]
    start = time.perf_counter()
    passed, detail = fn(seed)
    return CriterionResult(
        cid=cid, title=title, passed=passed, detail=detail, elapsed=time.perf_counter() - start
    )


def run_all(seed: int = 7, only: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    cids = sorted(only) if only else sorted(CRITERIA)
    unknown = [cid for cid in cids if cid not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion id(s) {unknown}; expected {min(CRITERIA)}..{max(CRITERIA)}")
    return [run_criterion(cid, seed) for cid in cids]


def format_table(results: Sequence[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
