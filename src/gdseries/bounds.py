"""Partial-sum bounds and abscissa estimators.

The central inequality: for a series bounded on the closed right half-plane,
the N-th partial sum at s = 0 satisfies

    |S_N| <= 3 * c(k) * (lambda_{N+1} / gap_N)^k * sup-norm,

where gap_N = lambda_{N+1} - lambda_N and c(k) is a Riesz norm constant
(``variant="paper"`` uses the small-k form (e/pi) Gamma(k+1)/k, ``"exact"``
uses the integral-exact value; see ``riesz.c_exact``).  Everything here is
computed in log space so that frequencies like e^{e^{lambda}} growth do not
overflow: profile rows carry log-bounds plus bound/envelope ratios, which stay
O(1) by design.

Estimators for the convergence, absolute-convergence and uniform abscissas
share one windowed-limsup rule (see ``estimates``); each feeds it the ratio
sequence appropriate to its abscissa; sigma_u and Delta fold their partial sums
by ``series._partial_sup_profile``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .estimates import AbscissaEstimate, windowed_limsup
from .frequency import Frequency, refine_gaps
from .riesz import _check_order
from .series import DirichletSeries, LineGrid, _partial_sup_profile, _phase_sum, _refine_max

__all__ = [
    "SnBound",
    "sn_bound",
    "sn_bound_optimal",
    "ProfileRow",
    "ProfileReport",
    "theorem_bound_profile",
    "sigma_c_estimate",
    "sigma_a_estimate",
    "sigma_u_estimate",
    "delta_sequence_estimate",
    "hardy_check",
    "KroneckerNorm",
    "kronecker_norm",
]

_LOG_3 = math.log(3.0)
_LOG_E_OVER_PI = 1.0 - math.log(math.pi)
# hardy_check's x-grid: points of the first round, rounds, relative stability
_HARDY_POINTS = 257
_HARDY_ROUNDS = 12
_HARDY_TOL = 1e-9


def _check_variant(variant: str) -> None:
    """The norm constants ``_log_c`` knows: the paper's small-k form and the exact one."""
    if variant not in ("paper", "exact"):
        raise ValueError(f"unknown constant variant {variant!r}")


def _log_c(k: float, log_k: Optional[float], variant: str) -> float:
    """log of the norm constant c(k), with log k supplied symbolically.

    ``log_k`` defaults to log(k); passing it explicitly keeps tiny orders like
    k = e^{-delta lambda} exact after k itself underflows to zero.
    """
    _check_variant(variant)
    if log_k is None:
        log_k = math.log(k)
    base = _LOG_E_OVER_PI + math.lgamma(1.0 + k) - log_k
    if variant == "paper":
        return base
    # exact variant: multiply by k * (sqrt(pi)/2) Gamma(k/2) / Gamma((k+1)/2).
    # Via Gamma(k/2) = 2 Gamma(1 + k/2) / k the explicit log k cancels, so the
    # formula survives k underflowing to 0 (it then equals the paper form, its
    # small-k limit).
    return (
        base
        + 0.5 * math.log(math.pi)
        + math.lgamma(1.0 + k / 2.0)
        - math.lgamma((k + 1.0) / 2.0)
    )


@dataclass(frozen=True)
class SnBound:
    """One partial-sum bound: |S_N| <= 3 c(k) (lambda_{N+1}/gap_N)^k * norm."""

    N: int
    k: float
    variant: str
    log_factor: float
    value: float


def _log_ratio(freq: Frequency, N: int, given: Optional[int] = None) -> float:
    """log(lambda_{N+1} / gap_N), whose k-th multiple enters the sn_bound factor.

    ``given``, when freq refines a frequency, is how many values that one had."""
    if not 1 <= N < freq.M:
        why = "" if given is None else f"; the {given} given values were refined to {freq.M} points"
        raise ValueError(f"need 1 <= N < M = {freq.M} (the bound uses lambda_(N+1){why})")
    return math.log(float(freq.values[N])) - float(freq.log_gaps[N - 1])  # lambda_(N+1) > 0


def _log_factor(k: float, log_ratio: float, variant: str, log_k: Optional[float] = None) -> float:
    """log of the sn_bound factor 3 c(k) (lambda_{N+1}/gap_N)^k; ``log_k`` as in ``_log_c``."""
    return _LOG_3 + _log_c(k, log_k, variant) + k * log_ratio


def sn_bound(freq: Frequency, N: int, k: float, variant: str = "paper") -> SnBound:
    """Bound factor for |S_N| per unit of half-plane sup-norm.

    Needs lambda_{N+1}, so N + 1 <= M; indices are 1-based.  ``value`` is the
    factor itself (may overflow to inf for extreme frequencies; ``log_factor``
    never does).
    """
    _check_order(k)
    log_factor = _log_factor(k, _log_ratio(freq, N), variant)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_factor))
    return SnBound(N=N, k=k, variant=variant, log_factor=log_factor, value=value)


def sn_bound_optimal(freq: Frequency, N: int, variant: str = "paper") -> SnBound:
    """Minimise the sn_bound factor over k in (0, 1].

    The log-factor is strictly convex in k on (0, 1]: its second derivative
    is psi'(1+k) + 1/k^2 >= psi'(2) + 1 > 1.6 for the paper variant, and the
    exact variant adds [psi'(1+k/2) - psi'((k+1)/2)]/4 >= -pi^2/8 > -1.24.
    So the one minimum lies between the grid neighbours of the best point of
    a geometric k-grid, where golden-section search refines it; the better of
    the two points is returned.
    """
    log_ratio = _log_ratio(freq, N)
    ks = np.geomspace(1e-6, 1.0, 64)
    vals = np.array([_log_factor(float(k), log_ratio, variant) for k in ks])
    i = int(np.argmin(vals))
    lo = float(ks[max(0, i - 1)])
    hi = float(ks[min(len(ks) - 1, i + 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _log_factor(c, log_ratio, variant)
    fd = _log_factor(d, log_ratio, variant)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _log_factor(c, log_ratio, variant)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _log_factor(d, log_ratio, variant)
        if b - a < 1e-12:  # the bracket lies in (0, 1]
            break
    k_best = (a + b) / 2.0
    if _log_factor(k_best, log_ratio, variant) > vals[i]:
        k_best = float(ks[i])
    return sn_bound(freq, N, k_best, variant)


# ---------------------------------------------------------------------------
# theorem bound profiles


@dataclass(frozen=True)
class ProfileRow:
    N: int
    log_bound: float
    ratio: float


@dataclass(frozen=True)
class ProfileReport:
    """Bound/envelope ratios along a frequency, per growth regime.

    regimes: "bc" (gap >= C e^{-(l+delta) lambda}, envelope lambda_N, order
    k = 1/lambda_N), "lc" (gap >= C e^{-e^{delta lambda}}, envelope
    e^{delta lambda_N}, k = e^{-delta lambda_N}) and "poly" (gap >=
    C e^{-(l+delta) lambda^d}, envelope lambda_N^d, k = 1/lambda_N^d).
    Orders are clamped to at most 1.  Each row's ratio is
    exp(log_bound - log_envelope): the partial-sum bound divided by the
    growth envelope the regime's theorem predicts, so a bounded ratio along N
    is the observable form of the theorem.
    """

    regime: str
    variant: str
    params: Dict[str, float]
    refined: bool
    rows: Tuple[ProfileRow, ...]

    def csv_rows(self) -> List[Tuple[int, float]]:
        """(N, ratio) pairs; the ratio is the plot-ready bounded quantity."""
        return [(r.N, r.ratio) for r in self.rows]


def _regime_log_k_and_envelope(
    regime: str, lam: float, params: Dict[str, float]
) -> Tuple[float, float]:
    """(log k before clamping, log envelope) at lambda_N for one regime."""
    if regime == "bc":
        return -math.log(lam), math.log(lam)
    if regime == "lc":
        delta = params["delta"]
        return -delta * lam, delta * lam
    d = params["d"]  # poly
    return -d * math.log(lam), d * math.log(lam)


def theorem_bound_profile(
    freq: Frequency,
    regime: str,
    params: Optional[Dict[str, float]] = None,
    Ns: Union[Sequence[int], slice, None] = None,
    variant: str = "paper",
) -> ProfileReport:
    """Per-N bound factors with the regime's natural order choice.

    For each N the order is k = min(1, exp(regime log-k)) and the row records
    log_bound = log 3 + log c(k) + k (log lambda_{N+1} - log gap_N) together
    with ratio = exp(log_bound - log_envelope).  Under the regime's gap
    condition the ratio is bounded along N, which is what the profile is for.

    Frequencies with a gap above 1 are refined first, since
    the bound is monotone under gap refinement while the envelope is not.
    ``Ns`` may be a slice; a missing start or step is 1, a missing stop the refined M.
    """
    if regime not in ("bc", "lc", "poly"):
        raise ValueError(f"unknown regime {regime!r}")
    _check_variant(variant)
    params = dict(params or {})
    for name, key in (("lc", "delta"), ("poly", "d")):
        if regime == name and not params.get(key, 0.0) > 0:
            raise ValueError(f"{name} regime needs params['{key}'] > 0")
    given, fine = freq.M, refine_gaps(freq)
    freq, refined = fine, fine is not freq
    if Ns is None:
        Ns = slice(None)
    if isinstance(Ns, slice):
        start = 1 if Ns.start is None else Ns.start
        stop = freq.M if Ns.stop is None else Ns.stop
        if Ns.step == 0:
            raise ValueError("the step of N must not be 0")
        Ns = range(start, stop, 1 if Ns.step is None else Ns.step)
    if len(Ns) == 0:
        raise ValueError(f"empty range of N: {Ns!r}")
    rows = []
    for N in Ns:
        log_ratio = _log_ratio(freq, N, given if refined else None)
        lam_N = float(freq.values[N - 1])
        if lam_N <= 0:
            continue
        log_k_raw, log_env = _regime_log_k_and_envelope(regime, lam_N, params)
        log_k = min(log_k_raw, 0.0)
        k = math.exp(log_k)
        log_bound = _log_factor(k, log_ratio, variant, log_k)
        diff = log_bound - log_env
        ratio = math.exp(diff) if diff < 700.0 else math.inf
        rows.append(ProfileRow(N=int(N), log_bound=log_bound, ratio=ratio))
    return ProfileReport(
        regime=regime, variant=variant, params=params, refined=refined, rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# abscissa estimators


def _log_ratios(lam: np.ndarray, mags: Sequence[float]) -> List[Tuple[int, float]]:
    """(N, log mags[N-1] / lambda_N) for every N, skipping lambda_N <= 0 and mags[N-1] <= 0."""
    return [
        (N, math.log(float(mag)) / float(lam_N))
        for N, (lam_N, mag) in enumerate(zip(lam, mags), start=1)
        if not (lam_N <= 0 or mag <= 0)
    ]


def sigma_c_estimate(D: DirichletSeries) -> AbscissaEstimate:
    """Windowed limsup of log |sum_{n<=N} a_n| / lambda_N (convergence)."""
    # per-element abs: np.abs over the whole array can differ in the last bit
    mags = [abs(c) for c in np.cumsum(D.coeffs)]
    return windowed_limsup("sigma_c", _log_ratios(D.freq.values, mags))


def sigma_a_estimate(D: DirichletSeries) -> AbscissaEstimate:
    """Windowed limsup of log (sum_{n<=N} |a_n|) / lambda_N (absolute)."""
    mags = np.cumsum(np.abs(D.coeffs))
    return windowed_limsup("sigma_a", _log_ratios(D.freq.values, mags))


def sigma_u_estimate(D: DirichletSeries, grid: LineGrid) -> AbscissaEstimate:
    """Windowed limsup of log sup_t |S_N(it)| / lambda_N (uniform).

    The sup is a grid max on the sigma = 0 line; it underestimates the true
    sup, so the estimate is a floor for sigma_u on the chosen window.
    """
    sups = _partial_sup_profile(D, LineGrid(0.0, grid.t_min, grid.t_max, grid.step))
    return windowed_limsup("sigma_u", _log_ratios(D.freq.values, sups))


def delta_sequence_estimate(
    family: Sequence[DirichletSeries], grid: LineGrid
) -> AbscissaEstimate:
    """Windowed limsup over a family sharing one frequency.

    Member j contributes the windowed-limsup estimate (the final-third max) of
    log sup_t |S_N^{(j)}(it)| / lambda_N; the family-level windowed limsup of
    those is the Delta estimate.  The members share each phase block.
    """
    if len(family) < 1:
        raise ValueError("need a nonempty family")
    base = family[0].freq.values
    for D in family[1:]:
        if not np.array_equal(D.freq.values, base):
            raise ValueError("family members must share one frequency")
    line = LineGrid(0.0, grid.t_min, grid.t_max, grid.step)
    profiles = _partial_sup_profile(family[0], line, np.array([D.coeffs for D in family]))
    members = [windowed_limsup("Delta", _log_ratios(base, sups)) for sups in profiles]
    return windowed_limsup("Delta", [(j, m.estimate) for j, m in enumerate(members, start=1) if m.ratios])


def hardy_check(D: DirichletSeries, N: int, k: float) -> Tuple[float, float]:
    """(lhs, rhs) of |sum_{n<=N} a_n| <= 3 gap_N^{-k} sup_x |sum_{lambda_n<x} a_n (x-lambda_n)^k|.

    The sup is a grid max over x in [0, lambda_{N+1}], from ``_HARDY_POINTS``
    points refined by ``series._refine_max`` (``_HARDY_TOL``, ``_HARDY_ROUNDS``),
    whose ``rows`` contract this meets by evaluating every point a round lacks.
    Each round's weight rows (x - lambda_n)_+^k are cast into the kernel's
    complex blocks and summed by ``series._phase_sum``, so a value does not
    depend on the block its x falls in.
    A grid max is at most the true sup, and the stop rule does not bound the
    gap, so rhs can fall below the true rhs: the check then errs on the
    strict side.  The inequality holds for every choice of the first N
    coefficients, which makes it a good property-test target.
    """
    _check_order(k)
    if not 1 <= N < D.M:
        raise ValueError(f"need 1 <= N < M = {D.M} (the window ends at lambda_(N+1))")
    lhs = abs(complex(np.sum(D.coeffs[:N])))
    lam = D.freq.values
    lam_next = float(lam[N])
    log_gap = float(D.freq.log_gaps[N - 1])

    def weights(xs, lam, phase):
        # (x - lambda_n)_+^k, zero for x <= lambda_n since 0^k = 0, cast into the block
        w = np.subtract.outer(xs, lam)
        phase[...] = np.power(np.maximum(w, 0.0, out=w), k, out=w)

    def weigh(xs, refined, _best):
        xs = xs[1::2] if refined else xs
        return xs, [np.abs(row) for row in _phase_sum(xs, lam, [D.coeffs], weights)]

    grid = LineGrid(0.0, 0.0, lam_next, lam_next / (_HARDY_POINTS - 1))
    ((sup, *_),) = _refine_max(weigh, 1, grid, _HARDY_TOL, _HARDY_ROUNDS)
    rhs = 3.0 * math.exp(-k * log_gap) * sup
    return lhs, rhs


@dataclass(frozen=True)
class KroneckerNorm:
    """Half-plane norm by coefficient sum, exact iff the frequency is marked
    q-linearly independent."""

    value: float
    exact: bool
    status: str


def kronecker_norm(D: DirichletSeries) -> KroneckerNorm:
    """sum |a_n| as the sup norm on the closed right half-plane.

    For q-linearly independent frequencies (read off the frequency metadata)
    this is the exact norm: the rotations e^{-i t lambda_n} come arbitrarily
    close to aligning all terms.  Otherwise it is only the trivial upper
    bound and is labelled as such.
    """
    value = D.abs_sum(0.0)
    if D.freq.q_independent:
        return KroneckerNorm(value=value, exact=True, status="exact-sup-norm")
    return KroneckerNorm(value=value, exact=False, status="upper-bound-only")
