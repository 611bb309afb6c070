"""Frequencies: strictly increasing exponent sequences for Dirichlet series.

A frequency is a finite, strictly increasing, nonnegative prefix
``lambda_1 < lambda_2 < ... < lambda_M``.  This module constructs the builtin
families, ingests custom lists, refines gaps down to length <= 1, classifies
gap-decay conditions, and estimates the density quantity
``L = limsup_N log(N) / lambda_N``.

Gap conditions are evidence reports over a finite prefix, never proofs.  All
condition weights are evaluated in log-space so that doubly exponential
weights cannot overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .estimates import AbscissaEstimate, windowed_limsup

__all__ = [
    "Frequency",
    "ConditionReport",
    "BUILTIN_KINDS",
    "make_frequency",
    "read_frequency_file",
    "check_bc",
    "check_lc",
    "check_poly_growth",
    "estimate_L",
    "refine_gaps",
    "DEFAULT_SLOPE_TOL",
]

#: Builtin generator tags accepted by :func:`make_frequency`.
BUILTIN_KINDS = (
    "log",
    "linear",
    "sqrtlog",
    "logprimes",
    "interleave-exp2",
    "interleave-expexp2",
    "custom-from-list",
)

#: Default slope tolerance of the condition trend rule.
DEFAULT_SLOPE_TOL = 1e-3

# Condition verdicts need at least this many frequency values; below it a
# prefix is too short to say anything.
_MIN_TREND_POINTS = 10

# Substitute for log(0) / -log(overflow); keeps every log-constant finite.
_LOG_FLOOR = -sys.float_info.max
_LOG_CEIL = sys.float_info.max


@dataclass(frozen=True)
class Frequency:
    """A strictly increasing nonnegative exponent prefix.

    Attributes
    ----------
    values:
        1-D float64 array, strictly increasing, ``values[0] >= 0``, finite.
    generator:
        Provenance tag (a builtin name, ``custom``, or a derived tag such as
        ``refined:linear``).
    log_gaps:
        Optional exact log-gap overrides, length ``M - 1``.  Generators whose
        gaps underflow float64 subtraction (the interleave families) store the
        analytically exact ``log(lambda_{n+1} - lambda_n)`` here; everything
        gap-sensitive reads gaps through :meth:`log_gap_values`.
    q_independent:
        Trusted metadata: the values are linearly independent over Q.  Only
        builtin generators set it (``logprimes``); it is never inferred from
        the floats.
    """

    values: np.ndarray
    generator: str = "custom"
    log_gaps: Optional[np.ndarray] = None
    q_independent: bool = False

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1:
            raise ValueError("frequency values must be a 1-D sequence")
        if vals.size < 1:
            raise ValueError("frequency needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("frequency values must be finite")
        if vals[0] < 0:
            raise ValueError("frequency values must be nonnegative")
        diffs = np.diff(vals)
        bad = np.flatnonzero(diffs <= 0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"frequency values must be strictly increasing; "
                f"violation at index {i + 1} -> {i + 2} "
                f"({float(vals[i])!r} -> {float(vals[i + 1])!r})"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.log_gaps is not None:
            lg = np.array(self.log_gaps, dtype=float, copy=True)
            if lg.shape != (vals.size - 1,):
                raise ValueError("log_gaps must have length M - 1")
            lg.flags.writeable = False
            object.__setattr__(self, "log_gaps", lg)

    @property
    def M(self) -> int:
        return int(self.values.size)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.values)

    def log_gap_values(self) -> np.ndarray:
        """log(lambda_{n+1} - lambda_n), exact metadata when available."""
        if self.log_gaps is not None:
            return self.log_gaps
        return np.log(np.diff(self.values))


@dataclass(frozen=True)
class ConditionReport:
    """Evidence report for a gap-decay condition on a finite prefix.

    ``running_log_constants[n-1]`` is ``log C_n = log(gap_n) + w(lambda_n)``
    where ``w`` is the condition's weight exponent.  The verdict is a pure
    function of the trend: the condition holds with some constant ``C > 0``
    exactly when ``inf_n C_n > 0``, so a running minimum that stabilizes is
    evidence for, and one that keeps decaying is evidence against.
    """

    condition: str  # "BC" | "LC" | "POLY"
    params: dict
    running_log_constants: np.ndarray
    infimum_log_constant: float
    witness_index: int  # 1-based argmin of the log-constants
    trend: str  # "stable" | "decaying" | "inconclusive"
    verdict: str  # "evidence-for" | "evidence-against" | "inconclusive"


# ---------------------------------------------------------------------------
# construction


def _first_primes(m: int) -> np.ndarray:
    """The first ``m >= 1`` primes via a deterministic sieve."""
    # one pass suffices: p_m < m (log m + log log m) for m >= 6 (Rosser &
    # Schoenfeld, Illinois J. Math. 6, 1962), and p_5 = 11 < 13
    if m < 6:
        bound = 13
    else:
        fm = float(m)
        bound = int(fm * (math.log(fm) + math.log(math.log(fm)))) + 3
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)[:m].astype(float)


def _interleaved(M: int, *, double_exponential: bool) -> Frequency:
    """lambda_{2n-1} = n and lambda_{2n} = n + eps_n.

    ``eps_n`` is ``exp(-n^2)`` or ``exp(-exp(n^2))``.  Where ``n + eps_n``
    rounds back to ``n`` in float64, the stored value is nudged up by one ulp
    to keep strict monotonicity, and the exact log-gaps are recorded so that
    condition checks see the true gap sizes.
    """
    vals, log_gaps = [], []
    for n in range(1, M // 2 + 2):
        if double_exponential:
            log_eps = -math.exp(float(n * n)) if n * n < 709 else _LOG_FLOOR
        else:
            log_eps = -float(n * n)
        eps = math.exp(log_eps)
        vals += [float(n), max(n + eps, math.nextafter(float(n), math.inf))]
        # the gap up to the next odd value n + 1 is 1 - eps_n
        log_gaps += [log_eps, math.log1p(-eps)]
    kind = "interleave-expexp2" if double_exponential else "interleave-exp2"
    return Frequency(
        vals[:M], generator=kind, log_gaps=log_gaps[: M - 1] if M > 1 else None
    )


def make_frequency(kind: str, M: int, params: Optional[Sequence[float]] = None) -> Frequency:
    """Build a builtin frequency prefix of length ``M``.

    ``kind`` is one of :data:`BUILTIN_KINDS`.  ``params`` is only used by
    ``custom-from-list`` (the values themselves).  Unknown tags and
    non-monotone custom lists are rejected.
    """
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    if kind == "log":
        return Frequency(np.log(np.arange(1, M + 1, dtype=float)), generator="log")
    if kind == "linear":
        return Frequency(np.arange(M, dtype=float), generator="linear")
    if kind == "sqrtlog":
        return Frequency(np.sqrt(np.log(np.arange(1, M + 1, dtype=float))), generator="sqrtlog")
    if kind == "logprimes":
        return Frequency(
            np.log(_first_primes(M)), generator="logprimes", q_independent=True
        )
    if kind == "interleave-exp2":
        return _interleaved(M, double_exponential=False)
    if kind == "interleave-expexp2":
        return _interleaved(M, double_exponential=True)
    if kind == "custom-from-list":
        if params is None:
            raise ValueError("custom-from-list requires the values as params")
        vals = np.asarray(list(params), dtype=float)
        if vals.size != M:
            raise ValueError(f"custom list has {vals.size} values, expected M={M}")
        return Frequency(vals, generator="custom")
    raise ValueError(f"unknown frequency kind {kind!r}; expected one of {BUILTIN_KINDS}")


def _finite_number(text: str, where: str) -> float:
    """float(text), or ValueError naming ``where`` when text is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: not a finite number: {text!r}")
    return value


def read_frequency_file(path) -> Frequency:
    """Ingest a custom frequency: one decimal per line, '#' comments and a byte-order mark allowed."""
    values = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        values.append(_finite_number(line, f"{path}:{lineno}"))
    if not values:
        raise ValueError(f"{path}: no values found")
    return Frequency(np.asarray(values), generator="custom")


# ---------------------------------------------------------------------------
# gap-decay conditions


def _tail_slope(run_min: np.ndarray) -> float:
    """Least-squares slope of the final third (3 or more finite values) of a running minimum."""
    w = math.ceil(run_min.size / 3)
    tail = np.asarray(run_min[-w:], dtype=float)
    hi, lo = float(tail[0]), float(tail[-1])  # a running minimum never rises
    if hi == lo:
        return 0.0
    if hi - lo > 1e300:
        return -math.inf  # magnitudes near the float ceiling
    xs = np.arange(w, dtype=float)
    xs -= xs.mean()
    ys = tail - tail.mean()
    return float(np.dot(xs, ys) / np.dot(xs, xs))


def _condition_report(
    condition: str,
    params: dict,
    freq: Frequency,
    weight_exponents: np.ndarray,
    tol_slope: float,
) -> ConditionReport:
    if freq.M < 2:
        raise ValueError("condition checks need at least two frequency values")
    log_c = np.clip(
        freq.log_gap_values() + np.clip(weight_exponents, _LOG_FLOOR, _LOG_CEIL),
        _LOG_FLOOR,
        _LOG_CEIL,
    )
    run_min = np.minimum.accumulate(log_c)
    witness = int(np.argmin(log_c)) + 1
    if freq.M < _MIN_TREND_POINTS:
        trend = "inconclusive"
    else:
        trend = "stable" if _tail_slope(run_min) >= -tol_slope else "decaying"
    verdict = {
        "stable": "evidence-for",
        "decaying": "evidence-against",
        "inconclusive": "inconclusive",
    }[trend]
    return ConditionReport(
        condition=condition,
        params=params,
        running_log_constants=log_c,
        infimum_log_constant=float(run_min[-1]),
        witness_index=witness,
        trend=trend,
        verdict=verdict,
    )


def check_bc(
    freq: Frequency, l: float, delta: float, tol_slope: float = DEFAULT_SLOPE_TOL
) -> ConditionReport:
    """Gap lower bound of exponential type: gap_n >= C e^{-(l+delta) lambda_n}.

    ``log C_n = log(gap_n) + (l + delta) lambda_n``; evidence-for when the
    running minimum of the log-constants stabilizes over the final third.
    """
    if l <= 0 or delta <= 0:
        raise ValueError("need l > 0 and delta > 0")
    w = (l + delta) * freq.values[:-1]
    return _condition_report("BC", {"l": l, "delta": delta}, freq, w, tol_slope)


def check_lc(
    freq: Frequency, delta: float, tol_slope: float = DEFAULT_SLOPE_TOL
) -> ConditionReport:
    """Gap lower bound of doubly exponential type: gap_n >= C e^{-e^{delta lambda_n}}."""
    if delta <= 0:
        raise ValueError("need delta > 0")
    with np.errstate(over="ignore"):
        w = np.exp(delta * freq.values[:-1])
    return _condition_report("LC", {"delta": delta}, freq, w, tol_slope)


def check_poly_growth(
    freq: Frequency,
    l: float,
    d: float,
    delta: float,
    tol_slope: float = DEFAULT_SLOPE_TOL,
) -> ConditionReport:
    """Gap lower bound with polynomial exponent: gap_n >= C e^{-(l+delta) lambda_n^d}."""
    if l <= 0 or d <= 0 or delta <= 0:
        raise ValueError("need l > 0, d > 0 and delta > 0")
    with np.errstate(over="ignore"):
        w = (l + delta) * np.power(freq.values[:-1], d)
    return _condition_report(
        "POLY", {"l": l, "d": d, "delta": delta}, freq, w, tol_slope
    )


# ---------------------------------------------------------------------------
# density and refinement


def estimate_L(freq: Frequency) -> AbscissaEstimate:
    """Windowed limsup of log(N) / lambda_N over N = 2..M.

    N = 1 is left out: it is the only index where ``lambda_N`` can be 0.
    """
    if freq.M < 3:
        raise ValueError("estimate_L needs M >= 3")
    ns = np.arange(2, freq.M + 1)
    ratios = np.log(ns.astype(float)) / freq.values[1:]
    return windowed_limsup("L", zip(ns, ratios))


def refine_gaps(freq: Frequency) -> Frequency:
    """Insert points until every gap is <= 1; the input is a subsequence.

    Two stages per oversized gap (a, b): with l the smallest natural number
    >= b - a, first insert a+1, ..., a+l-2 when l >= 3 (unit steps), then
    bisect the remaining gap, which lies in (1, 2], at its midpoint.  The
    output (at most l - 1 new points a gap) is allocated first, so a gap no
    array holds raises at once; gaps up to ~1e8 fill a point per loop step.
    An oversized gap ending above 2^53 raises ValueError naming the gap.
    """
    vals = freq.values
    gaps = np.diff(vals)
    if bool(np.all(gaps <= 1.0)):
        return freq
    out = np.empty(vals.size + int(np.sum(np.ceil(gaps) - 1.0)))  # ceil(gap) - 1 is 0 on a gap <= 1
    out[0] = last = float(vals[0])
    k = 1
    for i, (a, b, gap) in enumerate(zip(vals[:-1], vals[1:], gaps), start=1):
        if gap > 1.0:
            if b - math.nextafter(b, -math.inf) > 1.0:  # above 2^53 no float lies within 1 below b
                raise ValueError(f"gap {i} -> {i + 1} ({float(a)!r} -> {float(b)!r}) cannot be refined to length <= 1")
            for j in range(1, math.ceil(gap) - 1):
                step = float(a) + j
                # a + j can round up across a power of two; stay within 1
                while step - last > 1.0:
                    step = math.nextafter(step, -math.inf)
                out[k] = last = step
                k += 1
            if b - last > 1.0:
                out[k] = (last + float(b)) / 2.0
                k += 1
        out[k] = last = float(b)
        k += 1
    return Frequency(out[:k], generator=f"refined:{freq.generator}")
