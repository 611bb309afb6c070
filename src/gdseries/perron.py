"""Truncated Perron inversion for Riesz means.

For k >= 0, x > 0 and any epsilon > 0,

    A^k(x)/x^k = Gamma(k+1)/(2 pi i) int_{epsilon-iT}^{epsilon+iT}
                   f(s) e^{xs} / s^{1+k} ds  +  tail,

where f is the analytic function behind the series and, for k > 0,

    |tail| <= Gamma(k+1) ||f|| e^{x epsilon} / (pi x^k k T^k).

The left side equals riesz_mean(D, k, x, 0), which gives a two-route check:
quadrature plus certificate on one side, the finite weighted sum on the
other.  At k = 0 the tail certificate is vacuous (the bound has a 1/k) and
the inversion itself breaks when x hits a frequency, so that combination is
rejected.

Memory: the integrand is evaluated ``_CHUNK`` points at a time.  The first
trapezoid round stores its n + 1 values in one complex array, for a single
pairwise sum; later rounds keep only a running sum of their chunk sums.  A
call therefore holds that one array plus the temporaries of one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .riesz import riesz_mean
from .series import DirichletSeries, _call_reference, _eval_points

__all__ = [
    "PerronQuery",
    "PerronResult",
    "PerronComparison",
    "tail_bound",
    "required_T",
    "perron_integral",
    "perron_vs_direct",
]

_MAX_ROUNDS = 14  # trapezoid refinement rounds of perron_integral
_CHUNK = 1 << 16  # integrand points evaluated at once


@dataclass(frozen=True)
class PerronQuery:
    """Inversion parameters: cut length x, order k, line Re s = epsilon,
    truncation height T and initial quadrature step."""

    x: float
    k: float
    epsilon: float
    T: float
    step: float

    def __post_init__(self) -> None:
        if self.x <= 0:
            raise ValueError("need x > 0")
        if self.k < 0:
            raise ValueError("need k >= 0")
        if self.epsilon <= 0:
            raise ValueError("need epsilon > 0")
        if self.T <= 0:
            raise ValueError("need T > 0")
        if not 0 < self.step <= 2 * self.T:
            raise ValueError("need 0 < step <= 2T")


def tail_bound(k: float, x: float, epsilon: float, f_norm: float, T: float) -> float:
    """Certified |tail| bound; inf at k = 0 where the certificate is vacuous."""
    if T <= 0:
        raise ValueError("need T > 0")
    if k == 0:
        return math.inf
    return math.gamma(k + 1.0) * f_norm * math.exp(x * epsilon) / (math.pi * x**k * k * T**k)


def required_T(k: float, x: float, epsilon: float, f_norm: float, tol: float) -> float:
    """Smallest truncation height whose tail certificate is <= tol (k > 0)."""
    if k <= 0:
        raise ValueError("need k > 0 (no finite certificate at k = 0)")
    if tol <= 0:
        raise ValueError("need tol > 0")
    return (math.gamma(k + 1.0) * f_norm * math.exp(x * epsilon) / (math.pi * x**k * k * tol)) ** (
        1.0 / k
    )


@dataclass(frozen=True)
class PerronResult:
    value: complex
    tail: float
    T: float
    step: float
    rounds: int
    f_norm: float


@dataclass(frozen=True)
class PerronComparison:
    perron: PerronResult
    direct: complex
    residual: float
    budget: float


def _resolve_f(D: DirichletSeries, f_norm: Optional[float]):
    """(evaluator, norm) for the function under the integral sign.

    Without an attached reference the finite sum itself is the function and
    sum |a_n| bounds it on Re s > 0.  With an external reference a norm bound
    must be supplied by the caller; guessing one would wreck the certificate.
    """
    if D.reference is None:
        norm = D.abs_sum(0.0) if f_norm is None else float(f_norm)
        return partial(_eval_points, D), norm
    if f_norm is None:
        raise ValueError("an external reference needs an explicit f_norm bound")
    return partial(_call_reference, D.reference), float(f_norm)


def perron_integral(
    D: DirichletSeries,
    q: PerronQuery,
    f_norm: Optional[float] = None,
    quad_tol: Optional[float] = None,
) -> PerronResult:
    """Evaluate the truncated Perron integral with trapezoid refinement.

    Refinement halves the step until successive values differ by less than
    a tenth of ``quad_tol`` (or 1e-10 relative when no tolerance is given),
    for at most 14 rounds.
    When ``quad_tol`` is set and k > 0, a tail certificate above it is
    rejected up front with the T that would suffice; k = 0 is rejected when x
    lies on the frequency (the inverted step function jumps there).
    """
    x, k, eps, T = q.x, q.k, q.epsilon, q.T
    if k == 0 and np.any(D.freq.values == x):
        raise ValueError("k = 0 inversion is undefined when x hits a frequency")
    f, norm = _resolve_f(D, f_norm)
    tb = tail_bound(k, x, eps, norm, T)
    if quad_tol is not None and k > 0 and tb > quad_tol:
        need = required_T(k, x, eps, norm, quad_tol)
        raise ValueError(
            f"T = {T:g} certifies only {tb:.3g} > quad_tol = {quad_tol:g}; "
            f"need T >= {need:g}"
        )
    prefactor = math.gamma(k + 1.0) / (2.0 * math.pi * x**k)

    def g(ts: np.ndarray) -> np.ndarray:
        s = eps + 1j * ts
        return np.asarray(f(s), dtype=complex) * np.exp(x * s) / s ** (1.0 + k)

    n = max(2, int(math.ceil(2.0 * T / q.step)))
    h = 2.0 * T / n
    # round 1 keeps its one pairwise sum over all n + 1 values
    vals = np.empty(n + 1, dtype=complex)
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        vals[lo:hi] = g(-T + h * np.arange(lo, hi))
    integral = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    del vals
    target = 0.1 * quad_tol if quad_tol is not None else None
    rounds = 1
    while rounds < _MAX_ROUNDS:
        mid_sum = 0j
        for lo in range(0, n, _CHUNK):
            mid_sum += g(-T + h * (np.arange(lo, min(lo + _CHUNK, n)) + 0.5)).sum()
        refined = integral / 2.0 + (h / 2.0) * mid_sum
        change = abs(refined - integral) * prefactor
        integral = refined
        n *= 2
        h /= 2.0
        rounds += 1
        if target is not None:
            if change <= target:
                break
        elif change <= 1e-10 * max(abs(integral) * prefactor, 1e-30):
            break
    return PerronResult(
        value=complex(prefactor * integral),
        tail=tb,
        T=T,
        step=h,
        rounds=rounds,
        f_norm=norm,
    )


def perron_vs_direct(
    D: DirichletSeries,
    q: PerronQuery,
    f_norm: Optional[float] = None,
    quad_tol: float = 1e-6,
) -> PerronComparison:
    """Perron value against the direct weighted sum, with an error budget.

    budget = quad_tol + tail certificate; the contract is
    residual <= budget whenever the certificate is finite.
    """
    res = perron_integral(D, q, f_norm=f_norm, quad_tol=quad_tol)
    direct = riesz_mean(D, q.k, q.x, 0j)
    residual = abs(res.value - direct)
    return PerronComparison(
        perron=res, direct=direct, residual=residual, budget=quad_tol + res.tail
    )
