"""Windowed limsup surrogates for abscissa-style estimators.

A limsup over an infinite index set is not computable from a finite prefix.
Everything here reports a deterministic surrogate instead: the maximum ratio
over the final third of the available indices, plus a coarse trend flag
obtained by comparing the maxima of consecutive thirds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

__all__ = ["AbscissaEstimate", "windowed_limsup", "GROWTH_TOL"]

#: Relative third-to-third growth above which a ratio sequence is called
#: divergent.  The window rule itself is fixed; this tolerance is our
#: convention and is surfaced in serialized reports.
GROWTH_TOL = 1e-2


@dataclass(frozen=True)
class AbscissaEstimate:
    """Finite-prefix limsup report for a ratio sequence.

    Attributes
    ----------
    which:
        Tag naming the estimated quantity, one of ``sigma_c``, ``sigma_a``,
        ``sigma_u``, ``sigma_u_k``, ``L``, ``Delta``.
    ratios:
        The (index, ratio) pairs that were actually formed.  Indices with a
        zero denominator are skipped by the callers and never appear here.
    estimate:
        Max ratio over the final window (``-inf`` when no ratio exists).
    window_size:
        Number of trailing pairs the estimate was taken over.
    trend:
        ``convergent`` | ``divergent`` | ``inconclusive``.
    """

    which: str
    ratios: Tuple[Tuple[int, float], ...]
    estimate: float
    window_size: int
    trend: str


def windowed_limsup(
    which: str,
    pairs: Iterable[Tuple[int, float]],
) -> AbscissaEstimate:
    """Build an :class:`AbscissaEstimate` from (index, ratio) pairs.

    The estimate is the max over the last ``ceil(n/3)`` pairs.  The trend
    compares the maxima of three consecutive chunks ``m1, m2, m3``:
    divergent when both transitions grow by more than ``GROWTH_TOL``
    (relative to the largest magnitude), convergent when the last transition
    does not grow, inconclusive otherwise or when fewer than 3 pairs exist.
    """
    clean = tuple((int(i), float(r)) for i, r in pairs)
    if not clean:
        return AbscissaEstimate(which, (), float("-inf"), 0, "inconclusive")

    n = len(clean)
    w = max(1, math.ceil(n / 3))
    estimate = max(r for _, r in clean[n - w :])
    if n < 3:
        return AbscissaEstimate(which, clean, estimate, w, "inconclusive")

    mid_lo = max(1, n - 2 * w)
    hi = n - w
    m1 = max(r for _, r in clean[:mid_lo])
    m2 = max(r for _, r in clean[mid_lo:hi]) if hi > mid_lo else m1
    m3 = estimate
    scale = max(abs(m1), abs(m2), abs(m3), 1e-12)
    g_first = (m2 - m1) / scale
    g_last = (m3 - m2) / scale
    if g_last > GROWTH_TOL and g_first > GROWTH_TOL:
        trend = "divergent"
    elif g_last <= GROWTH_TOL:
        trend = "convergent"
    else:
        trend = "inconclusive"
    return AbscissaEstimate(which, clean, estimate, w, trend)
