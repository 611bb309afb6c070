"""Neder-style frequency construction: divergent series that stay Cauchy.

Starting from a base frequency with gaps at most 1, each base point lambda_n
in the unit block I_k = {k <= lambda < k+1} is subdivided into 2r equally
spaced points across its gap, where r is the largest natural number below
e^(e^(2 x lambda_n) |I_k|).  Coefficients b_k/(r-j) with b_k = e^(-xk)/|I_k|
make each subdivided point group a Fejer polynomial in disguise: partial sums
over whole blocks telescope into uniformly bounded Fejer evaluations (the
Cauchy side), while the first half of each group contributes at least
e^(-x)/4 to the partial sums at s = 0 (the divergence side).

The double exponential in r explodes immediately, so construction takes a
total point budget and an optional per-point cap; capped groups are flagged
and exempted from the divergence contract, whose proof needs the full r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .frequency import Frequency, refine_gaps
from .series import DirichletSeries, LineGrid, evaluate, line_sup_report

__all__ = [
    "FejerPolynomial",
    "fejer_polynomial",
    "fejer_sup",
    "fejer_sup_max",
    "NederEntry",
    "NederConstruction",
    "neder_construct",
    "DivergenceRow",
    "neder_divergence_check",
    "fejer_identity_residual",
    "neder_cauchy_check",
]

_CIRCLE_POINTS = 4096  # unit-circle grid of fejer_sup
_FEJER_M_MAX = 64  # fejer_sup_max takes the max over m <= this


@dataclass(frozen=True)
class FejerPolynomial:
    """F_m(z) = sum_{j=1}^{2m-1} z^j / (m-j), with 1/0 := 0 at j = m.

    coeffs[j-1] holds the j-th coefficient; F_1 is identically zero and the
    list is antisymmetric about j = m.
    """

    m: int
    coeffs: np.ndarray

    def __call__(self, z: complex) -> complex:
        total = 0j
        zj = 1.0 + 0j
        for c in self.coeffs:
            zj *= z
            total += c * zj
        return total

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        js = np.arange(1, 2 * self.m)
        return np.power.outer(np.asarray(z, dtype=complex), js) @ self.coeffs


def fejer_polynomial(m: int) -> FejerPolynomial:
    if m < 1:
        raise ValueError("need m >= 1")
    js = np.arange(1, 2 * m)
    coeffs = np.zeros(2 * m - 1)
    nz = js != m
    coeffs[nz] = 1.0 / (m - js[nz])
    return FejerPolynomial(m=m, coeffs=coeffs)


_circle_powers_table = np.empty((_CIRCLE_POINTS, 0), dtype=complex)


def _circle_powers(n: int) -> np.ndarray:
    """z^j for the fejer_sup circle points z (rows) and j = 1..n (columns).

    A read-only view of one table, built on first use with 2 * _FEJER_M_MAX - 1
    columns and replaced by a wider one only when a larger n is asked for (the
    process then keeps the widest table).  Each entry is computed on its own,
    so a column is the same whatever the table's width, and ``view @ coeffs``
    equals ``eval_many`` on the circle bit for bit.
    """
    global _circle_powers_table
    if _circle_powers_table.shape[1] < n:
        theta = 2.0 * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
        js = np.arange(1, max(n, 2 * _FEJER_M_MAX - 1) + 1)
        _circle_powers_table = np.power.outer(np.exp(1j * theta), js)
        _circle_powers_table.setflags(write=False)
    return _circle_powers_table[:, :n]


def fejer_sup(m: int) -> float:
    """Max of |F_m| over 4096 equispaced points of the unit circle (the circle
    is enough, by the maximum principle)."""
    poly = fejer_polynomial(m)
    return float(np.max(np.abs(_circle_powers(2 * m - 1) @ poly.coeffs)))


@lru_cache(maxsize=1)
def fejer_sup_max() -> float:
    """max_{m <= 64} fejer_sup(m): the observed uniform Fejer constant."""
    return max(fejer_sup(m) for m in range(1, _FEJER_M_MAX + 1))


def _strict_floor(y: float) -> float:
    """Largest natural number strictly below y (inf passes through)."""
    if math.isinf(y):
        return math.inf
    f = math.floor(y)
    return float(f - 1) if f == y else float(f)


@dataclass(frozen=True)
class NederEntry:
    """One subdivided base point: 2r eta points across its gap."""

    n: int  # 1-based index into the base frequency
    lam: float
    gap: float
    k: int  # unit block id, floor(lam)
    r: int
    cap_applied: bool
    offset: int  # index of this entry's j = 0 point within eta


@dataclass(frozen=True)
class NederConstruction:
    x: float
    base: Frequency
    refined: bool
    block_sizes: Dict[int, int]  # |I_k| over all base points
    block_b: Dict[int, float]  # b_k = e^(-xk) / |I_k|
    entries: Tuple[NederEntry, ...]
    eta: Frequency
    coeffs: np.ndarray
    point_block: np.ndarray  # block id of each eta point

    def series(self) -> DirichletSeries:
        return DirichletSeries(self.eta, self.coeffs)


def neder_construct(
    base: Frequency,
    x: float,
    r_cap: Optional[int] = None,
    point_budget: int = 10_000,
) -> NederConstruction:
    """Subdivide ``base`` into the Neder frequency eta with Fejer coefficients.

    Bases with a gap above 1 are refined first (recorded via ``refined``).
    Each subdividable point (every base point but the last) gets
    r = min(r_cap, remaining budget, strict_floor(e^(e^(2x lambda)|I_k|)))
    and contributes points lambda_n + j/(2r) * gap for j = 0..2r-1; the last
    base point joins eta as a lone zero-coefficient point.  Groups where the
    cap or budget bit are flagged ``cap_applied``.
    """
    if x <= 0:
        raise ValueError("need x > 0")
    if r_cap is not None and r_cap < 1:
        raise ValueError("need r_cap >= 1")
    if point_budget < 2:
        raise ValueError("need point_budget >= 2")
    if base.M < 2:
        raise ValueError("need at least two base points (one gap to subdivide)")
    fine = refine_gaps(base)
    base, refined = fine, fine is not base
    lam = base.values
    gaps = base.gaps
    block_ids = np.floor(lam).astype(int)
    sizes: Dict[int, int] = {}
    for k in block_ids:
        sizes[int(k)] = sizes.get(int(k), 0) + 1
    block_b = {k: math.exp(-x * k) / sz for k, sz in sizes.items()}

    entries: List[NederEntry] = []
    pieces: List[np.ndarray] = []
    coeff_pieces: List[np.ndarray] = []
    block_pieces: List[np.ndarray] = []
    used = 0
    for i in range(base.M - 1):
        n = i + 1
        lam_n = float(lam[i])
        gap = float(gaps[i])
        k = int(block_ids[i])
        inner = 2.0 * x * lam_n
        # y = e^(e^(2x lambda) |I_k|); only log y is ever needed for the floor
        log_y = math.exp(inner) * sizes[k] if inner < 700.0 else math.inf
        y = math.exp(log_y) if log_y < 700.0 else math.inf
        # x > 0, lambda >= 0 and |I_k| >= 1 give y >= e, so r >= 2
        r = r_formula = _strict_floor(y)
        if r_cap is not None:
            r = min(r, float(r_cap))
        room = max(1, (point_budget - used) // 2)
        r = int(min(r, float(room)))
        cap_applied = r < r_formula
        b = block_b[k]
        js = np.arange(2 * r)
        pts = lam_n + (gap / (2.0 * r)) * js
        cs = np.zeros(2 * r, dtype=complex)
        nz = (js >= 1) & (js != r)
        cs[nz] = b / (r - js[nz])
        entries.append(
            NederEntry(
                n=n, lam=lam_n, gap=gap, k=k, r=r, cap_applied=cap_applied, offset=used
            )
        )
        pieces.append(pts)
        coeff_pieces.append(cs)
        block_pieces.append(np.full(2 * r, k, dtype=int))
        used += 2 * r
    # the final base point closes the range; nothing subdivides past it
    pieces.append(np.array([float(lam[-1])]))
    coeff_pieces.append(np.zeros(1, dtype=complex))
    block_pieces.append(np.array([int(block_ids[-1])]))

    # a gap too small for 2r distinct floats repeats a point, which Frequency rejects
    eta = Frequency(np.concatenate(pieces), generator=f"neder:{base.generator}")
    return NederConstruction(
        x=x,
        base=base,
        refined=refined,
        block_sizes=sizes,
        block_b=block_b,
        entries=tuple(entries),
        eta=eta,
        coeffs=np.concatenate(coeff_pieces),
        point_block=np.concatenate(block_pieces),
    )


@dataclass(frozen=True)
class DivergenceRow:
    n: int
    k: int
    r: int
    block_sum: float
    threshold: float
    passed: bool
    exempt: bool  # capped groups carry no divergence guarantee


def neder_divergence_check(c: NederConstruction) -> List[DivergenceRow]:
    """Per-group lower bound sum_{j=1}^{r-1} b/(r-j) e^(-x eta_j) vs e^(-x)/4.

    The j < r points carry the positive coefficients; each group's
    contribution to the partial sums of D at the real point s = x stays above
    e^(-x)/4 when r is untruncated, which is why those partial sums cannot
    settle and the convergence abscissa is pinned at x.  Capped groups are
    reported with ``exempt`` set: the bound needs the full double-exponential
    r.
    """
    threshold = math.exp(-c.x) / 4.0
    rows = []
    for e in c.entries:
        # the group's points j = 1..r-1 and their real coefficients b/(r-j)
        group = slice(e.offset + 1, e.offset + e.r)
        total = float(np.sum(c.coeffs[group].real * np.exp(-c.x * c.eta.values[group])))
        rows.append(
            DivergenceRow(
                n=e.n,
                k=e.k,
                r=e.r,
                block_sum=total,
                threshold=threshold,
                passed=total >= threshold,
                exempt=e.cap_applied,
            )
        )
    return rows


def _blocks(c: NederConstruction, lo: int, hi: int) -> Optional[DirichletSeries]:
    """Eta terms of blocks lo < k <= hi, or None; block ids start at 0, so D^K is (-1, K)."""
    mask = (c.point_block > lo) & (c.point_block <= hi)
    if not mask.any():
        return None
    return DirichletSeries(Frequency(c.eta.values[mask], generator="neder:partial"), c.coeffs[mask])


def fejer_identity_residual(c: NederConstruction, K: int, s_values: Sequence[complex]) -> float:
    """Max residual of D^K(s) = sum_{k<=K} b_k sum_{lambda_n in I_k} e^(-lambda_n s) F_r(e^(-s gap/2r)).

    Direct summation of the eta terms against the Fejer-evaluation form; the
    two are the same numbers regrouped, so the residual is pure rounding.
    """
    if len(s_values) == 0:
        raise ValueError("need at least one sample point")
    if K < min(c.block_sizes):
        raise ValueError(f"K = {K} is below the smallest block id {min(c.block_sizes)}")
    DK = _blocks(c, -1, K)
    worst = 0.0
    for s in s_values:
        s = complex(s)
        direct = 0j if DK is None else evaluate(DK, s)
        fejer = 0j
        for e in c.entries:
            if e.k > K:
                continue
            poly = fejer_polynomial(e.r)
            z = np.exp(-s * e.gap / (2.0 * e.r))
            fejer += c.block_b[e.k] * np.exp(-e.lam * s) * poly(z)
        worst = max(worst, abs(direct - fejer))
    return worst


def neder_cauchy_check(
    c: NederConstruction,
    K: int,
    L: int,
    grid: LineGrid,
) -> Tuple[float, float]:
    """(observed, bound): grid sup of |D^K - D^L| against C_obs sum b_k |I_k|.

    The difference is exactly the eta terms of blocks K < k <= L; its max on
    the grid's points (one unrefined round of :func:`line_sup_report`) is
    compared with the telescoped Fejer bound using the
    observed constant from :func:`fejer_sup_max` (the classical proof has a
    finite C but no numeric value).
    """
    ks = sorted(c.block_sizes)
    if not K <= L:
        raise ValueError("need K <= L")
    if L > max(ks):
        raise ValueError(f"L = {L} exceeds the largest block id {max(ks)}")
    bound = fejer_sup_max() * sum(
        c.block_b[k] * c.block_sizes[k] for k in ks if K <= k <= L
    )
    diff = _blocks(c, K, L)
    if diff is None:
        return 0.0, bound
    return line_sup_report(diff, None, grid, max_rounds=1).value, bound
