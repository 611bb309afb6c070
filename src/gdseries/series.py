"""Dirichlet series and polynomials: evaluation and sup norms on lines.

A series is a frequency plus complex coefficients, D(s) = sum a_n e^{-lambda_n s},
optionally carrying a closed-form reference evaluator for its limit function f
on the open right half-plane.

Sup norms on vertical lines are approximated by grid maximization.  Any grid
value is a lower bound of the true sup.  Where an inequality needs the norm on
its large side, use the certified upper bound: partial sums are Lipschitz in t
with constant sum |a_n| lambda_n e^{-lambda_n sigma}, so

    sup over the covered t-window <= grid max + Lipschitz * step / 2 + 2E,

capped by the triangle-inequality bound sum |a_n| e^{-lambda_n sigma}, where
step is the largest spacing actually sampled and E the rounding term below.
The certificate covers the sampled window, which the callers choose.

Every sum_n amp_n e^{-lambda_n z} over many points z is built from
``_phase_blocks``: the phase matrix exp(-outer(z, lambda)) in complex blocks of
2^16 entries (1 MiB, one core's L2 cache), but never fewer than two points
(``_block_rows``).  On a line, z = i t for real t, ``_line_block`` fills a
block in place with cos(t lambda) and -sin(t lambda): the bits the complex exp
gives at z = 1j * t, at about three quarters of its cost (but for the sign of
a zero imaginary part where t lambda_n = 0 with t < 0 or t = -0: +0 against
the complex exp's -0, which a sum keeps only when it is zero).  Points that
share one real part x >= 0 (Perron's contour, coefficient recovery, the Riesz
error's reference, translated references) take ``_vertical_block``: the line
block times one weight row e^{-x lambda}.  glibc's complex exp forms exp(x)
(cos y, sin y), so with the weights from libm's exp (numpy's complex exp at a
zero imaginary part; its vectorized float exp gives other bits) these are the
complex exp's bits.  Other points, which only the public self reference can be
handed, and series of fewer than 2J terms (J below), where weighting a narrow
block costs more than it saves, keep the complex exp of ``_exp_block``.  The
blocks of one call are striped over ``_WORKERS`` threads, one per core the
process may run on (at most 8): worker w builds blocks w, w + W, ... in one
reused buffer, and the calling thread is worker 0.
numpy releases the interpreter lock inside its ufuncs and the GEMV, so the
workers run in parallel.  This is bit-safe: a block is built by the same
ufunc loops whatever its rows, and each value is one GEMV row of a block of at
least two rows (a one-row block is doubled), so no value depends on the block
it falls in or the worker that built it.  ``_phase_sum`` gives one owned row
per amplitude vector of its list.  The vectors share each phase row, and one
over a prefix lambda_1..lambda_m runs its GEMV on the block's first m columns,
which gives the bits of a block built over the prefix alone.  The partial-sum
fold ``_partial_sup_profile`` folds line blocks in place into the grid sup
of |S_N| for every N, which the sigma_u and Delta estimators of ``bounds``
read; its coarse pass is described below.
``bounds`` and ``neder`` pass fills (Hardy's weights, the Fejer powers z^j)
to ``_phase_sum``, but only this module sizes phase blocks and starts kernel
threads or weights coefficients by e^{-lambda sigma} for a line sup.

A line (c, sigma) is a coefficient row over the first len(c) frequencies of one
series, on Re s = sigma: a partial sum, a Riesz truncation, a sigma-level or a
difference of Neder blocks.  Its amplitudes c_n e^{-lambda_n sigma} are made
only by ``_line_terms``, and ``_eval_line`` takes only such amplitude rows.
Every line sup reads its t-window from a ``LineGrid``, and they refine one
t-window for all their lines together (``_refine_lines``): a round builds the
phase rows of its points once, over the widest line still refining, and each
line keeps its own max, convergence test and certificate.
Every grid sup, these and Hardy's in ``bounds``, halves its step in one loop
(``_refine_max``).  Each round hands ``rows`` its grid, whether that grid is a
true refinement of the previous one (its even points are the previous grid bit
for bit; ``LineGrid`` rounds W/h, so a step that does not divide the window
can give another size) and each live function's max so far.  ``rows`` returns
the points it evaluated and their values, and a point it leaves out must be
provably below one of those values or below the max so far.  Hardy's sup
evaluates every point a round lacks: a refinement's midpoints, else the grid.

A line sup skips points by one rule.  With u a line's bound on the computed
|value| at a point, the point is asked for only when

    u (1 + 1e-12) + 2E

reaches the larger of the line's max before the round and its max over the
round's evaluated centres (a refinement has none), and it is evaluated when
some live line asks for it.  u comes from one of two anchor sources:

- on a true refinement, a midpoint's neighbours at distances d_l and d_r,
  u = min(u_l + L d_l, u_r + L d_r), L being the line's Lipschitz constant;
- on a whole grid, the coarse pass's shifted centres.  With J = ``_STRIDE``
  = 8 and Delta = W / (points - 1) the grid's nominal spacing, the pass
  evaluates only the centres t_c, every J-th point and the last.  In the same
  ``_eval_line`` call each line adds J - 1 shifted rows
  c_n e^{-lambda_n sigma} e^{-i lambda_n s_j}, s_j = j Delta rounded, whose
  value at t_c is the line's value at t_c + s_j.  The shift rows
  e^{-i lambda s_j} are filled once per round by ``_line_block`` and scaled by
  each line's amplitudes, the last line's in place; the value rows keep their
  bits, since ``_phase_sum`` runs one GEMV per amplitude row.  A point t_i at
  offset j after its centre has u = |a~| + E' + L eta_i, where a~ is the
  computed shifted value, eta_i = |(t_i - t_c) - s_j| + 2uT bounds
  |t_i - (t_c + s_j)| with its own rounding, and

      E' = 2u ((T + J Delta) L + (m + 12) cap)

  covers the rounding of both phases, of the amplitude products and of the
  sum.  No condition on lambda is needed.

An evaluated point's u is its computed |value|, and a skipped one keeps its
bound for the next round's midpoints.  A whole grid below the floors of the
coarse pass, a widest live line of fewer than 2J terms or a fill of less than
one block (width x points below ``_BLOCK_ENTRIES``), is one direct
``_eval_line`` call over every point: there the shift rows and bounds cost
more than the fill they save.  A skipped point is bounded, not evaluated: its
computed value lies strictly below a value its round already holds, so no
max, t_at_max, round, step or certificate changes.

The fold of a single coefficient vector skips (point, N) entries by the same
rule, with each constant taken over the first N terms (a stack of vectors
folds the whole grid once for all its members).  Past the same floors (at
least 2J terms, at least one block of fill over the whole grid) it folds the
centres whole, which gives best_N, the max of the computed |S_N| over the
centres.  A second pass over the centres, in blocks of half the height, takes
for each shift j the cumulative sum along n of
c_n e^{-lambda_n sigma} e^{-i lambda_n s_j} times the centre's phase row: its
entry N is a~ for S_N at t_c + s_j.  The point t_i is asked for by N when

    (|a~| + E'_N + L_N eta) (1 + 1e-12) + 2E_N >= best_N,

eta being the largest eta_i of the grid, and K_i is the largest N that asks
for it.  t_i is then folded over lambda_1..lambda_{K_i} alone, in chunks of
points of similar K_i: a cumulative sum over a prefix keeps the bits of the
full row's first K_i entries.  Entries past K_i are skipped, and their
computed |S_N| lies below best_N, a value the fold already holds; the fold
returns only the sups, so no bit changes.  The pass holds per worker a
half-height block of centre phases, one of shifted sums and one of their
moduli, and no bound per point.  cap_N and L_N are cumulative sums of
nonnegative rounded terms, each at most a relative (N + 4) u below its exact
value.  The factor 2 of E_N and E'_N, which are built from them, covers that
shortfall, and E'_N's margin u (T + J Delta) L_N also covers it for L_N eta,
since eta is a few ulps of T; so the computed constants stay upper bounds.

E bounds the distance between a computed |value| and the exact modulus, on
a line of m terms with cap sum |c_n| e^{-lambda_n sigma}, over a window with
T = max(|t_min|, |t_max|):

    E = 2u (T L + (m + 8) cap),    u = 2^-53.

T L covers the rounding of each t lambda_n; (m + 8) cap covers about one ulp
in each libm cos and sin, the complex products, the m-term sum in any order
(gamma_m) and the abs; the factor 2 is a margin.  The skip rule's 2E is one
E for the point and one for its neighbour; a shifted centre's E' already
covers the shifted value, and there 2E is a margin.  The certificate adds 2E
too.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .frequency import BUILTIN_KINDS, Frequency, _finite_number, make_frequency, read_frequency_file

__all__ = [
    "DirichletSeries",
    "LineGrid",
    "SupReport",
    "NormReport",
    "evaluate",
    "line_sup_report",
    "halfplane_norm",
    "translate",
    "coefficient_recover",
    "with_self_reference",
    "read_coefficients_csv",
    "write_coefficients_csv",
    "builtin_coefficients",
    "series_from_descriptor",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz
# 1 MiB of complex phases, plus a 0.5 MiB block of moduli in the fold, fits a core's L2
_BLOCK_ENTRIES = 1 << 16
# at most 8 blocks in flight keeps the phase memory within 8 MiB
_WORKERS = min(
    8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_MAX_ROUNDS = 10
# a coarse round evaluates every J-th point: per point and term it spends 17.7 / J ns
# on phase fill and 0.33 ns on GEMV whatever J is (on a 2-core Xeon), but each line
# holds J - 1 shift rows, which J = 8 keeps near one phase block at m = 10^4
_STRIDE = 8
# unit roundoff of float64, for the rounding term E of a line sup
_U = 2.0**-53


@dataclass(frozen=True)
class LineGrid:
    """Uniform t-grid on a vertical line Re s = sigma."""

    sigma: float
    t_min: float
    t_max: float
    step: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.sigma, self.t_min, self.t_max, self.step))):
            raise ValueError("grid values must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")
        if not 0 < self.step <= self.t_max - self.t_min:
            raise ValueError("need 0 < step <= t_max - t_min")

    def points(self, step: Optional[float] = None) -> np.ndarray:
        h = self.step if step is None else step
        n = int(round((self.t_max - self.t_min) / h))
        return self.t_min + (self.t_max - self.t_min) * np.arange(n + 1) / n


@dataclass(frozen=True)
class DirichletSeries:
    """Coefficients over a frequency, with an optional reference evaluator.

    ``reference``, when present, evaluates the limit/extension function f at
    points with Re s > 0 and must be finite there.  It takes a 1-D array of
    points and returns an array of the same shape.
    """

    freq: Frequency
    coeffs: np.ndarray
    reference: Optional[Callable] = None

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex, copy=True)
        if c.ndim != 1:
            raise ValueError("coefficients must be a 1-D sequence")
        if c.size != self.freq.M:
            raise ValueError(
                f"coefficient count {c.size} != frequency length {self.freq.M}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def M(self) -> int:
        return self.freq.M

    def abs_sum(self, sigma: float = 0.0, N: Optional[int] = None) -> float:
        """Triangle-inequality bound sum |a_n| e^{-lambda_n sigma}."""
        N = self.M if N is None else N
        return float(
            math.fsum(np.abs(self.coeffs[:N]) * np.exp(-self.freq.values[:N] * sigma))
        )


def _check_N(D: DirichletSeries, N: Optional[int]) -> int:
    N = D.M if N is None else int(N)
    if not 1 <= N <= D.M:
        raise ValueError(f"N={N} out of range [1, {D.M}]")
    return N


def evaluate(D: DirichletSeries, s: complex, N: Optional[int] = None) -> complex:
    """Partial sum S_N(D)(s) = sum_{n<=N} a_n e^{-lambda_n s}, summed in index order."""
    N = _check_N(D, N)
    # an overflow is rejected below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        terms = D.coeffs[:N] * np.exp(-D.freq.values[:N] * complex(s))
    return _ordered_sum(terms, f"S_N(s) is not finite at s = {complex(s)}")


def _ordered_sum(terms: np.ndarray, message: str) -> complex:
    """The sum of terms in index order; ValueError(message) if it is not finite."""
    total = 0j
    for t in terms:
        total += t
    if not cmath.isfinite(total):
        raise ValueError(message)
    return complex(total)


def _exp_block(z: np.ndarray, lam: np.ndarray, phase: np.ndarray) -> None:
    """Fill phase with exp(-outer(z, lam)) by the ufunc loops of np.exp(-np.outer(...)), in place."""
    np.multiply.outer(z, lam, out=phase)
    np.negative(phase, out=phase)
    np.exp(phase, out=phase)


def _line_block(t: np.ndarray, lam: np.ndarray, phase: np.ndarray) -> None:
    """Fill phase with exp(-i outer(t, lam)) for real t: cos and -sin in place.

    On Re z = 0 these are the bits of ``_exp_block`` at z = 1j * t, whose
    complex ``exp`` takes cos and sin of the same products."""
    np.multiply.outer(-t, lam, out=phase.imag)
    np.cos(phase.imag, out=phase.real)
    np.sin(phase.imag, out=phase.imag)


def _vertical_block(weight: np.ndarray, t: np.ndarray, lam: np.ndarray, phase: np.ndarray) -> None:
    """Fill phase with exp(-outer(x + i t, lam)) on one vertical line Re z = x:
    the line block, each entry's cos and sin times e^{-x lambda_n}.

    ``weight`` holds each e^{-x lambda_n} twice, (w_1, w_1, w_2, w_2, ...),
    from libm's exp; glibc's complex exp multiplies the same cos and sin by
    the same exp, so these are the bits of ``_exp_block`` at z = x + i t."""
    _line_block(t, lam, phase)
    flat = phase.view(float)
    np.multiply(flat, weight, out=flat)


def _block_rows(m: int) -> int:
    """Rows of a phase block over m >= 1 frequencies: at least two, so that a
    wide series is not summed on the one-row path, which doubles its block."""
    return max(2, _BLOCK_ENTRIES // m)


def _phase_blocks(z: np.ndarray, lam: np.ndarray, work: Callable, fill=_exp_block, rows=None) -> None:
    """Call work(offset, exp(-outer(z[offset:offset + rows], lam))) for every block of z.

    ``fill(z_block, lam, phase)`` may build another block in place, in the
    same complex buffer.  A block holds ``_block_rows(lam.size)`` rows unless
    ``rows`` says otherwise.  The blocks are striped over ``_WORKERS`` threads,
    the calling one included; a call with one block starts no thread.
    ``fill`` and ``work`` may run concurrently with themselves.  ``work`` may
    overwrite ``phase`` in place but must not keep it, since the next block
    reuses its buffer.  The first exception raised in any worker is re-raised
    here once every worker has stopped.
    """
    rows = _block_rows(lam.size) if rows is None else rows
    starts = range(0, z.size, rows)
    workers = max(1, min(_WORKERS, len(starts)))
    errors = []

    def stripe(w: int) -> None:
        try:
            buf = np.empty((min(rows, z.size), lam.size), dtype=complex)
            for lo in starts[w::workers]:
                if errors:
                    return
                phase = buf[: min(rows, z.size - lo)]
                fill(z[lo : lo + rows], lam, phase)
                work(lo, phase)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=stripe, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    stripe(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _phase_sum(z: np.ndarray, lam: np.ndarray, amps: list, fill=_exp_block) -> list:
    """sum_n amp_n e^{-lambda_n z} at every point of the 1-D array z, one row
    per amplitude vector of ``amps``, each over a prefix lam[:m] of lam.

    Each row owns its data: Perron's integrand multiplies an owned temporary
    in place, and a view would change the bits of ``perron eval``.  ``fill``
    replaces the phase block as in ``_phase_blocks``.
    """
    out = [np.empty(z.size, dtype=complex) for _ in amps]

    def gemv(lo: int, phase: np.ndarray) -> None:
        rows = phase.shape[0]
        if rows == 1:
            # numpy sums a one-row product as a dot, in another order than GEMV
            phase = np.repeat(phase, 2, axis=0)
        for row, a in zip(out, amps):
            row[lo : lo + rows] = (phase[:, : a.size] @ a)[:rows]

    _phase_blocks(z, lam, gemv, fill)
    return out


def _coarse(width: int, n: int) -> bool:
    """Whether a whole grid of n points over ``width`` frequencies takes the
    coarse pass: at least 2J terms and at least one block of fill."""
    return width >= 2 * _STRIDE and width * n >= _BLOCK_ENTRIES


def _reach(grid: LineGrid) -> float:
    """T = max(|t_min|, |t_max|) of the rounding terms."""
    return max(abs(grid.t_min), abs(grid.t_max))


def _round_error(reach: float, lip, cap, m):
    """E of the module docstring: of a line of m terms, or of every prefix
    elementwise when lip, cap and m are per-N arrays."""
    return 2.0 * _U * (reach * lip + (m + 8) * cap)


def _shift_error(reach: float, step: float, lip, cap, m):
    """E' of the module docstring, as ``_round_error`` takes its arguments."""
    return 2.0 * _U * ((reach + _STRIDE * step) * lip + (m + 12) * cap)


def _coarse_grid(grid: LineGrid, ts: np.ndarray, lam: np.ndarray) -> tuple:
    """The coarse pass over ts, the whole grid of ``grid``: the J - 1 shift
    rows e^{-i lambda s_j}, the centre mask (every J-th point and the last),
    each point's eta and Delta."""
    n = ts.size
    shifts = (grid.t_max - grid.t_min) / (n - 1) * np.arange(_STRIDE)
    block = np.empty((_STRIDE - 1, lam.size), dtype=complex)
    _line_block(shifts[1:], lam, block)
    offset = np.arange(n) % _STRIDE
    centre = offset == 0
    centre[-1] = True
    eta = np.abs(ts - ts[np.arange(n) - offset] - shifts[offset]) + 2.0 * _U * _reach(grid)
    return block, centre, eta, shifts[1]


def _partial_sup_profile(
    D: DirichletSeries, grid: LineGrid, coeffs: Optional[np.ndarray] = None
) -> np.ndarray:
    """Grid sup of |S_N(sigma + it)| for every N at once.

    Entry N-1 is the sup for the length-N partial sum, with the bits of
    ``np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)`` over the whole
    grid.  ``coeffs``, a 2-D stack of coefficient vectors over D's frequency,
    takes the place of D.coeffs: the result has one row of sups per vector,
    from one build of each phase block of the whole grid.  A single vector
    past the coarse pass's floors folds only the centres whole and each asked
    point over its prefix (the module docstring).  The products, sums and
    moduli are built in place, in the phase block itself for a single vector.
    """
    lam = D.freq.values
    m = lam.size
    w = np.exp(-lam * grid.sigma)
    amps = np.atleast_2d(D.coeffs if coeffs is None else coeffs) * w
    sups = np.zeros(amps.shape)
    lock = threading.Lock()
    ts = grid.points()

    def fold(phase, part, mag):
        # a column max is exact and order-free, so blocks may fold in any order
        width = phase.shape[1]
        for amp, sup in zip(amps, sups):
            np.multiply(phase, amp[:width], out=part)
            np.cumsum(part, axis=1, out=part)
            colmax = np.abs(part, out=mag).max(axis=0)
            with lock:
                np.maximum(sup[:width], colmax, out=sup[:width])

    def whole(_, phase):
        fold(phase, phase if coeffs is None else np.empty_like(phase), np.empty(phase.shape))

    # a stack's members would each run the bound pass over shared centres,
    # which measured slower than folding the whole grid once for all of them
    if coeffs is not None or not _coarse(m, ts.size):
        _phase_blocks(ts, lam, whole, _line_block)
        return sups[0] if coeffs is None else sups
    block, centre, eta, step = _coarse_grid(grid, ts, lam)
    at = np.flatnonzero(centre)
    _phase_blocks(ts[at], lam, whole, _line_block)
    (amp,), (best,) = amps, sups.copy()
    # the shifted rows, and per N u (1 + 1e-12) + 2E_N less |a~| (1 + 1e-12)
    shifted = np.multiply(block, amp, out=block)
    mods = np.abs(D.coeffs) * w
    cap, lip, count = np.cumsum(mods), np.cumsum(mods * lam), np.arange(1, m + 1)
    reach = _reach(grid)
    slack = (_shift_error(reach, step, lip, cap, count) + lip * eta.max()) * (1.0 + 1e-12)
    slack += 2.0 * _round_error(reach, lip, cap, count)

    def bounded(lo, phase):
        part, mag = np.empty_like(phase), np.empty(phase.shape)
        # K_i by shift and centre: the largest N that asks for the point
        asks = np.zeros((_STRIDE - 1, phase.shape[0]), dtype=np.intp)
        for K, row in zip(asks, shifted):
            np.multiply(phase, row, out=part)
            np.cumsum(part, axis=1, out=part)
            np.abs(part, out=mag)
            mag *= 1.0 + 1e-12
            mag += slack
            # a nan bound proves nothing, so its entry asks
            i, N = np.divmod(np.flatnonzero(~(mag < best)), m)
            np.maximum.at(K, i, N + 1)
        points = at[lo : lo + phase.shape[0]] + np.arange(1, _STRIDE)[:, None]
        asks[points >= ts.size - 1] = 0
        ks, points = asks[asks > 0], points[asks > 0]
        # widest prefix first; a chunk is filled over its first prefix, so it
        # ends where the prefixes halve, or where the buffer is full
        order = np.argsort(-ks, kind="stable")
        ks, points = ks[order], points[order]
        start = 0
        while start < ks.size:
            width = int(ks[start])
            stop = min(start + part.size // width, np.searchsorted(-ks, -((width + 1) // 2), "right"))
            shape = (stop - start, width)
            rows, moduli = (buf.ravel()[: math.prod(shape)].reshape(shape) for buf in (part, mag))
            _line_block(ts[points[start:stop]], lam[:width], rows)
            fold(rows, rows, moduli)
            start = stop

    _phase_blocks(ts[at], lam, bounded, _line_block, _block_rows(2 * m))
    return sups[0]


def _eval_line(D: DirichletSeries, amps: list, ts: np.ndarray, N: Optional[int] = None) -> list:
    """sum_n amp_n e^{-i t lambda_n} at every t of ts, one row per amplitude
    vector of ``amps``, each over a prefix of lambda_1..lambda_N, from one
    build of the phase rows."""
    N = _check_N(D, N)
    return _phase_sum(ts, D.freq.values[:N], amps, _line_block)


def _eval_points(D: DirichletSeries, s) -> Union[complex, np.ndarray]:
    """The full sum D(s) at a scalar s, or at every point of a 1-D array s.

    Points on one vertical line Re s = x >= 0 take ``_vertical_block`` past
    2J terms; other points, and fewer terms, take the complex exp."""
    z = np.asarray(s, dtype=complex)
    flat, lam = z.ravel(), D.freq.values
    x = flat.real[0] if flat.size else math.nan
    if lam.size >= 2 * _STRIDE and 0.0 <= x < math.inf and np.all(flat.real == x):
        # libm's exp, as the complex exp takes it at a zero imaginary part
        weight = np.repeat(np.exp(-x * lam + 0j).real, 2)
        (out,) = _phase_sum(flat.imag, lam, [D.coeffs], partial(_vertical_block, weight))
    else:
        (out,) = _phase_sum(flat, lam, [D.coeffs])
    return complex(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True)
class SupReport:
    """Grid maximization on one line: lower bound plus certificate."""

    value: float  # grid max; a lower bound of the windowed sup
    certified_upper: float  # covers the sampled t-window
    t_at_max: float
    step: float
    rounds: int


def _refine_max(rows: Callable, count: int, grid: LineGrid, tol: float, max_rounds: int) -> list:
    """Grid max of ``count`` functions over grid's t-window (grid.sigma is not read).

    Each round halves the step and calls ``rows(ts, refined, best)`` with the
    round's grid ts, whether it is a true refinement of the previous grid, and
    each live function's max so far by function index, in index order.
    ``rows`` returns (points, values): the points of ts it evaluated, in
    increasing order, and the values there, one row per live function; a
    point it leaves out must be provably below one of those values or below
    ``best``.  Each function keeps only its max and the first t where it
    occurs.  A function stops when a round raises its observed max by at most
    ``tol``, relative, or after ``max_rounds`` rounds: that limits the change
    between two grids, not the distance to the true sup.  Returns one
    (max, t_at_max, largest spacing, step, rounds) per function.
    """
    best = [-math.inf] * count
    t_best = [grid.t_min] * count
    out = [None] * count
    live = list(range(count))
    step = grid.step
    rounds = 0
    old = None
    while live:
        ts = grid.points(step)
        rounds += 1
        refined = old is not None and ts.size == 2 * old.size - 1 and np.array_equal(ts[::2], old)
        prev = list(best)
        fresh, found = rows(ts, refined, {j: best[j] for j in live})
        for j, vals in zip(live, found):
            if vals.size:
                i = int(np.argmax(vals))
                if vals[i] > best[j]:
                    best[j], t_best[j] = float(vals[i]), float(fresh[i])
        for j in list(live):
            converged = rounds > 1 and abs(best[j] - prev[j]) <= tol * max(best[j], 1e-300)
            if converged or rounds >= max_rounds:
                out[j] = (best[j], t_best[j], float(np.max(np.diff(ts))), step, rounds)
                live.remove(j)
        old = ts
        step /= 2.0
    return out


def _line_terms(lam: np.ndarray, c: np.ndarray, sigma: float) -> tuple:
    """Amplitudes c_n e^{-lambda_n sigma}, cap sum |c_n| e^{-lambda_n sigma} and
    Lipschitz constant sum |c_n| lambda_n e^{-lambda_n sigma} of a line."""
    w = np.exp(-lam * sigma)
    mod = np.abs(c)
    return c * w, math.fsum(mod * w), math.fsum(mod * lam * w)


def _refine_lines(
    D: DirichletSeries,
    lines: Sequence[tuple],
    grid: LineGrid,
    tol_sup: float,
    max_rounds: int = _MAX_ROUNDS,
) -> list:
    """One SupReport per line over grid's t-window, refined by ``_refine_max``.

    A line (c, sigma) is sum_n c_n e^{-lambda_n s}, with c over D's first
    len(c) frequencies, on Re s = sigma.  A round builds the phase rows of its
    points once, over the widest line still refining, and skips points by the
    rule of the module docstring.
    """
    lam = D.freq.values
    terms = [_line_terms(lam[: len(c)], c, sigma) for c, sigma in lines]
    reach = _reach(grid)
    bounds = [(lip, _round_error(reach, lip, cap, amp.size)) for amp, cap, lip in terms]
    # each line's u over the last grid: its |value| where evaluated, else its bound
    upper = {}

    def rows(ts, refined, best):
        live = list(best)
        amps = [terms[j][0] for j in live]
        width = max(a.size for a in amps)
        n = ts.size
        if refined:
            # the neighbours of each midpoint anchor it; no centre is evaluated
            old, ts = ts[::2], ts[1::2]
            d_l, d_r = ts - old[:-1], old[1:] - ts
            centre = np.zeros(ts.size, dtype=bool)
            us = [np.minimum(upper[j][:-1] + bounds[j][0] * d_l, upper[j][1:] + bounds[j][0] * d_r) for j in live]
            tops = list(best.values())
        elif not _coarse(width, n):
            vals = [np.abs(row) for row in _eval_line(D, amps, ts, width)]
            upper.update(zip(live, vals))
            return ts, vals
        else:
            # the shifted centres of the coarse pass anchor every point
            block, centre, eta, step = _coarse_grid(grid, ts, lam[:width])
            rows_in = []
            for k, amp in enumerate(amps):
                # the last line scales the shift rows in place, the others a copy
                scaled = block[:, : amp.size]
                rows_in += [amp, *np.multiply(scaled, amp, out=scaled if k == len(amps) - 1 else None)]
            near = _eval_line(D, rows_in, ts[centre], width)
            us, tops = [], []
            for k, j in enumerate(live):
                amp, cap, lip = terms[j]
                moduli = np.abs(near[k * _STRIDE : (k + 1) * _STRIDE])
                err_shift = _shift_error(reach, step, lip, cap, amp.size)
                # |value| at each multiple of J, and |shifted value| at the points after it
                u = moduli[:, : -(-n // _STRIDE)].T.ravel()[:n] + err_shift + lip * eta
                u[centre] = moduli[0]
                us.append(u)
                tops.append(max(best[j], moduli[0].max()))
        ask = centre.copy()
        for j, u, top in zip(live, us, tops):
            # a nan bound proves nothing, so its point is asked for
            ask |= ~(u * (1.0 + 1e-12) + 2.0 * bounds[j][1] < top)
        extra = ask & ~centre
        vals = [np.abs(row) for row in _eval_line(D, amps, ts[extra], width)]
        for u, v in zip(us, vals):
            u[extra] = v
        for j, u in zip(live, us):
            if refined:
                known, upper[j] = upper[j], np.empty(n)
                upper[j][::2], upper[j][1::2] = known, u
            else:
                upper[j] = u
        # a refinement evaluates no centre, so its asked points are the extra ones
        return ts[ask], vals if refined else [u[ask] for u in us]

    results = _refine_max(rows, len(terms), grid, tol_sup, max_rounds)
    # the cap and the grid max can coincide up to summation order; the
    # certificate must never fall below the observed lower bound
    return [
        SupReport(best, max(min(best + lip * spacing / 2.0 + 2.0 * err, cap), best), t_best, step, rounds)
        for (_, cap, _), (lip, err), (best, t_best, spacing, step, rounds) in zip(terms, bounds, results)
    ]


def line_sup_report(
    D: DirichletSeries,
    N: Optional[int],
    grid: LineGrid,
    tol_sup: float = 1e-4,
    max_rounds: int = _MAX_ROUNDS,
) -> SupReport:
    """Refine the grid (halving the step) until a round raises the max by at
    most ``tol_sup``, relative, or ``max_rounds`` rounds have run.

    The certified upper bound, grid max + Lipschitz * h / 2 + 2E with h the
    final round's largest spacing (``step`` is the nominal one) and E the
    rounding term of the module docstring, is capped by the coefficient-sum
    bound; it covers [t_min, t_max] on this line only.
    """
    return _refine_lines(D, [(D.coeffs[: _check_N(D, N)], grid.sigma)], grid, tol_sup, max_rounds)[0]


@dataclass(frozen=True)
class NormReport:
    """Half-plane sup-norm estimate over sampled vertical lines.

    ``certified_upper`` bounds only the sampled lines and t-window, not ||D||:
    ``series norm --kind log --n 10 --coeffs seeded-normal --seed 3`` certifies
    10.7922, and ``series sup --grid-t-max 10000`` finds 12.2393 at t = 5823.025.
    """

    estimate: float  # max over sampled lines of the grid sups (lower-bound flavor)
    certified_upper: float  # max over sampled lines of their certified uppers
    sigma_levels: tuple
    line_values: tuple


def halfplane_norm(
    D: DirichletSeries,
    grid: LineGrid = LineGrid(1e-3, 0.0, 100.0, 0.05),
    levels: int = 8,
    tol_sup: float = 1e-4,
) -> NormReport:
    """Windowed sup of |D| over the sampled lines Re s = grid.sigma * 2^j, over grid's t-window.

    Line sups of a bounded Dirichlet polynomial are nonincreasing in sigma
    (log-convexity plus decay at +inf), so the smallest sampled line
    dominates; the doubling ladder is kept as a cross-check and for reports.
    Neither number covers the strip 0 <= Re s < grid.sigma or t outside the
    window, so neither bounds ||D|| (see ``NormReport``).
    """
    if levels < 1:
        raise ValueError("need levels >= 1")
    # 2.0**j overflows from j = 1024 on
    if levels > 1024 or not math.isfinite(grid.sigma * 2.0 ** (levels - 1)):
        raise ValueError(f"the top level grid.sigma * 2^{levels - 1} is not finite")
    sigmas = tuple(grid.sigma * 2.0**j for j in range(levels))
    reports = _refine_lines(D, [(D.coeffs, sg) for sg in sigmas], grid, tol_sup)
    sups = tuple(rep.value for rep in reports)
    return NormReport(max(sups), max(rep.certified_upper for rep in reports), sigmas, sups)


def translate(D: DirichletSeries, s0: complex) -> DirichletSeries:
    """The translated series with coefficients a_n e^{-lambda_n s0}.

    The frequency is unchanged; a reference f becomes s -> f(s + s0).
    """
    s0 = complex(s0)
    # an overflow leaves non-finite coefficients, which DirichletSeries rejects
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = D.coeffs * np.exp(-D.freq.values * s0)
    ref = None
    if D.reference is not None:
        base = D.reference

        def ref(s, _f=base, _s0=s0):
            return _f(np.asarray(s, dtype=complex) + _s0)

    return DirichletSeries(D.freq, coeffs, ref)


def _call_reference(f: Callable, s_values: np.ndarray) -> np.ndarray:
    """Evaluate a reference on a 1-D array of points, one value per point."""
    out = np.asarray(f(s_values), dtype=complex)
    if out.shape != s_values.shape:
        raise ValueError(f"reference returned shape {out.shape} for points of shape {s_values.shape}")
    return out


def with_self_reference(D: DirichletSeries) -> DirichletSeries:
    """Attach the polynomial's own full sum as its reference evaluator.

    A finite Dirichlet polynomial is its own limit function, so this is the
    canonical reference for identity and recovery experiments.
    """
    return DirichletSeries(D.freq, D.coeffs, partial(_eval_points, D))


def coefficient_recover(
    D: DirichletSeries,
    n: int,
    sigma: float,
    T: float,
    step: float,
) -> complex:
    """Mean-value coefficient recovery from the reference evaluator.

    Trapezoidal approximation of (1/2T) int_{-T}^{T} f(sigma+it)
    e^{(sigma+it) lambda_n} dt; for a finite polynomial with pairwise distinct
    frequencies the cross terms decay like 1/T, so this converges to a_n.
    """
    if D.reference is None:
        raise ValueError("coefficient recovery needs a reference evaluator")
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    if not 1 <= n <= D.M:
        raise ValueError(f"n={n} out of range [1, {D.M}]")
    lam = float(D.freq.values[n - 1])
    ts = LineGrid(sigma, -T, T, step).points()
    s = sigma + 1j * ts
    # a named operand keeps numpy from multiplying in place (which can round differently)
    fvals = _call_reference(D.reference, s)
    # an overflow is rejected below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fvals * np.exp(s * lam)
        got = complex(_trapezoid(vals, ts) / (2 * T))
    if not cmath.isfinite(got):
        raise ValueError(f"the recovered coefficient is not finite at sigma = {sigma}")
    return got


# ---------------------------------------------------------------------------
# file formats


def read_coefficients_csv(path) -> np.ndarray:
    """Read coefficients from UTF-8 CSV (a byte-order mark is allowed) with header ``index,re,im``."""
    name = str(path)
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8-sig"))))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows or [c.strip() for c in rows[0]] != ["index", "re", "im"]:
        raise ValueError(f"{name}: expected header 'index,re,im'")
    coeffs = []
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != 3:
            raise ValueError(f"{name}: row {k} must have 3 fields")
        where = f"{name}: row {k}"
        try:
            idx = int(row[0])
        except ValueError:
            raise ValueError(f"{where}: index is not an integer: {row[0]!r}") from None
        if idx != k:
            raise ValueError(f"{where} has index {idx}, expected {k}")
        coeffs.append(_finite_number(row[1], where) + 1j * _finite_number(row[2], where))
    if not coeffs:
        raise ValueError(f"{name}: no coefficient rows")
    return np.asarray(coeffs, dtype=complex)


def write_coefficients_csv(path, coeffs: Sequence[complex]) -> None:
    """Write coefficients as CSV with header ``index,re,im``."""
    with open(path, "w", newline="") as fp:
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(["index", "re", "im"])
        for k, c in enumerate(np.asarray(coeffs, dtype=complex), start=1):
            w.writerow([k, repr(float(c.real)), repr(float(c.imag))])


#: Builtin coefficient tags for descriptors and the command line.
_COEFF_TAGS = ("ones", "alternating", "inverse-square")
_TAG_NAMES = ", ".join(_COEFF_TAGS + ("seeded-normal[:SEED]",))


def _is_coeff_tag(spec) -> bool:
    """Whether ``spec`` is a builtin coefficient tag; a SEED is decimal digits."""
    head, colon, seed = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    return spec in _COEFF_TAGS or head == "seeded-normal" and (not colon or seed.isdecimal())


def builtin_coefficients(tag: str, M: int, seed: Optional[int] = None) -> np.ndarray:
    """Coefficient families by tag: ones, alternating, inverse-square,
    or ``seeded-normal[:SEED]`` (complex standard normal, reproducible)."""
    if not _is_coeff_tag(tag):
        raise ValueError(f"unknown coefficient tag {tag!r}; expected one of {_TAG_NAMES}")
    if tag == "ones":
        return np.ones(M, dtype=complex)
    if tag == "alternating":
        return np.asarray([(-1.0) ** n for n in range(1, M + 1)], dtype=complex)
    if tag == "inverse-square":
        return np.asarray([1.0 / n**2 for n in range(1, M + 1)], dtype=complex)
    seed = int(tag.partition(":")[2]) if ":" in tag else seed
    if seed is None:
        raise ValueError("seeded-normal needs a seed (tag suffix or --seed)")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


def _frequency_from(spec, m: Optional[int] = None) -> Frequency:
    """The frequency part of a descriptor; ``m`` is the length of its
    coefficients file, if it has one."""
    if isinstance(spec, str) and spec in BUILTIN_KINDS:
        spec = {"kind": spec}
    if isinstance(spec, (str, Path)):
        return read_frequency_file(spec)
    keys = {"kind": str, "m": int, "params": (list, tuple, type(None))}
    typed = isinstance(spec, dict) and all(isinstance(v, keys.get(k, ())) for k, v in spec.items())
    if not typed or "kind" not in spec:
        raise ValueError(f"frequency must be a kind, a file path or {{'kind', 'm', 'params'}}, not {spec!r}")
    m, params = spec.get("m", m), spec.get("params")
    if m is None:
        raise ValueError("a frequency tag needs a coefficients file, or an 'm', to take its length from")
    numbers = all(isinstance(v, (int, float)) for v in params or ())
    if params is not None and (spec["kind"] != "custom-from-list" or not numbers):
        raise ValueError("'params' are numbers, and only the custom-from-list kind reads them")
    return make_frequency(spec["kind"], m, params)


def _read_descriptor(path):
    """The JSON value in a descriptor file (UTF-8; a byte-order mark is allowed)."""
    return json.loads(Path(path).read_text(encoding="utf-8-sig"))


def series_from_descriptor(
    descriptor: Union[dict, str, Path],
    seed: Optional[int] = None,
) -> DirichletSeries:
    """Build a series from a descriptor, or from the JSON file that holds one.

    The one descriptor shape is ``{"frequency": F, "coefficients": C}``.  F is a
    kind of ``BUILTIN_KINDS``, ``{"kind", "m", "params"}`` (``"params"`` only
    for ``custom-from-list``) or a file of one value per line; C is ``ones``,
    ``alternating``, ``inverse-square``, ``seeded-normal[:SEED]`` (else
    ``seed``) or an ``index,re,im`` CSV file.  A ``Path``, or a string that is
    no builtin tag, names a file; relative paths resolve from the working
    directory.  A kind without ``"m"`` takes its length from the coefficients
    file.  Each part has exactly one source, here as on the command line.
    """
    if isinstance(descriptor, (str, Path)):
        descriptor = _read_descriptor(descriptor)
    shaped = isinstance(descriptor, dict) and set(descriptor) == {"frequency", "coefficients"}
    if not shaped or not isinstance(descriptor["coefficients"], (str, Path)):
        raise ValueError("a descriptor is {'frequency': ..., 'coefficients': <tag or path>} and nothing else")
    cspec = descriptor["coefficients"]
    tag = _is_coeff_tag(cspec)
    if isinstance(cspec, str) and not tag and not Path(cspec).exists():
        raise ValueError(f"coefficients {cspec!r} are neither a file nor a builtin tag ({_TAG_NAMES})")
    coeffs = None if tag else read_coefficients_csv(cspec)
    freq = _frequency_from(descriptor["frequency"], None if tag else len(coeffs))
    return DirichletSeries(freq, builtin_coefficients(cspec, freq.M, seed) if tag else coeffs)
