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
gives at z = 1j * t, at about three quarters of its cost.  General points
(Perron, coefficient recovery, the self reference) keep the complex exp of
``_exp_block``: split the same way, its real part would run numpy's vectorized
float exp, whose bits differ from the complex exp's.  The blocks of one call
are striped over ``_WORKERS`` threads, one per core the process may run on
(at most 8): worker w builds blocks w, w + W, ... in one reused buffer, and
the calling thread is worker 0.
numpy releases the interpreter lock inside its ufuncs and the GEMV, so the
workers run in parallel.  This is bit-safe: a block is built by the same
ufunc loops whatever its rows, and each value is one GEMV row of a block of at
least two rows (a one-row block is doubled), so no value depends on the block
it falls in or the worker that built it.  ``_phase_sum`` gives one owned row
per amplitude vector of its list.  The vectors share each phase row, and one
over a prefix lambda_1..lambda_m runs its GEMV on the block's first m columns,
which gives the bits of a block built over the prefix alone.  The partial-sum
fold ``_partial_sup_profile`` folds the same blocks in place into the grid sup
of |S_N| for every N, which the sigma_u and Delta estimators of ``bounds``
read.
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
(``_refine_max``), which evaluates each point at most once: a round asks
only for the points the previous round lacked when its grid is a true
refinement, that is when the new grid's even points are the previous grid
bit for bit.  ``LineGrid`` rounds W/h, so a step that does not divide the
window can give another size, and then every point is evaluated afresh.
A line sup also skips each new midpoint that no live line can raise above
its max.  With u the computed |value| at an evaluated point, or the bound at
a skipped one, a midpoint at distances d_l, d_r from its neighbours is asked
for only when min(u_l + L d_l, u_r + L d_r) (1 + 1e-12) + 2E reaches some
live line's max before the round, L being that line's Lipschitz constant.
A skipped point is bounded, not evaluated; its computed value lies below
that max, so no result, round or step changes.  Hardy's sup evaluates every
point.

E bounds the distance between a computed |value| and the exact modulus, on
a line of m terms with cap sum |c_n| e^{-lambda_n sigma}, over a window with
T = max(|t_min|, |t_max|):

    E = 2u (T L + (m + 8) cap),    u = 2^-53.

T L covers the rounding of each t lambda_n; (m + 8) cap covers about one ulp
in each libm cos and sin, the complex products, the m-term sum in any order
(gamma_m) and the abs; the factor 2 is a margin.  A skip needs 2E, one E for
the midpoint and one for its neighbour; the certificate adds the same 2E.
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

from .frequency import BUILTIN_KINDS, Frequency, make_frequency, read_frequency_file

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


def _block_rows(m: int) -> int:
    """Rows of a phase block over m >= 1 frequencies: at least two, so that a
    wide series is not summed on the one-row path, which doubles its block."""
    return max(2, _BLOCK_ENTRIES // m)


def _phase_blocks(z: np.ndarray, lam: np.ndarray, work: Callable, fill=_exp_block) -> None:
    """Call work(offset, exp(-outer(z[offset:offset + rows], lam))) for every block of z.

    ``fill(z_block, lam, phase)`` may build another block in place, in the
    same complex buffer.  The blocks are striped over ``_WORKERS`` threads,
    the calling one included; a call with one block starts no thread.
    ``fill`` and ``work`` may run concurrently with themselves.  ``work`` may
    overwrite ``phase`` in place but must not keep it, since the next block
    reuses its buffer.  The first exception raised in any worker is re-raised
    here once every worker has stopped.
    """
    rows = _block_rows(lam.size)
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


def _partial_sup_profile(
    D: DirichletSeries, grid: LineGrid, coeffs: Optional[np.ndarray] = None
) -> np.ndarray:
    """Grid sup of |S_N(sigma + it)| for every N at once.

    One pass over the grid with a cumulative sum along the coefficient axis;
    entry N-1 is the sup for the length-N partial sum.  ``coeffs``, a 2-D
    stack of coefficient vectors over D's frequency, takes the place of
    D.coeffs: the result has one row of sups per vector, from one build of
    each phase block.

    The products, their cumulative sum and its moduli are built in place, by
    the same ufunc loops and in the same order as
    ``np.abs(np.cumsum(phase * amp, axis=1)).max(axis=0)``.  Per worker this
    holds the phase block plus one float block of moduli, taken afresh for
    each block; a single vector folds in the phase block itself, while a
    stack, whose members all read the same block, adds one complex block.
    """
    lam = D.freq.values
    amps = np.atleast_2d(D.coeffs if coeffs is None else coeffs) * np.exp(-lam * grid.sigma)
    sups = np.zeros(amps.shape)
    lock = threading.Lock()

    def fold(_, phase):
        mag = np.empty(phase.shape)
        part = phase if coeffs is None else np.empty_like(phase)
        for amp, sup in zip(amps, sups):
            np.multiply(phase, amp, out=part)
            np.cumsum(part, axis=1, out=part)
            colmax = np.abs(part, out=mag).max(axis=0)
            # a column max is exact and order-free, so blocks may fold in any order
            with lock:
                np.maximum(sup, colmax, out=sup)

    _phase_blocks(grid.points(), lam, fold, _line_block)
    return sups[0] if coeffs is None else sups


def _eval_line(D: DirichletSeries, amps: list, ts: np.ndarray, N: Optional[int] = None) -> list:
    """sum_n amp_n e^{-i t lambda_n} at every t of ts, one row per amplitude
    vector of ``amps``, each over a prefix of lambda_1..lambda_N, from one
    build of the phase rows."""
    N = _check_N(D, N)
    return _phase_sum(ts, D.freq.values[:N], amps, _line_block)


def _eval_points(D: DirichletSeries, s) -> Union[complex, np.ndarray]:
    """The full sum D(s) at a scalar s, or at every point of a 1-D array s."""
    z = np.asarray(s, dtype=complex)
    (out,) = _phase_sum(z.ravel(), D.freq.values, [D.coeffs])
    return complex(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True)
class SupReport:
    """Grid maximization on one line: lower bound plus certificate."""

    value: float  # grid max; a lower bound of the windowed sup
    certified_upper: float  # covers the sampled t-window
    t_at_max: float
    step: float
    rounds: int


def _refine_max(
    rows: Callable, count: int, grid: LineGrid, tol: float, max_rounds: int, bounds: Optional[list] = None
) -> list:
    """Grid max of ``count`` functions over grid's t-window (grid.sigma is not read).

    ``rows(ts, live)`` gives the values at ts of the functions indexed by
    ``live``, one row each.  Each round halves the step and asks only for the
    points the previous grid lacked (all points when the grid is not a true
    refinement); each function keeps only its max and the first t where it
    occurs.  A function stops when a round raises its observed max by at most
    ``tol``, relative, or after ``max_rounds`` rounds: that limits the change
    between two grids, not the distance to the true sup.  Returns one
    (max, t_at_max, largest spacing, step, rounds) per function.

    ``bounds``, one (Lipschitz constant L, rounding term E) pair per
    function, or None, lets a true refinement skip points: each live
    function keeps an upper bound u at every grid point, and a midpoint is
    asked for only when min(u_l + L d_l, u_r + L d_r) (1 + 1e-12) + 2E
    reaches some live function's max.  A skipped point is bounded, not
    evaluated (see the module docstring).
    """
    best = [-math.inf] * count
    t_best = [grid.t_min] * count
    upper = [None] * count
    out = [None] * count
    live = list(range(count))
    step = grid.step
    rounds = 0
    old = None
    while live:
        ts = grid.points(step)
        rounds += 1
        refined = old is not None and ts.size == 2 * old.size - 1 and np.array_equal(ts[::2], old)
        fresh = ts[1::2] if refined else ts
        mids = {}
        if refined and bounds is not None:
            d_l, d_r = fresh - old[:-1], old[1:] - fresh
            ask = np.zeros(fresh.size, dtype=bool)
            for j in live:
                lip, err = bounds[j]
                mids[j] = np.minimum(upper[j][:-1] + lip * d_l, upper[j][1:] + lip * d_r)
                # a nan bound proves nothing, so its point is asked for
                ask |= ~(mids[j] * (1.0 + 1e-12) + 2.0 * err < best[j])
            fresh = fresh[ask]
        prev = list(best)
        for j, vals in zip(live, rows(fresh, live)):
            if vals.size:
                i = int(np.argmax(vals))
                if vals[i] > best[j]:
                    best[j], t_best[j] = float(vals[i]), float(fresh[i])
            if j in mids:
                mids[j][ask] = vals
                known, upper[j] = upper[j], np.empty(ts.size)
                upper[j][::2], upper[j][1::2] = known, mids[j]
            else:
                upper[j] = vals
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
    points once, over the widest line still refining.
    """
    terms = [_line_terms(D.freq.values[: len(c)], c, sigma) for c, sigma in lines]
    reach = max(abs(grid.t_min), abs(grid.t_max))
    bounds = [(lip, 2.0 * _U * (reach * lip + (amp.size + 8) * cap)) for amp, cap, lip in terms]

    def rows(ts, live):
        amps = [terms[j][0] for j in live]
        return [np.abs(row) for row in _eval_line(D, amps, ts, max(a.size for a in amps))]

    results = _refine_max(rows, len(terms), grid, tol_sup, max_rounds, bounds)
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
        idx = int(row[0])
        if idx != k:
            raise ValueError(f"{name}: row {k} has index {idx}, expected {k}")
        coeffs.append(float(row[1]) + 1j * float(row[2]))
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
