"""Dirichlet series and polynomials: evaluation and sup norms on lines.

A series is a frequency plus complex coefficients, D(s) = sum a_n e^{-lambda_n s},
optionally carrying a closed-form reference evaluator for its limit function f
on the open right half-plane.

Sup norms on vertical lines are approximated by grid maximization.  Any grid
value is a lower bound of the true sup.  Where an inequality needs the norm on
its large side, use the certified upper bound: partial sums are Lipschitz in t
with constant sum |a_n| lambda_n e^{-lambda_n sigma}, so

    sup over the covered t-window <= grid max + Lipschitz * step / 2,

capped by the triangle-inequality bound sum |a_n| e^{-lambda_n sigma}, where
step is the largest spacing actually sampled.  The certificate covers the
sampled window, which the callers choose.

Every sum_n amp_n e^{-lambda_n z} over many points z is built from
``_phase_blocks``: the phase matrix exp(-outer(z, lambda)) in blocks of at most
4096 points and 2^18 entries (4 MiB), whatever M is.  The blocks of one call
are striped over ``_WORKERS`` threads, one per core the process may run on (at
most 8): worker w builds blocks w, w + W, ... in one reused buffer, and the
calling thread is worker 0.  numpy releases the interpreter lock inside
``exp`` and the GEMV, so the workers run in parallel.  This is bit-safe: a
block is built by the same ufunc loops as ``np.exp(-np.outer(z, lambda))``,
and each value is one GEMV row of a block of at least two rows (a one-row
block is doubled), so no value depends on the block it falls in or the worker
that built it.  Several amplitude vectors (lines Re s = sigma, members of a
family) share one phase row.

Line sups refine one t-window for all their lines together (``_refine_lines``):
a round builds phase rows only for points the previous round lacked, and each
line keeps its own |values|.  Rows are reused only on a true refinement, when
the new grid's even points are the previous grid bit for bit; ``LineGrid``
rounds W/h, so a step that does not divide the window can give another size,
and then every point is evaluated afresh.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import threading
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .frequency import Frequency, make_frequency, read_frequency_file

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
_BLOCK_POINTS = 4096
_BLOCK_ENTRIES = 1 << 18
# at most 8 blocks in flight keeps the phase memory within 32 MiB
_WORKERS = min(
    8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_MAX_ROUNDS = 10


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

    def lipschitz(self, sigma: float, N: Optional[int] = None) -> float:
        """Lipschitz constant in t on the line Re s = sigma."""
        N = self.M if N is None else N
        lam = self.freq.values[:N]
        return float(math.fsum(np.abs(self.coeffs[:N]) * lam * np.exp(-lam * sigma)))


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
    total = 0j
    for t in terms:
        total += t
    if not cmath.isfinite(total):
        raise ValueError(f"S_N(s) is not finite at s = {complex(s)}")
    return complex(total)


def _phase_blocks(z: np.ndarray, lam: np.ndarray, work: Callable) -> None:
    """Call work(offset, exp(-outer(z[offset:offset + rows], lam))) for every block of z.

    The blocks are striped over ``_WORKERS`` threads, the calling one included;
    a call with one block starts no thread.  ``work`` may run concurrently
    with itself and must not keep ``phase``, whose buffer the next block reuses.
    The first exception raised in any worker is re-raised here once every
    worker has stopped.
    """
    rows = max(1, min(_BLOCK_POINTS, _BLOCK_ENTRIES // max(1, lam.size)))
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
                # the ufunc loops of np.exp(-np.outer(...)), in place
                np.multiply.outer(z[lo : lo + rows], lam, out=phase)
                np.negative(phase, out=phase)
                np.exp(phase, out=phase)
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


def _phase_sum(z: np.ndarray, lam: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """sum_n amp_n e^{-lambda_n z} at every point of the 1-D array z.

    ``amp`` is one amplitude vector, or a 2-D stack of them that shares each
    phase block; the result has one row per stacked vector.
    """
    out = np.empty(amp.shape[:-1] + (z.size,), dtype=complex)

    def gemv(lo: int, phase: np.ndarray) -> None:
        rows = phase.shape[0]
        if rows == 1:
            # numpy sums a one-row product as a dot, in another order than GEMV
            phase = np.repeat(phase, 2, axis=0)
        for k in np.ndindex(amp.shape[:-1]):
            out[k][lo : lo + rows] = (phase @ amp[k])[:rows]

    _phase_blocks(z, lam, gemv)
    return out


def _eval_line(D: DirichletSeries, sigma, ts: np.ndarray, N: Optional[int] = None) -> np.ndarray:
    """Partial sum S_N(D)(sigma + it) at every t of ts.

    A sequence of sigma gives one row per sigma, from one build of the phase rows.
    """
    N = _check_N(D, N)
    lam = D.freq.values[:N]
    amps = [D.coeffs[:N] * np.exp(-lam * sg) for sg in np.ravel(sigma)]
    return _phase_sum(1j * ts, lam, amps[0] if np.ndim(sigma) == 0 else np.array(amps))


def _eval_points(D: DirichletSeries, s) -> Union[complex, np.ndarray]:
    """The full sum D(s) at a scalar s, or at every point of a 1-D array s."""
    z = np.asarray(s, dtype=complex)
    out = _phase_sum(z.ravel(), D.freq.values, D.coeffs)
    return complex(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True)
class SupReport:
    """Grid maximization on one line: lower bound plus certificate."""

    value: float  # grid max; a lower bound of the windowed sup
    certified_upper: float  # covers the sampled t-window
    t_at_max: float
    step: float
    rounds: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "certifiedUpper": self.certified_upper,
            "tAtMax": self.t_at_max,
            "step": self.step,
            "rounds": self.rounds,
        }


def _refine_lines(
    D: DirichletSeries,
    N: int,
    grid: LineGrid,
    sigmas: Sequence[float],
    tol_sup: float,
    max_rounds: int,
) -> list:
    """One SupReport per line Re s = sigma of ``sigmas`` over grid's t-window
    (grid.sigma is not read).

    All lines start at grid.step and halve it together.  A round evaluates only
    the points the previous round lacked (every point when the grid is not a
    true refinement) for the lines still refining; each line keeps its own
    |values|, first-index argmax and convergence test, and leaves once it
    stops.
    """
    best = [-math.inf] * len(sigmas)
    t_best = [grid.t_min] * len(sigmas)
    prev = [None] * len(sigmas)
    vals = [None] * len(sigmas)  # |S_N| on the current grid, per refining line
    reports = [None] * len(sigmas)
    live = list(range(len(sigmas)))
    step = grid.step
    rounds = 0
    old = None
    while live:
        ts = grid.points(step)
        rounds += 1
        live_sigmas = [sigmas[j] for j in live]
        if old is not None and ts.size == 2 * old.size - 1 and np.array_equal(ts[::2], old):
            fresh = np.abs(_eval_line(D, live_sigmas, ts[1::2], N))
            for j, mid in zip(live, fresh):
                full = np.empty(ts.size)
                full[::2], full[1::2] = vals[j], mid
                vals[j] = full
        else:
            for j, row in zip(live, np.abs(_eval_line(D, live_sigmas, ts, N))):
                vals[j] = row
        for j in list(live):
            i = int(np.argmax(vals[j]))
            if vals[j][i] > best[j]:
                best[j] = float(vals[j][i])
                t_best[j] = float(ts[i])
            converged = prev[j] is not None and abs(best[j] - prev[j]) <= tol_sup * max(best[j], 1e-300)
            if converged or rounds >= max_rounds:
                reports[j] = _certify(D, N, sigmas[j], best[j], t_best[j], ts, step, rounds)
                live.remove(j)
                vals[j] = None
            else:
                prev[j] = best[j]
        old = ts
        step /= 2.0
    return reports


def _certify(D, N, sigma, best, t_best, ts, step, rounds) -> SupReport:
    """The grid max on the final grid ts, with its certified upper bound."""
    spacing = float(np.max(np.diff(ts)))
    cap = D.abs_sum(sigma, N)
    upper = min(best + D.lipschitz(sigma, N) * spacing / 2.0, cap)
    # the cap and the grid max can coincide up to summation order; the
    # certificate must never fall below the observed lower bound
    upper = max(upper, best)
    return SupReport(best, upper, t_best, step, rounds)


def line_sup_report(
    D: DirichletSeries,
    N: Optional[int],
    grid: LineGrid,
    tol_sup: float = 1e-4,
    max_rounds: int = _MAX_ROUNDS,
) -> SupReport:
    """Refine the grid (halving the step) until the max stabilizes.

    Stops when the relative change drops below ``tol_sup``.  The certified
    upper bound is grid max + Lipschitz * h / 2 with h the largest spacing of
    the final round (``step`` reports the nominal one), capped by the
    coefficient-sum bound; it covers [t_min, t_max] on this line only.
    """
    return _refine_lines(D, _check_N(D, N), grid, (grid.sigma,), tol_sup, max_rounds)[0]


@dataclass(frozen=True)
class NormReport:
    """Half-plane sup-norm estimate over sampled vertical lines."""

    estimate: float  # max over sampled lines of the grid sups (lower-bound flavor)
    certified_upper: float  # max over sampled lines of the certified uppers, capped
    sigma_levels: tuple
    line_values: tuple

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "certifiedUpper": self.certified_upper,
            "sigmaLevels": list(self.sigma_levels),
            "lineValues": list(self.line_values),
        }


def halfplane_norm(
    D: DirichletSeries,
    t_min: float = 0.0,
    t_max: float = 100.0,
    step: float = 0.05,
    sigma_min: float = 1e-3,
    levels: int = 8,
    tol_sup: float = 1e-4,
) -> NormReport:
    """Estimate the sup of |D| on [Re > 0] from lines sigma_min * 2^j.

    Line sups of a bounded Dirichlet polynomial are nonincreasing in sigma
    (log-convexity plus decay at +inf), so the smallest sampled line
    dominates; the doubling ladder is kept as a cross-check and for reports.
    """
    if levels < 1:
        raise ValueError("need levels >= 1")
    # 2.0**j overflows from j = 1024 on
    if levels > 1024 or not math.isfinite(sigma_min * 2.0 ** (levels - 1)):
        raise ValueError(f"the top level sigma_min * 2^{levels - 1} is not finite")
    sigmas = tuple(sigma_min * 2.0**j for j in range(levels))
    reports = _refine_lines(D, D.M, LineGrid(sigma_min, t_min, t_max, step), sigmas, tol_sup, _MAX_ROUNDS)
    sups = [rep.value for rep in reports]
    uppers = [rep.certified_upper for rep in reports]
    cap = D.abs_sum(0.0)
    estimate = max(sups)
    # same hairline as in line_sup_report: when the cap coincides with the
    # observed max up to summation order, the certificate keeps dominating
    return NormReport(
        estimate=estimate,
        certified_upper=max(min(max(uppers), cap), estimate),
        sigma_levels=sigmas,
        line_values=tuple(sups),
    )


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
    vals = fvals * np.exp(s * lam)
    return complex(_trapezoid(vals, ts) / (2 * T))


# ---------------------------------------------------------------------------
# file formats


def read_coefficients_csv(path) -> np.ndarray:
    """Read coefficients from CSV with header ``index,re,im``."""
    name = str(path)
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
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


def builtin_coefficients(tag: str, M: int, seed: Optional[int] = None) -> np.ndarray:
    """Coefficient families by tag: ones, alternating, inverse-square,
    or ``seeded-normal[:SEED]`` (complex standard normal, reproducible)."""
    if tag == "ones":
        return np.ones(M, dtype=complex)
    if tag == "alternating":
        return np.asarray([(-1.0) ** n for n in range(1, M + 1)], dtype=complex)
    if tag == "inverse-square":
        return np.asarray([1.0 / n**2 for n in range(1, M + 1)], dtype=complex)
    if tag.startswith("seeded-normal"):
        if ":" in tag:
            seed = int(tag.split(":", 1)[1])
        if seed is None:
            raise ValueError("seeded-normal needs a seed (tag suffix or --seed)")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(M) + 1j * rng.standard_normal(M)
    raise ValueError(
        f"unknown coefficient tag {tag!r}; expected one of "
        f"{_COEFF_TAGS + ('seeded-normal[:SEED]',)} or a CSV path"
    )


def series_from_descriptor(
    descriptor: Union[dict, str, Path],
    seed: Optional[int] = None,
) -> DirichletSeries:
    """Build a series from a JSON descriptor.

    Shape: ``{"frequency": <builtin tag | {"kind", "m", "params"} | file path>,
    "coefficients": <builtin tag | CSV file path>}``.  A frequency given as a
    file path uses the one-value-per-line format; coefficients given as a path
    use the ``index,re,im`` CSV format.
    """
    if not isinstance(descriptor, dict):
        descriptor = json.loads(Path(descriptor).read_text())
    if "frequency" not in descriptor or "coefficients" not in descriptor:
        raise ValueError("descriptor needs 'frequency' and 'coefficients'")

    cspec = descriptor["coefficients"]
    coeffs = None
    if isinstance(cspec, str) and (cspec.endswith(".csv") or "/" in cspec):
        coeffs = read_coefficients_csv(cspec)

    fspec = descriptor["frequency"]
    if isinstance(fspec, dict):
        m = int(fspec.get("m", 0) or (len(coeffs) if coeffs is not None else 0))
        freq = make_frequency(fspec["kind"], m, fspec.get("params"))
    elif isinstance(fspec, str) and (fspec.endswith(".txt") or "/" in fspec):
        freq = read_frequency_file(fspec)
    else:
        if coeffs is None:
            raise ValueError("a frequency tag needs a coefficients file")
        freq = make_frequency(str(fspec), len(coeffs))

    if coeffs is None:
        coeffs = builtin_coefficients(str(cspec), freq.M, seed=seed)
    return DirichletSeries(freq, coeffs)
