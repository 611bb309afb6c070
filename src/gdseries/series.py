"""Dirichlet series and polynomials: evaluation and sup norms on lines.

A series is a frequency plus complex coefficients, D(s) = sum a_n e^{-lambda_n s},
optionally carrying a closed-form reference evaluator for its limit function f
on the open right half-plane.

Sup norms on vertical lines are approximated by grid maximization.  Any grid
value is a lower bound of the true sup.  Where an inequality needs the norm on
its large side, use the certified upper bound: partial sums are Lipschitz in t
with constant sum |a_n| lambda_n e^{-lambda_n sigma}, so

    sup over the covered t-window <= grid max + Lipschitz * step / 2,

capped by the triangle-inequality bound sum |a_n| e^{-lambda_n sigma}.  The
certificate covers the sampled window, which the callers choose.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
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
_CHUNK = 4096


@dataclass(frozen=True)
class LineGrid:
    """Uniform t-grid on a vertical line Re s = sigma."""

    sigma: float
    t_min: float
    t_max: float
    step: float

    def __post_init__(self) -> None:
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
    points with Re s > 0 and must be finite there.  It may be vectorized over
    numpy arrays; scalar-only callables are handled too.
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
    terms = D.coeffs[:N] * np.exp(-D.freq.values[:N] * complex(s))
    total = 0j
    for t in terms:
        total += t
    return complex(total)


def _eval_line(D: DirichletSeries, sigma: float, ts: np.ndarray, N: Optional[int] = None) -> np.ndarray:
    """Vectorized partial sum along a line; chunked to bound memory."""
    N = _check_N(D, N)
    lam = D.freq.values[:N]
    amp = D.coeffs[:N] * np.exp(-lam * sigma)
    out = np.empty(ts.size, dtype=complex)
    for lo in range(0, ts.size, _CHUNK):
        tt = ts[lo : lo + _CHUNK]
        out[lo : lo + _CHUNK] = np.exp(-1j * np.outer(tt, lam)) @ amp
    return out


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


def line_sup_report(
    D: DirichletSeries,
    N: Optional[int],
    grid: LineGrid,
    tol_sup: float = 1e-4,
    max_rounds: int = 10,
) -> SupReport:
    """Refine the grid (halving the step) until the max stabilizes.

    Stops when the relative change drops below ``tol_sup``.  The certified
    upper bound is grid max + Lipschitz * final step / 2, capped by the
    coefficient-sum bound; it covers [t_min, t_max] on this line only.
    """
    N = _check_N(D, N)
    step = grid.step
    best = -math.inf
    t_best = grid.t_min
    rounds = 0
    prev = None
    while True:
        ts = grid.points(step)
        vals = np.abs(_eval_line(D, grid.sigma, ts, N))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            t_best = float(ts[i])
        rounds += 1
        if prev is not None and abs(best - prev) <= tol_sup * max(best, 1e-300):
            break
        if rounds >= max_rounds:
            break
        prev = best
        step /= 2.0
    cap = D.abs_sum(grid.sigma, N)
    upper = min(best + D.lipschitz(grid.sigma, N) * step / 2.0, cap)
    # the cap and the grid max can coincide up to summation order; the
    # certificate must never fall below the observed lower bound
    upper = max(upper, best)
    return SupReport(best, upper, t_best, step, rounds)


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
    N: Optional[int] = None,
) -> NormReport:
    """Estimate the sup of |D| on [Re > 0] from lines sigma_min * 2^j.

    Line sups of a bounded Dirichlet polynomial are nonincreasing in sigma
    (log-convexity plus decay at +inf), so the smallest sampled line
    dominates; the doubling ladder is kept as a cross-check and for reports.
    """
    sups = []
    uppers = []
    sigmas = tuple(sigma_min * 2.0**j for j in range(levels))
    for sg in sigmas:
        rep = line_sup_report(D, N, LineGrid(sg, t_min, t_max, step), tol_sup)
        sups.append(rep.value)
        uppers.append(rep.certified_upper)
    cap = D.abs_sum(0.0, N)
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
    coeffs = D.coeffs * np.exp(-D.freq.values * s0)
    ref = None
    if D.reference is not None:
        base = D.reference

        def ref(s, _f=base, _s0=s0):
            return _f(np.asarray(s, dtype=complex) + _s0) if isinstance(s, np.ndarray) else _f(s + _s0)

    return DirichletSeries(D.freq, coeffs, ref)


def _call_reference(f: Callable, s_values: np.ndarray) -> np.ndarray:
    """Evaluate a reference on an array, falling back to a scalar loop."""
    try:
        out = np.asarray(f(s_values), dtype=complex)
        if out.shape == s_values.shape:
            return out
    except Exception:
        pass
    return np.array([complex(f(complex(s))) for s in s_values])


def with_self_reference(D: DirichletSeries) -> DirichletSeries:
    """Attach the polynomial's own full sum as its reference evaluator.

    A finite Dirichlet polynomial is its own limit function, so this is the
    canonical reference for identity and recovery experiments.
    """

    def ref(s, _freq=D.freq, _coeffs=D.coeffs):
        s_arr = np.asarray(s, dtype=complex)
        scalar = s_arr.ndim == 0
        s_flat = np.atleast_1d(s_arr)
        out = np.exp(-np.outer(s_flat, _freq.values)) @ _coeffs
        return complex(out[0]) if scalar else out.reshape(s_arr.shape)

    return DirichletSeries(D.freq, D.coeffs, ref)


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
    if T <= 0 or step <= 0:
        raise ValueError("need T > 0 and step > 0")
    if not 1 <= n <= D.M:
        raise ValueError(f"n={n} out of range [1, {D.M}]")
    lam = float(D.freq.values[n - 1])
    m = int(round(2 * T / step))
    ts = -T + 2 * T * np.arange(m + 1) / m
    s = sigma + 1j * ts
    vals = _call_reference(D.reference, s) * np.exp(s * lam)
    return complex(_trapezoid(vals, ts) / (2 * T))


# ---------------------------------------------------------------------------
# file formats


def read_coefficients_csv(path) -> np.ndarray:
    """Read coefficients from CSV with header ``index,re,im``."""
    text = Path(path).read_text()
    return _parse_coefficients_csv(text, name=str(path))


def _parse_coefficients_csv(text: str, name: str = "<csv>") -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
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


def write_coefficients_csv(path_or_fp, coeffs: Sequence[complex]) -> None:
    """Write coefficients as CSV with header ``index,re,im``."""

    def _write(fp):
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(["index", "re", "im"])
        for k, c in enumerate(np.asarray(coeffs, dtype=complex), start=1):
            w.writerow([k, repr(float(c.real)), repr(float(c.imag))])

    if hasattr(path_or_fp, "write"):
        _write(path_or_fp)
    else:
        with open(path_or_fp, "w", newline="") as fp:
            _write(fp)


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
        if coeffs is None and not isinstance(cspec, str):
            raise ValueError("cannot infer M; give frequency as a dict with 'm'")
        m = len(coeffs) if coeffs is not None else None
        if m is None:
            raise ValueError("frequency tag needs coefficients file to fix M")
        freq = make_frequency(str(fspec), m)

    if coeffs is None:
        coeffs = builtin_coefficients(str(cspec), freq.M, seed=seed)
    return DirichletSeries(freq, coeffs)
