"""Command-line front end: every operation behind one subcommand each.

Layout: ``gdseries COMMAND ACTION [flags]`` with commands {freq, series,
riesz, bound, abscissa, perron, neder, suite}.  JSON (sorted keys) is the
canonical output; ``--format csv`` is accepted only for two-column tables
(profiles, ratio sequences) and for the coefficient file format itself.
Exit codes: 0 success, 1 failed check in a suite run, 2 usage error, bad
input, an array too large to allocate or a result that is not a finite
number (``error: ...`` on stderr, nothing on stdout).

Each action is declared once, by one ``Action`` entry in the registry below:
the library operations it owns, its input source (none, a frequency or a
series), the flags it reads with their defaults (only ``--format`` and
``--out`` are common to all), and the function that computes its output.  The
parser, the handler table ``HANDLERS`` and the ownership map ``ACTIONS`` are
generated from the registry, so adding an action means adding one registry
entry.  A flag's default is written only in its spec, but for the source
flags, whose defaults ``RunConfig.source`` applies.  The test suite checks
that the ownership is a partition (no operation reachable from two actions,
none orphaned) and that every accepted flag is read.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import acceptance, bounds, estimates, frequency, neder, perron, riesz, series
from .frequency import BUILTIN_KINDS, Frequency
from .series import DirichletSeries, LineGrid

__all__ = ["ACTIONS", "HANDLERS", "RunConfig", "build_parser", "run", "main"]

# ---------------------------------------------------------------------------
# flags

Flag = Tuple[str, dict]


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _flag(name: str, type: Optional[Callable] = _finite, default: Any = None, **kw) -> Flag:
    """One flag: its name and its ``add_argument`` keywords (``type=None`` takes strings)."""
    if type is not None:
        kw["type"] = type
    return name, dict(kw, default=default)


# every action takes these
COMMON = (
    _flag("--format", None, "json", choices=("json", "csv")),
    _flag("--out", None, metavar="PATH"),
)
SEED = _flag("--seed", int, 7)
# the source flags default to None, so that two sources of one part show
FREQ_FLAGS = (
    _flag("--kind", None, choices=BUILTIN_KINDS, help="frequency kind (default log)"),
    _flag("--n", int, help="frequency length M (default 100)"),
    _flag("--params", nargs="*", help="values for custom-from-list"),
    _flag("--freq-file", None, metavar="PATH"),
)
SERIES_FLAGS = FREQ_FLAGS + (
    _flag("--coeffs", None, help="builtin coefficient tag (default ones)"),
    _flag("--coeffs-file", None, metavar="PATH"),
    _flag("--descriptor", None, metavar="PATH", help="series descriptor JSON"),
    SEED,
)
SOURCES = {None: (), "freq": FREQ_FLAGS, "series": SERIES_FLAGS}

# flags shared by several actions
K = _flag("--k", required=True)
X = _flag("--x", required=True)
L = _flag("--l", required=True)
DELTA = _flag("--delta", required=True)
POINT = (_flag("--sigma", _finite, 0.0), _flag("--t", _finite, 0.0))
N_TERMS = _flag("--n-terms", int)
N_INDEX = _flag("--n-index", int, required=True)
TAU = _flag("--tau", _finite, 1e-4)
VARIANT = _flag("--variant", None, "paper", choices=("paper", "exact"))
EPSILON = _flag("--epsilon", _finite, 1.0)
T_HEIGHT = _flag("--t-height", _finite, 1e3)
F_NORM = _flag("--f-norm")
TOL_SUP = _flag("--tol-sup", _positive, 1e-4)
QUAD_TOL = _flag("--quad-tol", _positive, 1e-8)
TOL_SLOPE = _flag("--tol-slope", _positive, 1e-3)
GRID_STEP = _flag("--grid-step", _positive, 0.05)
# a t-window, and a t-window on the line Re s = --grid-sigma
WINDOW = (_flag("--grid-t-min", _finite, 0.0), _flag("--grid-t-max", _finite, 100.0), GRID_STEP)
LINE = (_flag("--grid-sigma", _finite, 1e-3),) + WINDOW
PERRON = (X, K, EPSILON, T_HEIGHT, _flag("--step", _finite, 0.05), F_NORM, QUAD_TOL)
NEDER = (X, _flag("--r-cap", int), _flag("--point-budget", int, 10_000))


def _either(file_flag: str, path: Optional[str], flags: Dict[str, Any], built: Any) -> Any:
    """One part of a descriptor: the file ``path`` if given, else ``built`` from ``flags``, never both."""
    clash = [flag for flag, value in flags.items() if value is not None and path is not None]
    if clash:
        raise ValueError(f"{', '.join(clash)} cannot be combined with {file_flag}")
    return built if path is None else Path(path)


class RunConfig(argparse.Namespace):
    """Parsed invocation: command, action and every flag of the action as an
    attribute.  The source flags describe one series descriptor."""

    coeffs = coeffs_file = descriptor = None  # frequency actions lack these flags
    grid_sigma = 0.0  # ``WINDOW`` actions lack --grid-sigma: their grid lies on Re s = 0

    def grid(self) -> LineGrid:
        """The ``LINE`` flags, or the ``WINDOW`` flags on the line Re s = 0."""
        return LineGrid(self.grid_sigma, self.grid_t_min, self.grid_t_max, self.grid_step)

    def source(self) -> dict:
        """The series descriptor: ``--descriptor``, or the other source flags
        with the defaults ``--kind log --n 100 --coeffs ones``."""
        flags = {"--kind": self.kind, "--n": self.n, "--params": self.params}
        by_kind = {"kind": self.kind or "log", "m": 100 if self.n is None else self.n, "params": self.params}
        freq = _either("--freq-file", self.freq_file, flags, by_kind)
        tag = "ones" if self.coeffs is None else self.coeffs
        coeffs = _either("--coeffs-file", self.coeffs_file, {"--coeffs": self.coeffs}, tag)
        given = {**flags, "--freq-file": self.freq_file, "--coeffs": self.coeffs,
                 "--coeffs-file": self.coeffs_file}
        path = _either("--descriptor", self.descriptor, given, None)
        return series._read_descriptor(path) if path else {"frequency": freq, "coefficients": coeffs}

    def frequency(self) -> Frequency:
        return series._frequency_from(self.source()["frequency"])

    def series(self) -> DirichletSeries:
        return series.series_from_descriptor(self.source(), seed=self.seed)


# ---------------------------------------------------------------------------
# compute functions for the actions that need more than one call.  Each
# returns a payload (a report, or a dict of reports, numbers, complex values
# and arrays, which ``_jsonable`` turns into JSON) or a ``(payload, CSV
# table)`` pair.

Table = Optional[Tuple[Tuple[str, ...], List[tuple]]]


def _with_values(payload: dict, values) -> Tuple[dict, Table]:
    """The payload with the first twelve frequency values; all of them as the table."""
    payload["head"] = values[:12]
    return payload, (("index", "lambda"), [(n, float(v)) for n, v in enumerate(values, start=1)])


def _with_coeffs(payload: dict, coeffs) -> Tuple[dict, Table]:
    """The payload with the first eight coefficients, if any; all of them as the table."""
    if len(coeffs):
        payload["coefficientsHead"] = coeffs[:8]
    return payload, (("index", "re", "im"), [(n, c.real, c.imag) for n, c in enumerate(coeffs, start=1)])


def _with_ratios(est: estimates.AbscissaEstimate) -> Tuple[estimates.AbscissaEstimate, Table]:
    """An estimate with its (index, ratio) pairs as the table."""
    return est, (("index", "ratio"), list(est.ratios))


def _freq_make(cfg):
    freq = cfg.frequency()
    gaps = freq.gaps
    lo, hi = (float(np.min(gaps)), float(np.max(gaps))) if gaps.size else (None, None)
    return _with_values({**_jsonable(freq), "minGap": lo, "maxGap": hi}, freq.values)


def _freq_refine(cfg):
    freq = cfg.frequency()
    fine = frequency.refine_gaps(freq)
    max_gap = float(np.max(fine.gaps)) if fine.M > 1 else None
    return _with_values({"before": freq.M, "after": fine.M, "maxGapAfter": max_gap}, fine.values)


def _series_eval(cfg):
    D = cfg.series()
    s = complex(cfg.sigma, cfg.t)
    N = cfg.n_terms
    value = series.evaluate(D, s, N)
    return {"s": s, "terms": N if N is not None else D.M, "value": value}


def _series_translate(cfg):
    s0 = complex(cfg.sigma, cfg.t)
    shifted = series.translate(cfg.series(), s0)
    return _with_coeffs({"s0": s0, "M": shifted.M}, shifted.coeffs)


def _series_recover(cfg):
    D = series.with_self_reference(cfg.series())
    n = cfg.n_index
    got = series.coefficient_recover(D, n, cfg.sigma, cfg.t_height, cfg.grid_step)
    actual = complex(D.coeffs[n - 1])
    return {"n": n, "recovered": got, "actual": actual, "residual": abs(got - actual)}


def _series_coeffs(cfg):
    source = cfg.source()
    D = series.series_from_descriptor(source, seed=cfg.seed)
    tag = cfg.coeffs_file or source["coefficients"]  # the file path as given
    return _with_coeffs({"M": D.M, "tag": tag, "absSum": D.abs_sum(0.0)}, D.coeffs)


def _riesz_mean(cfg):
    s = complex(cfg.sigma, cfg.t)
    value = riesz.riesz_mean(cfg.series(), cfg.k, cfg.x, s)
    return {"k": cfg.k, "x": cfg.x, "s": s, "value": value}


def _riesz_truncate(cfg):
    trunc = riesz.riesz_truncation(cfg.series(), cfg.k, cfg.x)
    if trunc is None:
        return _with_coeffs({"terms": 0, "empty": True}, ())
    return _with_coeffs({"terms": trunc.M, "empty": False}, trunc.coeffs)


def _riesz_typical(cfg):
    w = complex(cfg.sigma, cfg.t)
    value = riesz.typical_mean_A(cfg.series(), cfg.k, w, cfg.x)
    return {"k": cfg.k, "x": cfg.x, "w": w, "value": value}


def _riesz_abel(cfg):
    resid = riesz.check_abel_integral(cfg.series(), cfg.k, cfg.x)
    return {"k": cfg.k, "x": cfg.x, "residual": resid, "tol": cfg.quad_tol}


def _riesz_fractional(cfg):
    resid = riesz.check_fractional_identity(cfg.series(), cfg.k, cfg.t_point, cfg.tau, cfg.quad_tol)
    return {"k": cfg.k, "t": cfg.t_point, "tau": cfg.tau, "residual": resid, "tol": cfg.quad_tol}


def _riesz_beta(cfg):
    lhs, rhs = riesz.beta_identity(cfg.alpha, cfg.beta, cfg.quad_tol)
    diff = abs(lhs - rhs)
    return {"alpha": cfg.alpha, "beta": cfg.beta, "quadrature": lhs, "gammaRatio": rhs, "difference": diff}


def _riesz_error(cfg):
    D = series.with_self_reference(cfg.series())
    err = riesz.riesz_uniform_error(D, cfg.k, cfg.sigma, cfg.x, cfg.grid())
    return {"k": cfg.k, "sigma": cfg.sigma, "x": cfg.x, "error": err}


def _riesz_constants(cfg):
    k = cfg.k
    exact, paper, integral = riesz.c_exact(k), riesz.paper_constant(k), riesz.proof_integral(k)
    return {"k": k, "exact": exact, "paper": paper, "proofIntegral": integral}


def _bound_profile(cfg):
    freq = cfg.frequency()
    params = {key: v for key, v in (("delta", cfg.delta), ("d", cfg.d)) if v is not None}
    Ns = slice(cfg.n_start, cfg.n_stop, cfg.n_step)
    prof = bounds.theorem_bound_profile(freq, cfg.regime, params, Ns=Ns, variant=cfg.variant)
    return prof, (("N", "ratio"), list(prof.csv_rows()))


def _bound_hardy(cfg):
    lhs, rhs = bounds.hardy_check(cfg.series(), cfg.n_index, cfg.k)
    return {"N": cfg.n_index, "k": cfg.k, "lhs": lhs, "rhs": rhs, "satisfied": lhs <= rhs + 1e-12}


def _abscissa_delta(cfg):
    freq = cfg.frequency()
    family = [
        DirichletSeries(freq, series.builtin_coefficients("seeded-normal", freq.M, cfg.seed + j))
        for j in range(cfg.count)
    ]
    return _with_ratios(bounds.delta_sequence_estimate(family, cfg.grid()))


def _perron(cfg, op):
    """``op(series, query)`` with the query and norm flags of ``cfg``."""
    query = perron.PerronQuery(x=cfg.x, k=cfg.k, epsilon=cfg.epsilon, T=cfg.t_height, step=cfg.step)
    return op(cfg.series(), query, f_norm=cfg.f_norm, quad_tol=cfg.quad_tol)


def _f_norm(cfg) -> float:
    """``--f-norm``, else sum |a_n|; the series is read either way."""
    D = cfg.series()
    return cfg.f_norm if cfg.f_norm is not None else D.abs_sum(0.0)


def _perron_required_t(cfg):
    k, x, eps, f_norm = cfg.k, cfg.x, cfg.epsilon, _f_norm(cfg)
    T = perron.required_T(k, x, eps, f_norm, cfg.tau)
    tail = perron.tail_bound(k, x, eps, f_norm, T)
    return {"k": k, "x": x, "epsilon": eps, "fNorm": f_norm, "tol": cfg.tau, "T": T, "tailAtT": tail}


def _perron_tail(cfg):
    k, x, eps, f_norm, T = cfg.k, cfg.x, cfg.epsilon, _f_norm(cfg), cfg.t_height
    tail = perron.tail_bound(k, x, eps, f_norm, T)
    return {"k": k, "x": x, "epsilon": eps, "fNorm": f_norm, "T": T, "tail": tail}


def _neder(cfg):
    return neder.neder_construct(cfg.frequency(), cfg.x, r_cap=cfg.r_cap, point_budget=cfg.point_budget)


def _neder_build(cfg):
    c = _neder(cfg)
    rows = [(float(v), float(w.real)) for v, w in zip(c.eta.values, c.coeffs)]
    return c, (("eta", "coefficient"), rows)


def _neder_divergence(cfg):
    c = _neder(cfg)
    rows = neder.neder_divergence_check(c)
    passed = all(r.passed for r in rows if not r.exempt)
    return {"x": c.x, "rows": rows, "allUncappedPass": passed}


def _neder_cauchy(cfg):
    observed, bound = neder.neder_cauchy_check(_neder(cfg), cfg.k_low, cfg.k_high, cfg.grid())
    ok = observed <= bound + 1e-9
    return {"kLow": cfg.k_low, "kHigh": cfg.k_high, "observed": observed, "bound": bound, "satisfied": ok}


def _neder_identity(cfg):
    c = _neder(cfg)
    rng = np.random.default_rng(cfg.seed)
    s_values = [complex(rng.uniform(0.05, 1.0), rng.uniform(-10.0, 10.0)) for _ in range(cfg.samples)]
    resid = neder.fejer_identity_residual(c, cfg.k_prefix, s_values)
    return {"kPrefix": cfg.k_prefix, "samples": cfg.samples, "residual": resid}


def _neder_fejer(cfg):
    return {
        "m": cfg.m,
        "coefficients": neder.fejer_polynomial(cfg.m).coeffs,
        "sup": neder.fejer_sup(cfg.m),
        "supMax64": neder.fejer_sup_max(),
    }


def _suite_acceptance(cfg):
    results = acceptance.run_all(cfg.seed, cfg.only or None)
    print(acceptance.format_table(results), file=sys.stderr)
    failed = sum(not r.passed for r in results)
    return {"seed": cfg.seed, "criteria": results, "passed": len(results) - failed, "failed": failed}


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Action:
    """One ``COMMAND ACTION``: the library operations it owns, its input
    source (None, "freq" or "series"), its own flags and its compute function.
    Compute functions look library functions up through their modules when
    they run, so a wrapper later put on a library function is called."""

    command: str
    name: str
    source: Optional[str]
    ops: Tuple[str, ...]
    flags: Tuple[Flag, ...]
    compute: Callable[[RunConfig], Any]


COMMANDS = {
    "freq": "frequency construction and gap conditions",
    "series": "evaluation, sups, norms, coefficients",
    "riesz": "Riesz means and integral identities",
    "bound": "partial-sum bounds and norms",
    "abscissa": "convergence abscissa estimators",
    "perron": "truncated Perron inversion",
    "neder": "divergent-series counterexample builder",
    "suite": "acceptance checks",
}

_REGISTRY = (
    Action("freq", "make", "freq", ("frequency.make_frequency", "frequency.read_frequency_file"),
           (), _freq_make),
    Action("freq", "check-bc", "freq", ("frequency.check_bc",), (L, DELTA, TOL_SLOPE),
           lambda cfg: frequency.check_bc(cfg.frequency(), cfg.l, cfg.delta, cfg.tol_slope)),
    Action("freq", "check-lc", "freq", ("frequency.check_lc",), (DELTA, TOL_SLOPE),
           lambda cfg: frequency.check_lc(cfg.frequency(), cfg.delta, cfg.tol_slope)),
    Action("freq", "check-poly", "freq", ("frequency.check_poly_growth",),
           (L, _flag("--d", required=True), DELTA, TOL_SLOPE),
           lambda cfg: frequency.check_poly_growth(cfg.frequency(), cfg.l, cfg.d, cfg.delta, cfg.tol_slope)),
    Action("freq", "density", "freq", ("frequency.estimate_L",), (),
           lambda cfg: _with_ratios(frequency.estimate_L(cfg.frequency()))),
    Action("freq", "refine", "freq", ("frequency.refine_gaps",), (), _freq_refine),
    Action("series", "eval", "series", ("series.evaluate", "series.series_from_descriptor"),
           POINT + (N_TERMS,), _series_eval),
    Action("series", "sup", "series", ("series.line_sup_report",), (N_TERMS, TOL_SUP) + LINE,
           lambda cfg: series.line_sup_report(cfg.series(), cfg.n_terms, cfg.grid(), cfg.tol_sup)),
    Action("series", "norm", "series", ("series.halfplane_norm",),
           (_flag("--levels", int, 8), TOL_SUP) + LINE,
           lambda cfg: series.halfplane_norm(cfg.series(), cfg.grid(), cfg.levels, cfg.tol_sup)),
    Action("series", "translate", "series", ("series.translate",), POINT, _series_translate),
    Action("series", "recover", "series", ("series.coefficient_recover",),
           (N_INDEX, _flag("--sigma", _finite, 1.0), _flag("--t-height", _finite, 1e4), GRID_STEP),
           _series_recover),
    Action("series", "coeffs", "series",
           ("series.builtin_coefficients", "series.read_coefficients_csv", "series.write_coefficients_csv"),
           (), _series_coeffs),
    Action("riesz", "mean", "series", ("riesz.riesz_mean",), (K, X) + POINT, _riesz_mean),
    Action("riesz", "truncate", "series", ("riesz.riesz_truncation",), (K, X), _riesz_truncate),
    Action("riesz", "typical", "series", ("riesz.typical_mean_A",), (K, X) + POINT, _riesz_typical),
    Action("riesz", "abel", "series", ("riesz.check_abel_integral",), (K, X, QUAD_TOL), _riesz_abel),
    Action("riesz", "fractional", "series", ("riesz.check_fractional_identity",),
           (K, _flag("--t-point", required=True), TAU, QUAD_TOL), _riesz_fractional),
    Action("riesz", "beta", None, ("riesz.beta_identity",),
           (_flag("--alpha", required=True), _flag("--beta", required=True), QUAD_TOL),
           _riesz_beta),
    Action("riesz", "error", "series", ("riesz.riesz_uniform_error", "series.with_self_reference"),
           (K, X, _flag("--sigma", _finite, 0.5)) + WINDOW,
           _riesz_error),
    Action("riesz", "sigma-u-k", "series", ("riesz.sigma_u_k_estimate",),
           (K, _flag("--xs", required=True, nargs="+"), TOL_SUP) + WINDOW,
           lambda cfg: _with_ratios(
               riesz.sigma_u_k_estimate(cfg.series(), cfg.k, cfg.xs, cfg.grid(), cfg.tol_sup))),
    Action("riesz", "constants", None, ("riesz.c_exact", "riesz.paper_constant", "riesz.proof_integral"),
           (_flag("--k", _finite, 1.0),), _riesz_constants),
    Action("bound", "sn", "freq", ("bounds.sn_bound",), (N_INDEX, K, VARIANT),
           lambda cfg: bounds.sn_bound(cfg.frequency(), cfg.n_index, cfg.k, cfg.variant)),
    Action("bound", "sn-opt", "freq", ("bounds.sn_bound_optimal",), (N_INDEX, VARIANT),
           lambda cfg: bounds.sn_bound_optimal(cfg.frequency(), cfg.n_index, cfg.variant)),
    Action("bound", "profile", "freq", ("bounds.theorem_bound_profile",),
           (_flag("--regime", None, required=True, choices=("bc", "lc", "poly")),
            _flag("--delta"), _flag("--d"), VARIANT,
            _flag("--n-start", int), _flag("--n-stop", int), _flag("--n-step", int)),
           _bound_profile),
    Action("bound", "hardy", "series", ("bounds.hardy_check",), (N_INDEX, K), _bound_hardy),
    Action("bound", "kronecker", "series", ("bounds.kronecker_norm",), (),
           lambda cfg: bounds.kronecker_norm(cfg.series())),
    Action("abscissa", "sigma-c", "series", ("bounds.sigma_c_estimate",), (),
           lambda cfg: _with_ratios(bounds.sigma_c_estimate(cfg.series()))),
    Action("abscissa", "sigma-a", "series", ("bounds.sigma_a_estimate",), (),
           lambda cfg: _with_ratios(bounds.sigma_a_estimate(cfg.series()))),
    Action("abscissa", "sigma-u", "series", ("bounds.sigma_u_estimate",), WINDOW,
           lambda cfg: _with_ratios(bounds.sigma_u_estimate(cfg.series(), cfg.grid()))),
    Action("abscissa", "delta", "freq", ("bounds.delta_sequence_estimate",),
           (_flag("--count", int, 8), SEED) + WINDOW, _abscissa_delta),
    Action("perron", "eval", "series", ("perron.perron_integral",), PERRON,
           lambda cfg: _perron(cfg, perron.perron_integral)),
    Action("perron", "check", "series", ("perron.perron_vs_direct",), PERRON,
           lambda cfg: _perron(cfg, perron.perron_vs_direct)),
    Action("perron", "required-t", "series", ("perron.required_T",), (X, K, EPSILON, TAU, F_NORM),
           _perron_required_t),
    Action("perron", "tail", "series", ("perron.tail_bound",), (X, K, EPSILON, T_HEIGHT, F_NORM),
           _perron_tail),
    Action("neder", "build", "freq", ("neder.neder_construct",), NEDER, _neder_build),
    Action("neder", "divergence", "freq", ("neder.neder_divergence_check",), NEDER, _neder_divergence),
    Action("neder", "cauchy", "freq", ("neder.neder_cauchy_check",),
           NEDER + (_flag("--k-low", int, 1), _flag("--k-high", int, 3)) + LINE, _neder_cauchy),
    Action("neder", "identity", "freq", ("neder.fejer_identity_residual",),
           NEDER + (_flag("--k-prefix", int, 3), _flag("--samples", int, 10), SEED), _neder_identity),
    Action("neder", "fejer", None, ("neder.fejer_polynomial", "neder.fejer_sup", "neder.fejer_sup_max"),
           (_flag("--m", int, 3),), _neder_fejer),
    Action("suite", "acceptance", None,
           ("acceptance.run_all", "acceptance.run_criterion", "acceptance.format_table"),
           (_flag("--only", int, nargs="*", help="criterion ids to run"), SEED), _suite_acceptance),
)
ACTIONS: Dict[Tuple[str, str], Action] = {(a.command, a.name): a for a in _REGISTRY}


# ---------------------------------------------------------------------------
# generated from the registry: handlers and parser

# ``run`` looks handlers up here at call time, so a wrapper put into this dict
# (a profiler, say) sees every invocation.
HANDLERS: Dict[Tuple[str, str], Callable[[RunConfig], Any]] = {
    key: a.compute for key, a in ACTIONS.items()
}


def _flag_parser(flags: Sequence[Flag]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    for name, kw in flags:
        parser.add_argument(name, **kw)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdseries", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    actions = {
        name: commands.add_parser(name, help=help).add_subparsers(
            dest="action", metavar="ACTION", required=True
        )
        for name, help in COMMANDS.items()
    }
    # shared flags are built once and copied into each action's parser
    common = _flag_parser(COMMON)
    parents = {source: [common, _flag_parser(flags)] for source, flags in SOURCES.items()}
    for a in ACTIONS.values():
        sub = actions[a.command].add_parser(a.name, parents=parents[a.source])
        for name, kw in a.flags:
            sub.add_argument(name, **kw)
    return parser


# ---------------------------------------------------------------------------
# output: the one place JSON keys are named.  A report's keys are its field
# names in camelCase, but for the renames, the fields left out and the keys
# computed from the whole report below.

_RENAMED = {"cid": "id", "passed": "pass", "lam": "lambda", "tail": "tailBound",
            "coeffs": "coefficients", "infimum_log_constant": "infimumConstant"}
# run-to-run timings, and construction internals the output does not show
_OMITTED = {"elapsed", "log_gaps", "running_log_constants", "base", "block_sizes", "block_b", "point_block"}
_COMPUTED = {
    Frequency: {"M": lambda f: f.M},
    # infimumConstant is log C, not C: doubly exponential weights make C unrepresentable
    frequency.ConditionReport: {"logSpace": lambda r: True},
    estimates.AbscissaEstimate: {"growthTol": lambda e: estimates.GROWTH_TOL},
    perron.PerronComparison: {"withinBudget": lambda c: c.residual <= c.budget},
    neder.NederConstruction: {
        "blocks": lambda c: [{"k": k, "size": n, "b": c.block_b[k]} for k, n in sorted(c.block_sizes.items())],
        "eta": lambda c: c.eta.values,  # the values alone, not a frequency object
    },
}
_LEAVES = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _keys(cls: type) -> Tuple[Tuple[str, str], ...]:
    """(attribute, key) for each field of a report class that is a key of its JSON."""
    computed = _COMPUTED.get(cls, {})
    keys = []
    for f in dataclasses.fields(cls):
        head, *rest = f.name.split("_")
        key = _RENAMED.get(f.name, head + "".join(w[:1].upper() + w[1:] for w in rest))
        if f.name not in _OMITTED and key not in computed:
            keys.append((f.name, key))
    return tuple(keys)


def _jsonable(obj: Any) -> Any:
    """``obj`` as plain JSON values: a report becomes a dict, a complex number
    ``[re, im]``, a numpy array a list and a numpy scalar a Python number;
    dicts, lists and tuples are converted item by item."""
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    if dataclasses.is_dataclass(cls):  # first: long lists of report rows come here
        out = {}
        for name, key in _keys(cls):
            value = getattr(obj, name)
            out[key] = value if type(value) in _LEAVES else _jsonable(value)
        for key, value in _COMPUTED.get(cls, {}).items():
            out[key] = _jsonable(value(obj))
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {key: _jsonable(v) for key, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    return obj.item()  # a numpy scalar


def _render_json(payload: Any) -> str:
    # strict JSON: a nan or inf anywhere raises ValueError before any output
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render_csv(table) -> str:
    header, rows = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv, namespace=RunConfig())
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        payload = HANDLERS[(cfg.command, cfg.action)](cfg)
        payload, table = payload if isinstance(payload, tuple) else (payload, None)
        if cfg.format == "csv":
            if table is None:
                raise ValueError(f"{cfg.command} {cfg.action} has no CSV form (JSON only)")
            text = _render_csv(table)
        else:
            # payload held the reports' last reference: they are freed before json builds the text
            payload = _jsonable(payload)
            text = _render_json(payload)
        if cfg.out:
            with open(cfg.out, "w") as fp:
                fp.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a result overflows the float range ({exc.args[-1]})", file=sys.stderr)
        return 2
    return 1 if cfg.command == "suite" and payload["failed"] > 0 else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
