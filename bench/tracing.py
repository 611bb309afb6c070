"""Span tracing around the package's module-level functions, from outside.

The tracer replaces a function binding in every ``gdseries`` module that
holds it (for example ``_eval_line`` in ``series``, ``riesz`` and ``neder``)
with a wrapper that records one span per call: name, start, end, parent span
and the index of the benchmark operation that caused it.  Spans stay in
memory until the batch ends; ``write`` dumps them as JSON.

Self time is a span's duration minus the part its direct children cover.
Some wrappers also add computed work counts from the call's arguments and
the public fields of its result (grid sizes, rounds, steps); these are
arithmetic on sizes, not measurements.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "LAYER_METRICS", "PER_LAYER", "layer_metrics"]


def _grid_count(t_min: float, t_max: float, step: float) -> int:
    """Number of points ``LineGrid.points(step)`` returns for this window."""
    return int(round((t_max - t_min) / step)) + 1


# ---------------------------------------------------------------------------
# computed work counts, attached to the spans of the functions that do the work


def _on_eval_line(tr, args, kwargs, out):
    D, ts = args[0], args[2]
    N = kwargs.get("N", args[3] if len(args) > 3 else None)
    tr.count("series.phase_evals", ts.size * (D.M if N is None else int(N)))


def _on_partial_sup_profile(tr, args, kwargs, out):
    D, grid = args[0], args[1]
    tr.count("series.phase_evals", _grid_count(grid.t_min, grid.t_max, grid.step) * D.M)


def _on_line_sup_report(tr, args, kwargs, rep):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    evaluated = sum(
        _grid_count(grid.t_min, grid.t_max, grid.step / 2.0**j) for j in range(rep.rounds)
    )
    tr.count("series.refine_rounds", rep.rounds)
    tr.count("series.final_points", _grid_count(grid.t_min, grid.t_max, rep.step))
    tr.count("series.evaluated_points", evaluated)
    if rep.value > 0:
        tr.samples["series.cert_slack_rel"].append(
            (rep.certified_upper - rep.value) / rep.value
        )


def _on_perron_integral(tr, args, kwargs, res):
    tr.count("perron.rounds", res.rounds)
    tr.count("perron.integrand_points", int(round(2.0 * res.T / res.step)) + 1)


# (module, attribute, span name, hook)
TARGETS = (
    ("series", "_eval_line", "series.eval_line", _on_eval_line),
    ("series", "line_sup_report", "series.line_sup_report", _on_line_sup_report),
    ("series", "halfplane_norm", "series.halfplane_norm", None),
    ("series", "coefficient_recover", "series.coefficient_recover", None),
    ("riesz", "riesz_uniform_error", "riesz.uniform_error", None),
    ("riesz", "sigma_u_k_estimate", "riesz.sigma_u_k", None),
    ("riesz", "quad", "riesz.quad", None),
    ("riesz", "riesz_mean", "riesz.mean", None),
    ("riesz", "typical_mean_A", "riesz.mean", None),
    ("bounds", "_partial_sup_profile", "bounds.partial_sup_profile", _on_partial_sup_profile),
    ("bounds", "theorem_bound_profile", "bounds.theorem_bound_profile", None),
    ("bounds", "sn_bound_optimal", "bounds.sn_bound_optimal", None),
    ("bounds", "sn_bound", "bounds.sn_bound", None),
    ("bounds", "hardy_check", "bounds.hardy_check", None),
    ("bounds", "sigma_c_estimate", "bounds.abscissa", None),
    ("bounds", "sigma_a_estimate", "bounds.abscissa", None),
    ("bounds", "sigma_u_estimate", "bounds.abscissa", None),
    ("bounds", "delta_sequence_estimate", "bounds.abscissa", None),
    ("frequency", "make_frequency", "frequency.make", None),
    ("frequency", "check_bc", "frequency.checks", None),
    ("frequency", "check_lc", "frequency.checks", None),
    ("frequency", "check_poly_growth", "frequency.checks", None),
    ("frequency", "estimate_L", "frequency.checks", None),
    ("estimates", "windowed_limsup", "estimates.windowed_limsup", None),
    ("perron", "perron_integral", "perron.integral", _on_perron_integral),
    ("neder", "neder_construct", "neder.construct", None),
    ("neder", "fejer_identity_residual", "neder.identity_residual", None),
    ("neder", "fejer_sup", "neder.fejer_sup", None),
    ("neder", "fejer_sup_max", "neder.fejer_sup", None),
    ("neder", "neder_cauchy_check", "neder.cauchy_check", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "run", "cli.run", None),
)


class Tracer:
    """In-memory span recorder; inactive wrappers cost one attribute check."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, op index]
        self._stack = []
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.active = False
        self.op = -1

    def count(self, name: str, n) -> None:
        self.counts[name] += n

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target binding in every loaded gdseries module."""
        modules = [m for n, m in sys.modules.items() if n == "gdseries" or n.startswith("gdseries.")]
        for mod_name, attr, span, hook in TARGETS:
            home = sys.modules.get(f"gdseries.{mod_name}")
            if home is None or not hasattr(home, attr):
                continue
            self._rebind(modules, getattr(home, attr), self.wrap(span, getattr(home, attr), hook))
        cli = sys.modules.get("gdseries.cli")
        if cli is not None:
            for key, fn in list(cli.HANDLERS.items()):
                cli.HANDLERS[key] = self.wrap("cli.handler", fn)
        acc = sys.modules.get("gdseries.acceptance")
        if acc is not None:
            for cid, (title, fn) in list(acc.CRITERIA.items()):
                wrapped = self.wrap(f"acceptance.criterion_{cid}", fn)
                self._rebind(modules, fn, wrapped)
                acc.CRITERIA[cid] = (title, wrapped)

    @staticmethod
    def _rebind(modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fp,
            )


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

_SELF = "self"  # sum over spans of (duration - direct-children coverage)
_OUTER = "outer"  # sum of durations of spans with no ancestor of the same name
_MEAN = "mean"  # mean inclusive duration per call
_CALLS = "calls"  # number of spans
_COMPUTED = "computed"  # filled in by ``layer_metrics`` from counts and other metrics
_RUNNER = "runner"  # filled in by the runner (run.py)

# Every per-layer metric, in report order: metric -> (unit, rule).  A span
# rule reads the spans named like the metric without its last suffix
# (``series.eval_line_s`` and ``series.eval_line_calls`` read
# ``series.eval_line``).
LAYER_METRICS = {
    "import.gdseries_cli_s": ("s", _RUNNER),
    "import.scipy_s": ("s", _RUNNER),
    "cli.build_parser_s": ("s", _OUTER),
    "cli.handler_s": ("s", _OUTER),
    "cli.render_s": ("s", _COMPUTED),
    "cli.stdout_bytes": ("B", _COMPUTED),
    "series.eval_line_s": ("s", _SELF),
    "series.eval_line_calls": ("count", _CALLS),
    "series.phase_evals": ("count", _COMPUTED),
    "series.phase_bytes": ("B", _COMPUTED),
    "series.refine_rounds": ("count", _COMPUTED),
    "series.fresh_point_ratio": ("1", _COMPUTED),
    "series.line_sup_report_s": ("s", _MEAN),
    "series.halfplane_norm_s": ("s", _MEAN),
    "series.coefficient_recover_s": ("s", _MEAN),
    "series.cert_slack_rel": ("1", _COMPUTED),
    "riesz.uniform_error_s": ("s", _OUTER),
    "riesz.sigma_u_k_s": ("s", _OUTER),
    "riesz.quad_s": ("s", _OUTER),
    "riesz.mean_s": ("s", _SELF),
    "bounds.partial_sup_profile_s": ("s", _SELF),
    "bounds.theorem_bound_profile_s": ("s", _OUTER),
    "bounds.sn_bound_optimal_s": ("s", _OUTER),
    "bounds.sn_bound_calls": ("count", _CALLS),
    "bounds.hardy_check_s": ("s", _OUTER),
    "bounds.abscissa_s": ("s", _SELF),
    "frequency.make_s": ("s", _OUTER),
    "frequency.checks_s": ("s", _OUTER),
    "estimates.windowed_limsup_s": ("s", _OUTER),
    "perron.integral_s": ("s", _OUTER),
    "perron.rounds": ("count", _COMPUTED),
    "perron.integrand_points": ("count", _COMPUTED),
    "neder.construct_s": ("s", _OUTER),
    "neder.identity_residual_s": ("s", _OUTER),
    "neder.fejer_sup_s": ("s", _OUTER),
    "neder.cauchy_check_s": ("s", _OUTER),
    **{f"acceptance.criterion_{cid}_s": ("s", _OUTER) for cid in range(1, 13)},
    "trace.overhead_s": ("s", _RUNNER),
}


# The workload/metric pairs a traced run reports.  A pair is listed only
# where the workload reaches that layer on every seed; elsewhere the value
# would be a constant 0.
_SERIES = (
    "series.eval_line_s",
    "series.eval_line_calls",
    "series.phase_evals",
    "series.phase_bytes",
    "series.refine_rounds",
    "series.fresh_point_ratio",
    "series.line_sup_report_s",
    "series.cert_slack_rel",
)
COVERAGE = {
    "kernel-lines": _SERIES + (
        "series.halfplane_norm_s",
        "series.coefficient_recover_s",
        "riesz.uniform_error_s",
        "riesz.sigma_u_k_s",
        "bounds.partial_sup_profile_s",
        "bounds.abscissa_s",
        "estimates.windowed_limsup_s",
        "trace.overhead_s",
    ),
    "cli-burst": (
        "cli.build_parser_s",
        "cli.handler_s",
        "cli.render_s",
        "cli.stdout_bytes",
    ) + _SERIES + (
        "riesz.uniform_error_s",
        "riesz.mean_s",
        "bounds.theorem_bound_profile_s",
        "bounds.abscissa_s",
        "frequency.make_s",
        "frequency.checks_s",
        "estimates.windowed_limsup_s",
        "perron.integral_s",
        "perron.rounds",
        "perron.integrand_points",
        "neder.construct_s",
        "neder.fejer_sup_s",
        "neder.cauchy_check_s",
        "acceptance.criterion_9_s",
        "trace.overhead_s",
    ),
    "acceptance": _SERIES + (
        "series.halfplane_norm_s",
        "riesz.uniform_error_s",
        "riesz.quad_s",
        "riesz.mean_s",
        "bounds.partial_sup_profile_s",
        "bounds.theorem_bound_profile_s",
        "bounds.sn_bound_optimal_s",
        "bounds.sn_bound_calls",
        "bounds.hardy_check_s",
        "frequency.make_s",
        "frequency.checks_s",
        "estimates.windowed_limsup_s",
        "perron.integral_s",
        "perron.rounds",
        "perron.integrand_points",
        "neder.construct_s",
        "neder.identity_residual_s",
        "neder.fejer_sup_s",
        "neder.cauchy_check_s",
    ) + tuple(f"acceptance.criterion_{cid}_s" for cid in range(1, 13)) + ("trace.overhead_s",),
}

# Per-layer metric name -> unit, as BENCHMARK.json lists them: the import
# costs once, every other metric per workload that reaches it.
PER_LAYER = {
    **{m: unit for m, (unit, _) in LAYER_METRICS.items() if m.startswith("import.")},
    **{f"{wl}.{m}": LAYER_METRICS[m][0] for wl, names in COVERAGE.items() for m in names},
}


def layer_metrics(tracer: Tracer, stdout_bytes: int = 0) -> dict:
    """Per-layer values from one traced batch (runner-filled ones excluded)."""
    spans = tracer.spans
    child_cover = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_cover[parent] += end - start

    def outer(idx, name: str) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    out = {}
    for metric, (_, rule) in LAYER_METRICS.items():
        if rule in (_COMPUTED, _RUNNER):
            continue
        span_name = metric.rsplit("_", 1)[0]
        idxs = by_name.get(span_name, [])
        durs = [spans[i][2] - spans[i][1] for i in idxs]
        if rule == _CALLS:
            out[metric] = len(idxs)
        elif rule == _MEAN:
            out[metric] = statistics.fmean(durs) if durs else 0.0
        elif rule == _SELF:
            out[metric] = float(sum(d - child_cover[i] for i, d in zip(idxs, durs)))
        else:
            out[metric] = float(sum(d for i, d in zip(idxs, durs) if outer(i, span_name)))

    run_total = sum(spans[i][2] - spans[i][1] for i in by_name.get("cli.run", ()))
    out["cli.render_s"] = (
        max(0.0, run_total - out["cli.build_parser_s"] - out["cli.handler_s"]) if run_total else 0.0
    )
    out["cli.stdout_bytes"] = stdout_bytes
    counts = tracer.counts
    out["series.phase_evals"] = counts["series.phase_evals"]
    out["series.phase_bytes"] = 16 * counts["series.phase_evals"]
    out["series.refine_rounds"] = counts["series.refine_rounds"]
    evaluated = counts["series.evaluated_points"]
    out["series.fresh_point_ratio"] = counts["series.final_points"] / evaluated if evaluated else 0.0
    slack = tracer.samples["series.cert_slack_rel"]
    out["series.cert_slack_rel"] = statistics.median(slack) if slack else 0.0
    out["perron.rounds"] = counts["perron.rounds"]
    out["perron.integrand_points"] = counts["perron.integrand_points"]
    return out
