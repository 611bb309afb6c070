"""The three benchmark workloads: inputs from a seed, operations, and checks.

Each workload makes its inputs from ``--seed`` with its own numpy generator;
the package only sees the generated values, arrays and argv lists.  Sizes
and accuracies are fixed per workload, so a seed changes values, never the
amount of work asked for.

Every operation's output is checked two ways:

* ``summarize`` reduces it to a record that is compared with the record the
  seed commit produced for the same seed (``expected/<workload>.json``; only
  for the seeds shipped there).  Floats agree to 1e-9 relative to
  max(1, |expected|), the tolerance of the acceptance goldens; strings, ints
  and booleans exactly.  CLI output is compared by exit code and by a SHA-256
  digest of its bytes with ``certifiedUpper`` values masked.
* ``invariants`` checks properties that hold at any seed.  Certified upper
  bounds are checked as inequalities only.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# The package is imported inside the workload methods, so a runner that only
# spawns command-line processes (cli-burst) never pays for importing it.

__all__ = ["WORKLOADS", "compare"]

REL_TOL = 1e-9  # acceptance goldens: 1e-9 at unit scale


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def compare(expected, actual, path: str = "") -> list:
    """Mismatches between an expected and an actual summary record."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"]
        return [m for k in expected for m in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length {len(actual) if isinstance(actual, list) else actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if math.isfinite(expected) or math.isfinite(actual):
            return [] if close(float(actual), expected) else [f"{path}: {actual!r} != {expected!r}"]
        return [] if repr(float(actual)) == repr(expected) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _normals(rng: np.random.Generator, m: int) -> np.ndarray:
    """Complex standard normal coefficients (the seeded-normal family)."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


class Workload:
    in_process = True

    def setup(self, seed: int, scratch: str):
        """Input generation; runs before the first timed operation."""
        raise NotImplementedError

    def ops(self, inputs) -> list:
        """[(op name, zero-argument callable)] in execution order."""
        raise NotImplementedError

    def run_batch(self, inputs, timed):
        """Run the operations closed-loop; ``timed(name, fn)`` times one."""
        for name, fn in self.ops(inputs):
            timed(name, fn)

    def summarize(self, name: str, out):
        raise NotImplementedError

    def invariants(self, name: str, out, inputs) -> list:
        return []


# ---------------------------------------------------------------------------
# kernel-lines: vertical-line evaluation through the exp(-i t lambda) kernel

KINDS = ("log", "logprimes", "linear")
LINE_GRID = (1e-3, 0.0, 100.0, 0.05)  # sigma, t_min, t_max, step


def _check_sup(D, N, grid, rep) -> list:
    from gdseries import series

    bad = []
    cap = D.abs_sum(grid.sigma, N)
    slack = REL_TOL * max(1.0, cap)
    if not rep.value <= rep.certified_upper:
        bad.append(f"value {rep.value!r} > certifiedUpper {rep.certified_upper!r}")
    if not rep.value <= cap + slack:
        bad.append(f"value {rep.value!r} > sum|a|e^(-lambda sigma) {cap!r}")
    direct = abs(series.evaluate(D, complex(grid.sigma, rep.t_at_max), N))
    if not abs(rep.value - direct) <= slack:
        bad.append(f"value {rep.value!r} != |D(sigma + i tAtMax)| {direct!r}")
    if not grid.t_min <= rep.t_at_max <= grid.t_max:
        bad.append(f"tAtMax {rep.t_at_max!r} outside the window")
    return bad


def _check_norm(D, rep) -> list:
    bad = []
    cap = D.abs_sum(0.0)
    if rep.estimate != max(rep.line_values):
        bad.append("estimate is not the max of the line values")
    if not rep.estimate <= rep.certified_upper <= cap + 1e-12 * max(1.0, cap):
        bad.append(f"certifiedUpper {rep.certified_upper!r} outside [estimate, sum|a|]")
    for sg, v in zip(rep.sigma_levels, rep.line_values):
        if not v <= D.abs_sum(sg) * (1 + REL_TOL) + REL_TOL:
            bad.append(f"line value {v!r} at sigma {sg!r} above sum|a|e^(-lambda sigma)")
    return bad


def _check_estimate(est, which) -> list:
    bad = []
    if est.which != which:
        bad.append(f"which {est.which!r}")
    tail = [r for _, r in est.ratios[len(est.ratios) - est.window_size :]]
    if not tail or est.estimate != max(tail):
        bad.append("estimate is not the max over the final window")
    return bad


class KernelLines(Workload):

    def setup(self, seed, scratch):
        from gdseries import frequency, series

        rng = np.random.default_rng([seed, 101])
        ones = lambda m: np.ones(m, dtype=complex)
        inp = {
            "grid": series.LineGrid(*LINE_GRID),
            # the baseline rows, at the command line's default inputs
            "sup_log_10000_ones": series.DirichletSeries(frequency.make_frequency("log", 10_000), ones(10_000)),
            "norm_log_2000_ones": series.DirichletSeries(frequency.make_frequency("log", 2000), ones(2000)),
        }
        single = KINDS[int(rng.integers(len(KINDS)))]
        inp["single"] = (single, series.DirichletSeries(frequency.make_frequency(single, 10_000), _normals(rng, 10_000)))
        for kind in KINDS:
            per = {m: series.DirichletSeries(frequency.make_frequency(kind, m), _normals(rng, m)) for m in (20, 100, 1000, 2000, 3000)}
            lam_hi = float(per[1000].freq.values[-1])
            per["riesz_k"] = float(rng.choice([0.5, 1.0]))
            per["riesz_x"] = float(rng.uniform(0.3, 0.9)) * lam_hi
            per["recover_n"] = int(rng.integers(1, 51))
            inp[kind] = per
        lam_hi = float(inp["log"][100].freq.values[-1])
        inp["sigma_u_k_xs"] = [float(f) * lam_hi + 1e-3 for f in np.linspace(0.3, 1.0, 8)]
        return inp

    def ops(self, inp):
        from gdseries import bounds, riesz, series

        grid = inp["grid"]
        big, mid = inp["sup_log_10000_ones"], inp["norm_log_2000_ones"]
        single_kind, single = inp["single"]
        ops = [
            ("sup_log_10000_ones", lambda: series.line_sup_report(big, None, grid)),
            ("norm_log_2000_ones", lambda: series.halfplane_norm(mid)),
            ("sigma_u_log_2000_ones", lambda: bounds.sigma_u_estimate(mid, grid)),
            (f"sup1_{single_kind}_10000", lambda: series.line_sup_report(single, None, grid, max_rounds=1)),
            (
                "sigma_u_k_log_100",
                lambda: riesz.sigma_u_k_estimate(inp["log"][100], inp["log"]["riesz_k"], inp["sigma_u_k_xs"], grid),
            ),
        ]
        for kind in KINDS:
            p = inp[kind]
            ops += [
                (f"sup_{kind}_100", lambda p=p: series.line_sup_report(p[100], None, grid)),
                (f"norm_{kind}_20", lambda p=p: series.halfplane_norm(p[20])),
                (f"sup1_{kind}_3000", lambda p=p: series.line_sup_report(p[3000], None, grid, max_rounds=1)),
                (f"sigma_u_{kind}_2000", lambda p=p: bounds.sigma_u_estimate(p[2000], grid)),
                (
                    f"riesz_error_{kind}_1000",
                    lambda p=p: riesz.riesz_uniform_error(
                        series.with_self_reference(p[1000]), p["riesz_k"], 0.5, p["riesz_x"], grid
                    ),
                ),
                (
                    f"recover_{kind}_1000",
                    lambda p=p: series.coefficient_recover(
                        series.with_self_reference(p[1000]), p["recover_n"], 1.0, 100.0, 0.05
                    ),
                ),
            ]
        return ops

    def _series_of(self, name, inp):
        parts = name.split("_")
        if name == "sup_log_10000_ones":
            return inp["sup_log_10000_ones"]
        if name.endswith("_ones"):
            return inp["norm_log_2000_ones"]
        if name.startswith("sup1_") and name.endswith("_10000"):
            return inp["single"][1]
        kind, m = parts[-2], int(parts[-1])
        return inp[kind][m]

    def summarize(self, name, out):
        if name.startswith(("sup_", "sup1_")):
            return {"value": out.value, "rounds": out.rounds, "step": out.step}
        if name.startswith("norm_"):
            return {"estimate": out.estimate, "lineValues": list(out.line_values)}
        if name.startswith("sigma_u_k_"):
            return {"estimate": out.estimate, "trend": out.trend, "ratios": [list(p) for p in out.ratios]}
        if name.startswith("sigma_u_"):
            ratios = [r for _, r in out.ratios]
            return {
                "estimate": out.estimate,
                "windowSize": out.window_size,
                "trend": out.trend,
                "pairs": len(ratios),
                "ratioSamples": ratios[:: max(1, len(ratios) // 16)],
            }
        if name.startswith("riesz_error_"):
            return {"error": out}
        return {"value": _pair(out)}

    def invariants(self, name, out, inp):
        from gdseries import riesz, series

        grid = inp["grid"]
        D = self._series_of(name, inp)
        if name.startswith(("sup_", "sup1_")):
            return _check_sup(D, None, grid, out)
        if name.startswith("norm_"):
            return _check_norm(D, out)
        if name.startswith("sigma_u_k_"):
            # each ratio is log(sup of a truncation)/x; the sup is at most the
            # truncation's coefficient sum
            bad = _check_estimate(out, "sigma_u_k")
            k = inp["log"]["riesz_k"]
            for i, r in out.ratios:
                x = inp["sigma_u_k_xs"][i - 1]
                cap = riesz.riesz_truncation(D, k, x).abs_sum(0.0)
                if not math.exp(r * x) <= cap * (1 + REL_TOL):
                    bad.append(f"line sup of the length-{x!r} mean above its coefficient sum")
            return bad
        if name.startswith("sigma_u_"):
            bad = _check_estimate(out, "sigma_u")
            n, r = out.ratios[-1]
            if not math.exp(r * float(D.freq.values[n - 1])) <= D.abs_sum(0.0, n) * (1 + REL_TOL):
                bad.append(f"grid sup of S_{n} above sum|a_n|")
            return bad
        if name.startswith("riesz_error_"):
            p = inp[name.split("_")[-2]]
            k, x = p["riesz_k"], p["riesz_x"]
            cap = D.abs_sum(0.5)
            if not (math.isfinite(out) and 0.0 <= out <= 2.0 * cap * (1 + REL_TOL)):
                return [f"error {out!r} outside [0, 2 sum|a|e^(-lambda sigma)]"]
            ts = grid.points()
            bad = []
            for t in (ts[0], ts[ts.size // 3], ts[-1]):
                s = complex(0.5, float(t))
                gap = abs(riesz.riesz_mean(D, k, x, s) - series.evaluate(D, s))
                if not gap <= out + REL_TOL * max(1.0, cap):
                    bad.append(f"|R - f| = {gap!r} at t = {t!r} above the reported max {out!r}")
            return bad
        p = inp[name.split("_")[-2]]
        lam = float(D.freq.values[p["recover_n"] - 1])
        if not abs(out) <= D.abs_sum(1.0) * math.exp(lam) * (1 + REL_TOL):
            return [f"|recovered| {abs(out)!r} above max|f| e^(sigma lambda_n)"]
        return []


# ---------------------------------------------------------------------------
# cli-burst: short command-line invocations, one process each

_CERT = re.compile(rb'("certifiedUpper": )[^,\n}]+')


def cli_digest(stdout: bytes) -> str:
    """SHA-256 of the output bytes with certifiedUpper values masked."""
    return hashlib.sha256(_CERT.sub(rb"\1*", stdout)).hexdigest()


class CliBurst(Workload):
    in_process = False

    def __init__(self, inproc: bool = False):
        self.inproc = inproc

    def setup(self, seed, scratch):
        rng = np.random.default_rng([seed, 202])
        freq_file = os.path.join(scratch, "freq.txt")
        coeffs_file = os.path.join(scratch, "coeffs.csv")
        lam = np.cumsum(rng.uniform(0.05, 0.5, 200))
        with open(freq_file, "w") as fp:
            fp.write("# generated frequency\n" + "".join(f"{v!r}\n" for v in lam.tolist()))
        with open(coeffs_file, "w") as fp:
            fp.write("index,re,im\n")
            for k, c in enumerate(_normals(rng, 200).tolist(), start=1):
                fp.write(f"{k},{c.real!r},{c.imag!r}\n")
        pick = lambda seq: seq[int(rng.integers(len(seq)))]
        s = lambda: str(int(rng.integers(0, 10_000)))
        argvs = [
            ("freq", ["freq", "check-lc", "--kind", pick(["interleave-exp2", "sqrtlog", "linear"]), "--n", "2000", "--delta", pick(["0.25", "0.5"])], 0),
            ("series_eval_files", ["series", "eval", "--freq-file", freq_file, "--coeffs-file", coeffs_file, "--sigma", f"{rng.uniform(0.1, 1.0):.3f}", "--t", f"{rng.uniform(0.0, 50.0):.3f}"], 0),
            ("series_sup", ["series", "sup", "--kind", pick(KINDS), "--n", "50", "--coeffs", "seeded-normal", "--seed", s(), "--grid-t-max", "50"], 0),
            ("riesz", ["riesz", "error", "--kind", "linear", "--n", "64", "--k", pick(["0.5", "1"]), "--x", f"{rng.uniform(10.5, 50.5):.3f}", "--sigma", "0.5", "--grid-t-max", "20"], 0),
            ("bound_profile", ["bound", "profile", "--kind", "log", "--n", "10000", "--regime", "bc"], 0),
            ("abscissa_csv", ["abscissa", "sigma-a", "--kind", pick(KINDS), "--n", "5000", "--coeffs", "seeded-normal", "--seed", s(), "--format", "csv"], 0),
            ("perron", ["perron", "check", "--kind", "linear", "--n", "3", "--x", f"{rng.uniform(1.1, 1.9):.3f}", "--k", "1", "--epsilon", "0.5", "--t-height", "2000", "--quad-tol", "0.01"], 0),
            ("neder", ["neder", "cauchy", "--kind", "linear", "--n", "6", "--x", pick(["0.05", "0.1", "0.25"]), "--k-low", "1", "--k-high", "3", "--grid-t-max", "20", "--grid-step", "0.1"], 0),
            ("suite", ["suite", "acceptance", "--only", "9"], 0),
            ("usage_error", pick([["frq"], ["freq"], ["freq", "make", "--bogus"], ["series", "sup", "--kind", "nope"]]), 2),
        ]
        if self.inproc:
            import gdseries.cli  # noqa: F401  (in-process runs import before timing)
        return {"argvs": argvs}

    def _run_subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gdseries.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def _run_inproc(self, argv):
        from gdseries import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue().encode()

    def ops(self, inp):
        run = self._run_inproc if self.inproc else self._run_subprocess
        return [(name, lambda argv=argv: run(argv)) for name, argv, _ in inp["argvs"]]

    def summarize(self, name, out):
        code, stdout = out
        return {"exit": code, "sha256": cli_digest(stdout)}

    def invariants(self, name, out, inp):
        code, stdout = out
        argv, want = next((a, w) for n, a, w in inp["argvs"] if n == name)
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if want != 0:
            return [] if stdout == b"" else ["usage error wrote to stdout"]
        text = stdout.decode()
        if "--format" in argv:
            lines = text.splitlines()
            if lines[:1] != ["index,ratio"] or len(lines) < 2:
                return [f"CSV header {lines[:1]!r}"]
            return [f"bad CSV row {ln!r}" for ln in lines[1:] if len(ln.split(",")) != 2 or not all(_is_number(c) for c in ln.split(","))][:3]
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return [f"JSON does not parse: {exc}"]
        if name == "series_sup" and not payload["value"] <= payload["certifiedUpper"]:
            return ["value above certifiedUpper"]
        if name == "bound_profile" and len(payload["rows"]) != 9998:
            return [f"{len(payload['rows'])} profile rows, expected 9998"]
        if name == "suite" and payload["failed"] != 0:
            return ["suite reported a failed criterion"]
        if name == "perron" and not payload["residual"] <= payload["budget"]:
            return ["Perron residual above its budget"]
        if name == "neder" and not payload["satisfied"]:
            return ["Cauchy bound not satisfied"]
        return []


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# acceptance: one run_all per batch, one operation per criterion

EXPECTED_FAILING = {5, 12}


class Acceptance(Workload):

    def setup(self, seed, scratch):
        import gdseries.acceptance  # noqa: F401  (imports are set-up, not batch time)

        return {"seed": seed}

    def run_batch(self, inp, timed):
        """One ``run_all``; each ``run_criterion`` call it makes is one op."""
        from gdseries import acceptance

        inner = acceptance.run_criterion

        def probe(cid, seed=7):
            return timed(f"criterion_{cid}", lambda: inner(cid, seed))

        acceptance.run_criterion = probe
        try:
            acceptance.run_all(inp["seed"])
        finally:
            acceptance.run_criterion = inner

    def summarize(self, name, out):
        return {"pass": bool(out.passed), "detail": out.detail}

    def invariants(self, name, out, inp):
        cid = int(name.split("_")[1])
        if out.cid != cid:
            return [f"result for criterion {out.cid}"]
        if bool(out.passed) == (cid in EXPECTED_FAILING):
            return [f"criterion {cid} {'passed' if out.passed else 'failed'}: {out.detail}"]
        return [] if out.detail else ["empty detail"]


WORKLOADS = {
    "kernel-lines": KernelLines,
    "cli-burst": CliBurst,
    "acceptance": Acceptance,
}
