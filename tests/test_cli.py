import argparse
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gdseries
from gdseries.cli import ACTIONS, HANDLERS, RunConfig, build_parser, run

# one fast, known-good invocation per (command, action)
ARGV = {
    ("freq", "make"): ["freq", "make", "--kind", "log", "--n", "12"],
    ("freq", "check-bc"): ["freq", "check-bc", "--kind", "log", "--n", "50", "--l", "1", "--delta", "0.1"],
    ("freq", "check-lc"): ["freq", "check-lc", "--kind", "interleave-exp2", "--n", "20", "--delta", "0.5"],
    ("freq", "check-poly"): ["freq", "check-poly", "--kind", "sqrtlog", "--n", "40", "--l", "1", "--d", "2", "--delta", "0.1"],
    ("freq", "density"): ["freq", "density", "--kind", "log", "--n", "50"],
    ("freq", "refine"): ["freq", "refine", "--kind", "linear", "--n", "5"],
    ("series", "eval"): ["series", "eval", "--kind", "linear", "--n", "6", "--coeffs", "alternating", "--sigma", "0.5", "--t", "1.0"],
    ("series", "sup"): ["series", "sup", "--kind", "log", "--n", "12", "--grid-t-max", "10"],
    ("series", "norm"): ["series", "norm", "--kind", "log", "--n", "12", "--grid-t-max", "20", "--levels", "4"],
    ("series", "translate"): ["series", "translate", "--kind", "linear", "--n", "6", "--sigma", "0.3", "--t", "2.0"],
    ("series", "recover"): ["series", "recover", "--kind", "linear", "--n", "4", "--n-index", "2", "--sigma", "1.0", "--t-height", "2000"],
    ("series", "coeffs"): ["series", "coeffs", "--coeffs", "seeded-normal", "--n", "8", "--seed", "3"],
    ("riesz", "mean"): ["riesz", "mean", "--kind", "linear", "--n", "6", "--k", "1", "--x", "3.5"],
    ("riesz", "truncate"): ["riesz", "truncate", "--kind", "linear", "--n", "6", "--k", "0.5", "--x", "3.5"],
    ("riesz", "typical"): ["riesz", "typical", "--kind", "linear", "--n", "6", "--k", "1", "--x", "3.5", "--sigma", "0.2"],
    ("riesz", "abel"): ["riesz", "abel", "--kind", "linear", "--n", "6", "--k", "1", "--x", "3.3"],
    ("riesz", "fractional"): ["riesz", "fractional", "--kind", "linear", "--n", "4", "--k", "0.5", "--t-point", "2.5", "--tau", "1e-3"],
    ("riesz", "beta"): ["riesz", "beta", "--alpha", "1.5", "--beta", "2.5"],
    ("riesz", "error"): ["riesz", "error", "--kind", "linear", "--n", "8", "--k", "1", "--x", "4.0", "--sigma", "0.5", "--grid-t-max", "10"],
    ("riesz", "sigma-u-k"): ["riesz", "sigma-u-k", "--kind", "linear", "--n", "8", "--k", "1", "--xs", "2", "4", "6", "--grid-t-max", "6.3"],
    ("riesz", "constants"): ["riesz", "constants", "--k", "0.5"],
    ("bound", "sn"): ["bound", "sn", "--kind", "linear", "--n", "5", "--n-index", "3", "--k", "1"],
    ("bound", "sn-opt"): ["bound", "sn-opt", "--kind", "linear", "--n", "5", "--n-index", "3"],
    ("bound", "profile"): ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "bc", "--n-start", "30", "--n-stop", "50", "--n-step", "5"],
    ("bound", "hardy"): ["bound", "hardy", "--kind", "linear", "--n", "6", "--n-index", "3", "--k", "1"],
    ("bound", "kronecker"): ["bound", "kronecker", "--kind", "logprimes", "--n", "4"],
    ("abscissa", "sigma-c"): ["abscissa", "sigma-c", "--kind", "log", "--n", "50", "--coeffs", "alternating"],
    ("abscissa", "sigma-a"): ["abscissa", "sigma-a", "--kind", "log", "--n", "50"],
    ("abscissa", "sigma-u"): ["abscissa", "sigma-u", "--kind", "log", "--n", "16", "--grid-t-max", "20"],
    ("abscissa", "delta"): ["abscissa", "delta", "--kind", "log", "--n", "16", "--count", "4", "--grid-t-max", "20"],
    ("perron", "eval"): ["perron", "eval", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--epsilon", "0.5", "--t-height", "2000", "--quad-tol", "0.01"],
    ("perron", "check"): ["perron", "check", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--epsilon", "0.5", "--t-height", "2000", "--quad-tol", "0.01"],
    ("perron", "required-t"): ["perron", "required-t", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--epsilon", "0.5", "--tau", "1e-3"],
    ("perron", "tail"): ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--t-height", "1000"],
    ("neder", "build"): ["neder", "build", "--kind", "linear", "--n", "6", "--x", "0.1"],
    ("neder", "divergence"): ["neder", "divergence", "--kind", "linear", "--n", "6", "--x", "0.1"],
    ("neder", "cauchy"): ["neder", "cauchy", "--kind", "linear", "--n", "6", "--x", "0.1", "--k-low", "1", "--k-high", "3", "--grid-t-max", "20", "--grid-step", "0.1"],
    ("neder", "identity"): ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--k-prefix", "2", "--samples", "5"],
    ("neder", "fejer"): ["neder", "fejer", "--m", "4"],
    ("suite", "acceptance"): ["suite", "acceptance", "--only", "9"],
}


# SHA-256 of stdout for every ARGV case as JSON, and as CSV for the actions
# that have a table, with certifiedUpper values masked (a certificate may be
# tightened without changing anything else).  Recorded with numpy 2.4.6 and
# scipy 1.17.1 on x86-64; a mismatch means the CLI's output bytes changed.
DIGESTS = json.loads(Path(__file__).with_name("cli_digests.json").read_text())
_CERT = re.compile(r'("certifiedUpper": )[^,\n}]+')


def test_every_operation_has_exactly_one_subcommand():
    seen = {}
    for key, entry in ACTIONS.items():
        for op in entry.ops:
            assert op not in seen, f"{op} owned by both {seen[op]} and {key}"
            seen[op] = key
    modules = {op.split(".")[0] for op in seen}
    for op in seen:
        module, name = op.split(".")
        mod = importlib.import_module(f"gdseries.{module}")
        assert name in mod.__all__, f"registry names {op}, which is not in gdseries.{module}.__all__"
    # the modules' public operations: every callable in __all__ but the classes
    for module in modules:
        mod = importlib.import_module(f"gdseries.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type):
                assert f"{module}.{name}" in seen, f"{module}.{name} is reachable from no subcommand"


def test_handlers_cover_dispatch_exactly():
    assert set(HANDLERS) == set(ACTIONS)
    assert set(ARGV) == set(ACTIONS)


def _subparser(parser, name):
    choices = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return choices.choices[name]


@pytest.mark.parametrize("key", sorted(ARGV), ids=lambda k: f"{k[0]}-{k[1]}")
def test_every_accepted_flag_is_read(key, monkeypatch, capsys):
    reads = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    handler = HANDLERS[key]

    def recorded(cfg):
        cfg.__class__ = Recording
        return handler(cfg)

    monkeypatch.setitem(HANDLERS, key, recorded)
    assert run(ARGV[key]) == 0
    capsys.readouterr()
    parser = _subparser(_subparser(build_parser(), key[0]), key[1])
    accepted = {a.dest for a in parser._actions} - {"help", "format", "out"}
    assert accepted - reads == set()


def _digest(out: str) -> str:
    return hashlib.sha256(_CERT.sub(r"\1*", out).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(ARGV), ids=lambda k: f"{k[0]}-{k[1]}")
def test_action_runs_and_emits_json(key, capsys):
    assert run(ARGV[key]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # canonical JSON on stdout
    assert _digest(out) == DIGESTS[f"{key[0]}-{key[1]} json"]


@pytest.mark.parametrize("key", sorted(ARGV), ids=lambda k: f"{k[0]}-{k[1]}")
def test_csv_bytes_match_recorded_digest(key, capsys):
    want = DIGESTS.get(f"{key[0]}-{key[1]} csv")
    code = run(ARGV[key] + ["--format", "csv"])
    out = capsys.readouterr().out
    if want is None:  # JSON-only action
        assert (code, out) == (2, "")
    else:
        assert code == 0
        assert _digest(out) == want


def test_check_bc_reports_evidence_for_log_frequency(capsys):
    code = run(["freq", "check-bc", "--kind", "log", "--n", "100", "--l", "1", "--delta", "0.1", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "evidence-for"
    assert data["condition"] == "BC"


def test_sn_bound_matches_hand_value(capsys):
    assert run(ARGV[("bound", "sn")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(9.0 * math.e / math.pi, rel=1e-13)


def test_output_is_byte_deterministic(capsys):
    argv = ARGV[("freq", "density")]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_seeded_coefficients_follow_the_seed(capsys):
    base = ["series", "coeffs", "--coeffs", "seeded-normal", "--n", "8"]
    assert run(base + ["--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert run(base + ["--seed", "11"]) == 0
    again = capsys.readouterr().out
    assert run(base + ["--seed", "12"]) == 0
    other = capsys.readouterr().out
    assert first == again
    assert first != other


def _assert_exit_2(argv, capsys):
    assert run(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert "error:" in captured.err, argv


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["frq"],
        ["freq"],
        ["freq", "make", "--bogus"],
        ["suite", "acceptance", "--only", "99"],
        # sigma-u evaluates on Re s = 0 and takes no line
        ["abscissa", "sigma-u", "--kind", "log", "--n", "16", "--grid-t-max", "20", "--grid-sigma", "0.5"],
        # non-finite numbers
        ["series", "sup", "--kind", "log", "--n", "12", "--grid-sigma", "nan"],
        ["series", "sup", "--kind", "log", "--n", "12", "--grid-t-max", "inf"],
        ["series", "sup", "--kind", "log", "--n", "12", "--tol-sup", "nan"],
        ["riesz", "mean", "--kind", "linear", "--n", "6", "--k", "1", "--x", "nan"],
        ["riesz", "error", "--kind", "linear", "--n", "8", "--k", "1", "--x", "4.0", "--sigma", "nan"],
        ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--t-height", "nan"],
        ["neder", "build", "--kind", "linear", "--n", "6", "--x", "nan"],
        ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "lc", "--delta", "nan"],
    ):
        _assert_exit_2(argv, capsys)


def test_domain_errors_exit_2(tmp_path, capsys):
    non_finite = tmp_path / "coeffs.csv"
    non_finite.write_text("index,re,im\n1,1.0,0.0\n2,nan,0.0\n3,1.0,inf\n")
    for argv in (
        ["bound", "sn", "--kind", "linear", "--n", "5", "--n-index", "0", "--k", "1"],
        ["series", "sup", "--kind", "log", "--n", "12", "--grid-t-max", "10", "--tol-sup", "0"],
        ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--samples", "0"],
        ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--samples", "-1"],
        ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "bc", "--n-start", "70"],
        ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "bc", "--n-start", "30", "--n-stop", "100"],
        ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "bc", "--n-stop", "0"],
        ["bound", "profile", "--kind", "log", "--n", "60", "--regime", "bc", "--n-step", "0"],
        # a quadrature step wider than the window [-T, T]
        ["series", "recover", "--kind", "linear", "--n", "4", "--n-index", "2", "--t-height", "1000",
         "--grid-step", "5000"],
        # non-finite coefficients, read from a file or left by an overflow
        ["series", "sup", "--kind", "log", "--n", "3", "--coeffs-file", str(non_finite), "--grid-t-max", "10"],
        ["series", "translate", "--kind", "linear", "--n", "3", "--sigma", "-800"],
        ["series", "eval", "--kind", "linear", "--n", "3", "--sigma", "-800"],
        ["series", "norm", "--kind", "log", "--n", "12", "--levels", "0"],
        # a sigma ladder whose top level overflows
        ["series", "norm", "--kind", "log", "--n", "12", "--levels", "1030"],
        ["series", "norm", "--kind", "log", "--n", "12", "--levels", "1100"],
        ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--t-height", "0"],
        ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--t-height", "-5"],
    ):
        _assert_exit_2(argv, capsys)


def test_profile_range_flags_resolve_against_the_refined_frequency(capsys):
    # gaps of 3 are refined to 7 points, so the profile runs over N = 2..6
    argv = ["bound", "profile", "--kind", "custom-from-list", "--n", "3",
            "--params", "0", "3", "6", "--regime", "bc"]
    assert run(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["N"] for r in rows] == [2, 3, 4, 5, 6]
    assert run(argv + ["--n-start", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == rows
    assert run(argv + ["--n-stop", "5"]) == 0  # honoured without --n-start too
    assert json.loads(capsys.readouterr().out)["rows"] == rows[:3]


def test_riesz_truncate_below_the_first_frequency_is_empty(capsys):
    # x = 0.5 <= lambda_1 = 1, so no term survives
    argv = ["riesz", "truncate", "--kind", "custom-from-list", "--n", "2", "--params", "1", "2",
            "--k", "0.5", "--x", "0.5"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"empty": True, "terms": 0}
    assert run(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "index,re,im\n"


def test_csv_format_for_two_column_tables(capsys):
    argv = ARGV[("bound", "profile")] + ["--format", "csv"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,ratio"
    assert len(lines) > 1
    for line in lines[1:]:
        n, ratio = line.split(",")
        int(n)
        float(ratio)


def test_csv_format_rejected_without_a_table(capsys):
    argv = ARGV[("bound", "sn")] + ["--format", "csv"]
    assert run(argv) == 2
    assert "no CSV form" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "density.json"
    argv = ARGV[("freq", "density")] + ["--out", str(target)]
    assert run(argv) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["which"] == "L"


def test_suite_exit_codes(capsys):
    assert run(["suite", "acceptance", "--only", "9"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["failed"] == 0
    assert "elapsedSeconds" not in captured.out
    assert "criteria passed" in captured.err

    assert run(["suite", "acceptance", "--only", "5"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["failed"] == 1
    assert "[FAIL]" in captured.err


def test_scipy_loads_only_for_quadrature():
    # scipy is most of the import time of a CLI process; only the quadrature
    # functions of riesz may load it, and only when they run
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import gdseries.cli as cli
        from gdseries import riesz
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["freq", "make", "--kind", "log", "--n", "5"]) == 0
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        # the phase kernel's workers are plain threads: concurrent.futures
        # would import logging into every process
        print("concurrent.futures" in sys.modules)
        riesz.beta_identity(1.0, 2.0)
        print("scipy" in sys.modules)
        """
    )
    src = str(Path(gdseries.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False", "True"]
