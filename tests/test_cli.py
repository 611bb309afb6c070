import argparse
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gdseries
from gdseries.cli import ACTIONS, HANDLERS, RunConfig, _jsonable, build_parser, run
from gdseries.neder import DivergenceRow
from gdseries.perron import PerronComparison, PerronResult
from gdseries.series import series_from_descriptor

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


# every ARGV case, and the perron actions whose --f-norm replaces only sum |a_n|
FLAG_CASES = [(key, []) for key in sorted(ARGV)] + [
    (("perron", action), ["--f-norm", "2"]) for action in ("required-t", "tail")
]


@pytest.mark.parametrize(
    "key, extra", FLAG_CASES, ids=[f"{c}-{a}" + ("-f-norm" if x else "") for (c, a), x in FLAG_CASES]
)
def test_every_accepted_flag_is_read(key, extra, monkeypatch, capsys):
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
    assert run(ARGV[key] + extra) == 0
    capsys.readouterr()
    parser = _subparser(_subparser(build_parser(), key[0]), key[1])
    accepted = {a.dest for a in parser._actions} - {"help", "format", "out"}
    assert accepted - reads == set()


def _digest(out: str) -> str:
    return hashlib.sha256(_CERT.sub(r"\1*", out).encode()).hexdigest()


def _no_constant(token: str):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("key", sorted(ARGV), ids=lambda k: f"{k[0]}-{k[1]}")
def test_action_runs_and_emits_json(key, capsys):
    assert run(ARGV[key]) == 0
    out = capsys.readouterr().out
    json.loads(out, parse_constant=_no_constant)  # strict JSON on stdout
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


def _types(value):
    """The set of types anywhere inside a converted payload."""
    if isinstance(value, dict):
        return {dict}.union(*map(_types, value.values()))
    if isinstance(value, list):
        return {list}.union(*map(_types, value))
    return {type(value)}


def test_serializer_gives_plain_python_types():
    row = DivergenceRow(n=np.int64(2), k=np.int64(0), r=3, block_sum=np.float64(0.5), threshold=0.25,
                        passed=np.bool_(True), exempt=False)
    perron = PerronResult(value=np.complex128(1 + 2j), tail=np.float64(1e-3), T=10.0, step=0.05,
                          rounds=np.int64(4), f_norm=1.0)
    payload = {"rows": (row,), "check": PerronComparison(perron, 1 - 1j, np.float64(0.1), 0.2),
               "z": np.complex128(-1j), "pair": (np.float64(0.5), np.int64(1)), "flag": np.bool_(False),
               "zs": np.array([1 + 1j, 2]), "ns": np.arange(3)}
    out = _jsonable(payload)
    assert _types(out) == {dict, list, int, float, bool}
    assert out == {
        "rows": [{"n": 2, "k": 0, "r": 3, "blockSum": 0.5, "threshold": 0.25, "pass": True, "exempt": False}],
        "check": {
            "perron": {"value": [1.0, 2.0], "tailBound": 1e-3, "T": 10.0, "step": 0.05, "rounds": 4, "fNorm": 1.0},
            "direct": [1.0, -1.0], "residual": 0.1, "budget": 0.2, "withinBudget": True,
        },
        "z": [0.0, -1.0], "pair": [0.5, 1], "flag": False, "zs": [[1.0, 1.0], [2.0, 0.0]], "ns": [0, 1, 2],
    }


def test_no_class_in_the_package_defines_to_dict():
    # JSON keys are named only by the CLI serializer
    modules = [importlib.import_module(f"gdseries.{m.name}") for m in pkgutil.iter_modules(gdseries.__path__)]
    owners = [f"{m.__name__}.{name}" for m in modules for name, obj in vars(m).items()
              if isinstance(obj, type) and obj.__module__ == m.__name__ and "to_dict" in vars(obj)]
    assert owners == []


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
        # --params is read only by the custom-from-list kind
        ["freq", "make", "--kind", "log", "--n", "3", "--params", "5", "6", "7"],
        ["freq", "make", "--n", "1", "--params", "5"],
        # riesz error always checks against the series' own sum
        ["riesz", "error", "--kind", "linear", "--n", "8", "--k", "1", "--x", "4.0", "--no-self-reference"],
    ):
        _assert_exit_2(argv, capsys)


def test_domain_errors_exit_2(tmp_path, capsys):
    non_finite = tmp_path / "coeffs.csv"
    non_finite.write_text("index,re,im\n1,1.0,0.0\n2,nan,0.0\n3,1.0,inf\n")
    freq_file, coeffs_file, descriptor = _source_files(tmp_path)
    missing = str(tmp_path / "missing")
    bad = []  # descriptor frequencies: no kind, params not a list, m a list, m overflowing, params unread
    for k, text in enumerate(('{"m": 3}', '{"kind": "custom-from-list", "m": 2, "params": 5}',
                              '{"kind": "linear", "m": [1]}', '{"kind": "linear", "m": 1e400}',
                              '{"kind": "linear", "m": 2, "params": [1, 2]}')):
        bad.append(tmp_path / f"bad{k}.json")
        bad[-1].write_text(f'{{"frequency": {text}, "coefficients": "ones"}}')
    for argv in [["series", "coeffs", "--descriptor", str(path)] for path in bad] + [
        # --f-norm replaces sum |a_n| only: the source is still read
        ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--t-height", "1000",
         "--f-norm", "2", "--coeffs-file", missing],
        ["perron", "required-t", "--x", "1.5", "--k", "1", "--f-norm", "2", "--descriptor", missing],
        # a source flag that another source would silently override
        ["freq", "make", "--kind", "log", "--n", "50", "--freq-file", freq_file],
        ["series", "coeffs", "--descriptor", descriptor, "--coeffs", "alternating", "--n", "7"],
        ["series", "coeffs", "--coeffs-file", coeffs_file, "--coeffs", "ones"],
        ["series", "sup", "--freq-file", freq_file, "--params", "1", "--grid-t-max", "10"],
        ["bound", "sn", "--kind", "linear", "--n", "5", "--n-index", "0", "--k", "1"],
        ["series", "sup", "--kind", "log", "--n", "12", "--grid-t-max", "10", "--tol-sup", "0"],
        # gaps near 1e-15 too small for 2r distinct points repeat a float of eta
        ["neder", "build", "--kind", "interleave-exp2", "--n", "12", "--x", "0.1"],
        ["neder", "build", "--kind", "interleave-expexp2", "--n", "4", "--x", "0.1"],
        ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--samples", "0"],
        ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--samples", "-1"],
        # no block lies in the prefix, so the identity would check nothing
        ["neder", "identity", "--kind", "linear", "--n", "6", "--x", "0.1", "--k-prefix", "-5"],
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
        # non-finite results
        ["riesz", "typical", "--kind", "log", "--n", "10", "--k", "1", "--x", "3", "--sigma", "-1000"],
        ["series", "recover", "--kind", "linear", "--n", "4", "--n-index", "2", "--sigma", "1000"],
        # overflows
        ["riesz", "constants", "--k", "1e-320"],
        ["bound", "sn", "--kind", "interleave-exp2", "--n", "60", "--n-index", "59", "--k", "1"],
        ["perron", "required-t", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1e-3", "--epsilon", "0.5",
         "--tau", "1e-3"],
        ["perron", "eval", "--kind", "linear", "--n", "2", "--x", "1000", "--k", "1", "--epsilon", "1",
         "--t-height", "10", "--quad-tol", "0.01"],
        # results that are not finite numbers, which strict JSON cannot hold: a Perron
        # tail at k = 0, an abscissa estimate with no ratio, profile rows with an infinite ratio
        ["perron", "tail", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "0", "--t-height", "10"],
        ["perron", "eval", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "0", "--epsilon", "0.5",
         "--t-height", "200"],
        ["perron", "check", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "0", "--epsilon", "0.5",
         "--t-height", "200"],
        ["abscissa", "sigma-c", "--kind", "linear", "--n", "2", "--coeffs", "alternating"],
        ["abscissa", "sigma-u", "--kind", "linear", "--n", "1", "--grid-t-max", "5"],
        ["bound", "profile", "--kind", "interleave-expexp2", "--n", "40", "--regime", "bc"],
        ["bound", "profile", "--kind", "interleave-expexp2", "--n", "40", "--regime", "bc", "--format", "csv"],
        # the parameter a profile regime reads, as freq check-lc and check-poly refuse it
        ["bound", "profile", "--kind", "log", "--n", "50", "--regime", "lc", "--delta", "0"],
        ["bound", "profile", "--kind", "log", "--n", "50", "--regime", "poly", "--d", "-1"],
        # grids larger than the address space (728 TiB, 142 PiB, 56.8 PiB): the allocation fails at once
        ["series", "sup", "--kind", "log", "--n", "5", "--grid-step", "1e-12", "--grid-t-max", "100"],
        ["series", "recover", "--kind", "linear", "--n", "4", "--n-index", "2", "--grid-step", "1e-12"],
        ["perron", "eval", "--kind", "linear", "--n", "2", "--x", "1.5", "--k", "1", "--epsilon", "0.5",
         "--t-height", "2000", "--step", "1e-12", "--quad-tol", "0.01"],
        # a gap refined into more points than an array can hold
        ["freq", "refine", "--kind", "custom-from-list", "--n", "2", "--params", "0", "1e300"],
        # a quadrature that does not converge
        ["riesz", "fractional", "--kind", "interleave-expexp2", "--n", "9", "--k", "0.5", "--t-point", "3.7",
         "--tau", "0"],
    ]:
        _assert_exit_2(argv, capsys)
    # a mistyped tag that names no file lists the builtin tags
    assert run(["series", "coeffs", "--coeffs", "alternatng"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coefficients 'alternatng' are neither a file nor a builtin tag "
        "(ones, alternating, inverse-square, seeded-normal[:SEED])\n"
    )
    # a zero length is named as such, from a flag and from a descriptor
    zero = tmp_path / "zero.json"
    zero.write_text('{"frequency": {"kind": "linear", "m": 0}, "coefficients": "ones"}')
    for argv in (["freq", "make", "--n", "0"], ["series", "coeffs", "--descriptor", str(zero)]):
        assert run(argv) == 2
        assert "M must be >= 1" in capsys.readouterr().err


def _source_files(tmp_path):
    """A frequency file, a coefficient file and a descriptor that names both."""
    freq_file = tmp_path / "freq.txt"
    freq_file.write_text("0.0\n0.5\n1.25\n")
    coeffs_file = tmp_path / "coeffs3.csv"
    coeffs_file.write_text("index,re,im\n1,1.0,0.0\n2,-0.5,0.25\n3,0.0,1.0\n")
    descriptor = tmp_path / "series.json"
    descriptor.write_text(json.dumps({"frequency": str(freq_file), "coefficients": str(coeffs_file)}))
    return str(freq_file), str(coeffs_file), str(descriptor)


def test_each_source_alone_is_read(tmp_path, capsys):
    freq_file, coeffs_file, descriptor = _source_files(tmp_path)
    assert run(["freq", "make", "--freq-file", freq_file]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [0.0, 0.5, 1.25]
    want = {"M": 3, "absSum": 2.5590169943749475, "coefficientsHead": [[1.0, 0.0], [-0.5, 0.25], [0.0, 1.0]],
            "tag": coeffs_file}
    for argv in (
        ["--descriptor", descriptor, "--seed", "3"],
        ["--freq-file", freq_file, "--coeffs-file", coeffs_file],
        ["--kind", "linear", "--n", "3", "--coeffs-file", coeffs_file],
    ):
        assert run(["series", "coeffs"] + argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {key: payload[key] for key in want} == want, argv
    assert run(["freq", "make", "--kind", "custom-from-list", "--n", "2", "--params", "1", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [1.0, 3.0]


def test_every_input_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    files = _source_files(tmp_path)
    freq_file, _, descriptor = files
    argvs = (["freq", "make", "--freq-file", freq_file], ["series", "coeffs", "--descriptor", descriptor],
             ["series", "sup", "--descriptor", descriptor])
    plain = []
    for argv in argvs:
        assert run(argv) == 0
        plain.append(capsys.readouterr().out)
    want = series_from_descriptor(descriptor).coeffs
    for name in files:
        Path(name).write_text("\ufeff" + Path(name).read_text(), encoding="utf-8")
    for argv, out in zip(argvs, plain):
        assert run(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out == out
    assert np.array_equal(series_from_descriptor(descriptor).coeffs, want)


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


@pytest.mark.parametrize("coeffs", ["ones", "alternating", "inverse-square", "seeded-normal", "file"])
def test_coefficient_csv_output_is_the_library_file_format(coeffs, tmp_path, capsys):
    # --format csv renders the coefficient table itself; write_coefficients_csv
    # writes the same format separately, and --coeffs-file reads either back
    rng = np.random.default_rng(11)
    source = tmp_path / "source.csv"
    gdseries.write_coefficients_csv(source, rng.standard_normal(9) / 3.0 + 1j * rng.standard_normal(9) * 1e-5)
    spec = str(source) if coeffs == "file" else coeffs
    D = gdseries.series_from_descriptor({"frequency": {"kind": "log", "m": 9}, "coefficients": spec}, seed=3)
    flags = ["--kind", "log", "--n", "9", "--seed", "3"]
    flags += ["--coeffs-file", spec] if coeffs == "file" else ["--coeffs", spec]
    for action, want in (
        (["series", "coeffs"], D.coeffs),
        (["series", "translate", "--sigma", "0.3", "--t", "1.7"], gdseries.translate(D, 0.3 + 1.7j).coeffs),
        (["riesz", "truncate", "--k", "0.5", "--x", "1.5"], gdseries.riesz_truncation(D, 0.5, 1.5).coeffs),
    ):
        assert run(action + flags + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        written = tmp_path / "written.csv"
        gdseries.write_coefficients_csv(written, want)
        assert text.encode() == written.read_bytes(), action
        rendered = tmp_path / "rendered.csv"
        rendered.write_text(text)
        assert np.array_equal(gdseries.read_coefficients_csv(rendered), want)
        back = ["series", "coeffs", "--kind", "log", "--n", str(want.size), "--coeffs-file", str(rendered)]
        assert run(back + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == text


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


# ---------------------------------------------------------------------------
# the input layer, fuzzed: every input exits 0 with the values it holds, or 2
# with an error message and nothing on stdout.  A case is (argv, files to
# write in the working directory, the payload items a valid input gives, or
# None for an input that must be refused).

_NUMBER = st.floats(-1e6, 1e6)


@st.composite
def _coefficient_files(draw):
    values = draw(st.lists(st.tuples(_NUMBER, _NUMBER), min_size=1, max_size=12))
    rows = ["index,re,im"] + [f"{k},{re!r},{im!r}" for k, (re, im) in enumerate(values, start=1)]
    fault = draw(st.sampled_from(["", "blank", "missing", "index", "nan", "inf", "bom"]))
    k = draw(st.integers(1, len(values)))
    if fault == "blank":
        rows.insert(k, draw(st.sampled_from(["", " ", ",,"])))
    elif fault == "missing":
        rows[k] = rows[k].rsplit(",", 1)[0]
    elif fault == "index":
        rows[k] = f"{k + 1}," + rows[k].split(",", 1)[1]
    elif fault in ("nan", "inf"):
        rows[k] = rows[k].rsplit(",", 1)[0] + f",{fault}"
    text = ("\ufeff" if fault == "bom" else "") + "\n".join(rows) + "\n"
    heads = [[re, im] for re, im in values[:8]]
    want = {"M": len(values), "coefficientsHead": heads, "tag": "c.csv"} if fault in ("", "blank", "bom") else None
    argv = ["series", "coeffs", "--kind", "linear", "--n", str(len(values)), "--coeffs-file", "c.csv"]
    return argv, {"c.csv": text}, want


@st.composite
def _frequency_files(draw):
    values = draw(st.lists(st.floats(-2.0, 50.0), min_size=1, max_size=12))
    if draw(st.booleans()):
        values = sorted(set(abs(v) for v in values))
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from([math.nan, values[0]])))
    lines = [f"{v!r}" + draw(st.sampled_from(["", " # note", "\n", "\n# comment"])) for v in values]
    bom = "\ufeff" if draw(st.booleans()) else ""
    ok = values[0] >= 0 and all(a < b for a, b in zip(values, values[1:]))  # False on NaN
    want = {"M": len(values), "values": values} if ok else None
    return ["freq", "make", "--freq-file", "f.txt"], {"f.txt": bom + "\n".join(lines) + "\n"}, want


def _descriptor_length(desc, rows: int):
    """M of a valid descriptor whose coefficient file has ``rows`` rows, else None."""
    if not isinstance(desc, dict) or set(desc) != {"frequency", "coefficients"}:
        return None
    freq, coeffs = desc["frequency"], desc["coefficients"]
    if coeffs not in ("ones", "alternating", "seeded-normal:3", "c.csv"):
        return None
    from_file = rows if coeffs == "c.csv" else None
    if freq == "f.txt":
        m = 3
    elif freq in ("linear", "log"):
        m = from_file
    elif isinstance(freq, dict) and set(freq) <= {"kind", "m", "params"}:
        m, kind, params = freq.get("m", from_file), freq.get("kind"), freq.get("params")
        custom = kind == "custom-from-list" and params == [0, 1.5, 4] and m == 3
        if not (custom or kind == "linear" and params is None) or type(m) is not int or m < 1:
            return None
    else:
        return None
    return m if from_file in (None, m) else None


_JUNK = [None, 3, 2.5, "3", [1], {}, math.inf, "absent.txt", "seeded-normal:x", [0, 1.5, 4]]
_DROP = "drop the key"
# a descriptor fault: a part, or a key of the frequency object, set to a junk
# value or dropped; an unknown key; a list in place of the object
_FAULTS = [None] * 20 + [("list", None), ("seed", 3)] + [
    (key, value) for key in ("frequency", "coefficients", "kind", "m", "params", "n") for value in _JUNK + [_DROP]
]


@st.composite
def _descriptors(draw):
    fault = draw(st.sampled_from(_FAULTS))
    m = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([m, 3]))
    freq = draw(st.sampled_from(["f.txt", "linear", "log", {"kind": "linear"}, {"kind": "linear", "m": m},
                                 {"kind": "custom-from-list", "m": 3, "params": [0, 1.5, 4]}]))
    coeffs = draw(st.sampled_from(["c.csv", "ones", "alternating", "seeded-normal:3"]))
    desc = {"frequency": freq, "coefficients": coeffs}
    if fault == ("list", None):
        desc = [desc]
    elif fault is not None:
        key, value = fault
        if key in ("kind", "m", "params", "n") and not isinstance(freq, dict):
            freq = desc["frequency"] = {"kind": "linear", "m": m}
        target = freq if key in ("kind", "m", "params", "n") else desc
        if value == _DROP:
            target.pop(key, None)
        else:
            target[key] = value
    m = _descriptor_length(desc, rows)
    files = {
        "d.json": json.dumps(desc),
        "f.txt": "0\n1.5\n4\n",
        "c.csv": "index,re,im\n" + "".join(f"{k},1.0,0.5\n" for k in range(1, rows + 1)),
    }
    want = None if m is None else {"M": m, "tag": desc["coefficients"]}
    return ["series", "coeffs", "--descriptor", "d.json"], files, want


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases=st.tuples(_descriptors(), _coefficient_files(), _frequency_files()))
@example(cases=[(["freq", "make", "--kind", "interleave-expexp2", "--n", str(n)], {}, {"M": n})
                for n in (1, 2, 10**5)])
# the derandomized draws may hold no byte-order mark
@example(cases=[(["series", "coeffs", "--kind", "linear", "--n", "2", "--coeffs-file", "c.csv"],
                 {"c.csv": "\ufeffindex,re,im\n1,1.5,0.0\n2,-2.0,0.25\n"},
                 {"M": 2, "coefficientsHead": [[1.5, 0.0], [-2.0, 0.25]], "tag": "c.csv"}),
                (["freq", "make", "--freq-file", "f.txt"], {"f.txt": "\ufeff0.0\n0.5\n1.0\n"},
                 {"M": 3, "values": [0.0, 0.5, 1.0]})])
def test_input_layer_fuzz(cases, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, files, want in cases:
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code = run(argv)
        out, err = capsys.readouterr()
        if want is None:
            assert (code, out) == (2, ""), (argv, files)
            assert err.startswith("error:"), err
        else:
            assert code == 0, (argv, files, err)
            payload = json.loads(out)
            assert {key: payload[key] for key in want} == want
