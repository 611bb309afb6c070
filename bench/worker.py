"""One benchmark process: set up one workload, run one batch, check it.

Started by ``run.py`` in a fresh interpreter per batch, so caches and peak
RSS start empty as they do for a user.  It prints ``ready`` once its inputs
exist (the runner times set-up up to that line), runs the batch closed-loop,
checks every output and prints ``result <json>`` as its last line.

    python3 bench/worker.py --workload NAME --seed N [--mode batch|setup|record]
                            [--trace 0|1] [--inproc]

Outputs are compared with ``expected/<workload>.json`` except in ``record``
mode, which prints the summaries that ``make_expected.py`` stores.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_info() -> dict:
    """OpenBLAS builds loaded in this process and their live thread counts."""
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps") as fp:
        libs = sorted({ln.split()[-1] for ln in fp if "openblas" in ln.lower() and ".so" in ln})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    info["blas_threads"] = threads
    return info


def software() -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    versions.update(blas_info())
    return versions


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("batch", "setup", "record"), default="batch")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inproc", action="store_true", help="cli-burst: call cli.run in this process")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(inproc=args.inproc) if cls is workloads.CliBurst else cls()
    scratch = str(OUT / f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(args, wl, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, wl, scratch) -> int:
    inputs = wl.setup(args.seed, scratch)
    tracer = Tracer()
    if args.trace:
        import gdseries.cli  # noqa: F401  (load every module before rebinding)

        tracer.install()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    records = []  # [name, start, end, output, error]

    def timed(name, fn):
        tracer.op = len(records)
        tracer.active = bool(args.trace)
        start = perf_counter()
        out, err = None, None
        try:
            out = fn()
        except Exception:  # an operation that raises is a failed op, not a crash
            err = traceback.format_exc(limit=4)
        end = perf_counter()
        tracer.active = False
        records.append([name, start, end, out, err])
        return out

    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    wl.run_batch(inputs, timed)
    batch_s = perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    who = resource.RUSAGE_SELF if wl.in_process or args.inproc else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    expected = None
    expected_file = BENCH / "expected" / f"{args.workload}.json"
    if args.mode != "record" and expected_file.is_file():
        with open(expected_file) as fp:
            expected = json.load(fp)["seeds"].get(str(args.seed))
    problems, summaries = [], []
    for i, (name, _, _, out, err) in enumerate(records):
        if err is not None:
            problems.append({"op": name, "problems": [err.strip().splitlines()[-1]]})
            summaries.append(None)
            continue
        try:
            summary = json.loads(json.dumps(wl.summarize(name, out)))
            bad = wl.invariants(name, out, inputs)
        except Exception as exc:  # an output the checks cannot read is a failed op
            summary, bad = None, [f"checking raised {exc!r}"]
        summaries.append({"op": name, "summary": summary})
        if expected is not None:
            if i >= len(expected) or expected[i]["op"] != name:
                bad.append("no expected record for this op")
            else:
                bad += workloads.compare(expected[i]["summary"], summary, name)
        if bad:
            problems.append({"op": name, "problems": bad[:5]})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batch_s": batch_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": [end - start for _, start, end, _, _ in records],
        "ops": [name for name, *_ in records],
        "attempted": len(records),
        "failed": len({p["op"] for p in problems}),
        "problems": problems,
        "checked_against_expected": expected is not None,
        "software": software(),
    }
    if args.mode == "record":
        result["records"] = summaries
    if args.trace:
        out_bytes = sum(len(r[3][1]) for r in records if isinstance(r[3], tuple))
        result["layers"] = layer_metrics(tracer, stdout_bytes=out_bytes)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
