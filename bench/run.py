"""Benchmark runner for gdseries: one workload, one seed, one JSON result.

    python3 bench/run.py --workload kernel-lines --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every batch runs in a fresh worker process (``worker.py``) with one
BLAS thread, one batch after the other (a single closed-loop client).
Batches repeat until ``--seconds`` of batch time have passed.

``--trace 0`` reports the end-to-end metrics: the medians over the run's
batches of batch time, CPU time and per-process peak RSS, and the median
set-up time over at least eleven fresh processes.  The median operation
time is printed before the result, not reported as a metric.  ``--trace 1``
runs one untraced and one traced batch and reports the per-layer metrics of
the traced one (see ``tracing.py``), the import cost of ``gdseries.cli`` and
the tracing overhead.

The last line of standard output is the JSON result; the lines before it
show the environment and every metric with its unit.  Spans of traced runs
are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("kernel-lines", "cli-burst", "acceptance")
MIN_BATCHES = 2
MIN_SETUPS = 11
# A run is stopped after DEADLINE_FACTOR * --seconds + DEADLINE_MARGIN_S: the
# factor covers the workers' set-up between batches (about a fifth of the
# batch time, on acceptance), the margin the last batch, the set-up-only
# workers, the import measurements and a traced run.  170 s at --seconds 30.
DEADLINE_FACTOR = 1.5
DEADLINE_MARGIN_S = 125.0
BLAS_THREADS = "1"

END_TO_END = {
    "batch_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = worker_env()
        self.start = perf_counter()
        self.deadline = DEADLINE_FACTOR * seconds + DEADLINE_MARGIN_S

    def remaining(self) -> float:
        return max(0.0, self.deadline - (perf_counter() - self.start))

    def _spawn(self, argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL):
        return subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr, start_new_session=True
        )

    @staticmethod
    def _kill(proc) -> None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()

    def _finish(self, proc):
        """(stdout, stderr) of a process that must end within the run's
        deadline; its process group is killed if it does not, or if the
        runner itself is stopped meanwhile."""
        try:
            return proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self._kill(proc)
            raise BenchError(f"run exceeded {self.deadline:.0f} s") from None
        except BaseException:
            self._kill(proc)
            raise

    def worker(self, mode="batch", trace=0, inproc=False, workload=None) -> dict:
        """Run one worker; returns its result with ``setup_s`` added."""
        workload = workload or self.workload
        argv = [
            sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
        ] + (["--inproc"] if inproc else [])
        log = OUT / f"worker-{workload}-{os.getpid()}.log"
        with open(log, "wb") as err:
            t0 = perf_counter()
            proc = self._spawn(argv, stderr=err)
            try:
                ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
                first = proc.stdout.readline() if ready else b""
            except BaseException:
                self._kill(proc)
                raise
            setup_s = perf_counter() - t0
            rest, _ = self._finish(proc)
        lines = (first + rest).decode(errors="replace").splitlines()
        if proc.returncode != 0 or not lines or lines[0] != "ready":
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))
        log.unlink()
        if mode == "setup":
            return {"setup_s": setup_s}
        results = [ln for ln in lines if ln.startswith("result ")]
        if not results:
            raise BenchError("worker printed no result")
        res = json.loads(results[-1][len("result "):])
        res["setup_s"] = setup_s
        return res

    def warm_up(self) -> None:
        """Warm the file cache (and the bytecode cache, where Python writes
        one), untimed."""
        proc = self._spawn([sys.executable, "-c", "import gdseries.cli"])
        self._finish(proc)
        if proc.returncode != 0:
            raise BenchError("cannot import gdseries.cli from src/")

    def wall(self, argv):
        t0 = perf_counter()
        proc = self._spawn(argv, stdout=subprocess.DEVNULL)
        self._finish(proc)
        return perf_counter() - t0

    def import_costs(self) -> dict:
        """Fresh-interpreter import of gdseries.cli minus a bare interpreter,
        and the scipy share of it from ``-X importtime``."""
        py = sys.executable
        bare = statistics.median(self.wall([py, "-c", "pass"]) for _ in range(3))
        full = statistics.median(self.wall([py, "-c", "import gdseries.cli"]) for _ in range(3))
        proc = self._spawn([py, "-X", "importtime", "-c", "import gdseries.cli"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = self._finish(proc)
        return {"import.gdseries_cli_s": full - bare, "import.scipy_s": scipy_import_s(err.decode())}


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules, in seconds."""
    rows = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    total = 0
    for i, (cum, depth, name) in enumerate(rows):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        # importtime lists a module after its children; the parent is the next
        # row that is less indented
        parent = next((n for _, d, n in rows[i + 1:] if d < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            total += cum
    return total / 1e6


def environment(seed: int, workers: list) -> dict:
    env = {"nproc": os.cpu_count(), "seed": seed, "blas_threads_env": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo") as fp:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.exists() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (idx / "size").read_text().strip()
            elif kind != "Instruction":
                caches["L1d"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    env["git_commit"] = git_commit()
    env["src_sha256"] = src_digest()
    if workers:
        env["software"] = workers[-1]["software"]
        env["ops_per_batch"] = {w["workload"]: w["attempted"] for w in workers}
    return env


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git tree
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def untraced(runner: Runner):
    batches = []
    measured = 0.0
    # at least two batches, then stop once another batch would end more than
    # half a batch past the end of the window
    while len(batches) < MIN_BATCHES or measured + batches[-1]["batch_s"] / 2 < runner.seconds:
        res = runner.worker()
        batches.append(res)
        measured += res["batch_s"]
    setups = [b["setup_s"] for b in batches]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.worker(mode="setup")["setup_s"])
    metrics = {
        "batch_s": statistics.median(b["batch_s"] for b in batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "setup_s": statistics.median(setups),
    }
    units = dict(END_TO_END)
    # each op's median over the batches, then the median over the ops; too
    # unsteady on a shared machine to carry a bound, so it is only printed
    per_op = [statistics.median(times) for times in zip(*(b["op_s"] for b in batches))]
    notes = {
        "batches": len(batches),
        "ops": sum(b["attempted"] for b in batches),
        "setups": len(setups),
        "op_p50_s": statistics.median(per_op),
    }
    return batches, metrics, units, notes


def traced(runner: Runner):
    """One untraced and one traced batch of every workload, the named one
    first, so each traced run reports the full per-layer set."""
    sys.path.insert(0, str(BENCH))
    from tracing import PER_LAYER

    workers, values, notes = [], {}, {}
    for workload in [runner.workload] + [w for w in WORKLOADS if w != runner.workload]:
        inproc = workload == "cli-burst"  # cli.run in-process, so spans reach the CLI layers
        base = runner.worker(trace=0, inproc=inproc, workload=workload)
        tr = runner.worker(trace=1, inproc=inproc, workload=workload)
        workers += [base, tr]
        layers = dict(tr["layers"], **{"trace.overhead_s": tr["batch_s"] - base["batch_s"]})
        values.update({f"{workload}.{name}": value for name, value in layers.items()})
        notes[workload] = {"untraced_batch_s": base["batch_s"], "traced_batch_s": tr["batch_s"]}
    values.update(runner.import_costs())
    return workers, {name: values[name] for name in PER_LAYER}, dict(PER_LAYER), notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "gdseries" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'gdseries'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # a stopped runner unwinds through Runner._finish, which kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        runner.warm_up()
        workers, metrics, units, notes = (traced if args.trace else untraced)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    env = environment(args.seed, workers)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes, sort_keys=True))
    for w in workers:
        for p in w["problems"]:
            print(f"# FAILED {p['op']}: {'; '.join(p['problems'])}")
    if not all(w["checked_against_expected"] for w in workers):
        print("# no expected outputs for this seed: checked invariants only")
    for name, value in metrics.items():
        print(f"{name:32s} {value!r} {units[name]}")
    print(f"{'failed_ratio':32s} {failed / attempted!r} 1 ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
