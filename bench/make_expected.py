"""Record the expected outputs of every workload for the seeds 0-19.

    python3 bench/make_expected.py

Runs each workload's batch once for each of the seeds 0-19 with the current
sources and writes ``bench/expected/<workload>.json``.  The files shipped with the
benchmark were made this way from the commit that introduced it; a later
change must reproduce them, so regenerate them only when an output is meant
to change, and say so.  Aborts if the current sources already fail an
invariant check.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, OUT, WORKLOADS, BenchError, Runner, git_commit, src_digest

SEEDS = range(20)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    (BENCH / "expected").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seeds = {}
        for seed in SEEDS:
            try:
                res = Runner(workload, seed, 0).worker(mode="record")
            except BenchError as exc:
                print(f"error: {workload} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if res["problems"]:
                print(f"error: {workload} seed {seed} fails its checks: {res['problems']}", file=sys.stderr)
                return 1
            seeds[str(seed)] = res["records"]
            print(f"{workload} seed {seed}: {res['attempted']} ops, {res['batch_s']:.2f} s", flush=True)
        doc = {
            "workload": workload,
            "generated_from": {"git_commit": git_commit(), "src_sha256": src_digest()},
            "seeds": seeds,
        }
        with open(BENCH / "expected" / f"{workload}.json", "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
