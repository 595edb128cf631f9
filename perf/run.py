#!/usr/bin/env python3
"""The host-performance benchmark: six workloads from cold sweep to
cluster hop, end-to-end and per-layer.

    python3 perf/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--quick] [--out PATH]

Each workload runs in fresh child processes with private cache
directories under ``perf/out/`` and every ``REPRO_*`` variable scrubbed.
The untraced run prints the end-to-end metrics; ``--trace`` runs the
same workloads once untraced and once traced and prints the per-layer
metrics.  Outputs are verified; any failed check exits non-zero.  The
last line of standard output is the machine-readable result of the last
workload.  See ``perf/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
OUT_DIR = os.path.join(PERF_DIR, "out")
SCHEMA = "repro.perf/v1"

#: An untraced run is this many repetitions, each a fresh process that
#: sets up (imports, daemon boot, population) and measures its share of
#: the window; the metrics are medians over all of them.  A run so spans
#: three times the wall time for the same work, and the sandbox's slow
#: stretches, which last seconds, weigh less.
REPETITIONS = 3
QUICK_SCALE = 1.0 / 20.0
CHILD_TIMEOUT = 170.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from harness import RUN_SECONDS, WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; "
                             "default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives cell order, Zipf draws and generated-"
                             "program constants (default 0)")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="size of the timed window: operation counts are "
                             "scaled by seconds/%d (default %d)"
                             % (RUN_SECONDS, RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="~1/20 of the operation counts over 16 cells; "
                             "numbers are labelled quick")
    parser.add_argument("--out", help="write every result to this JSON file")
    parser.add_argument("--inject", choices=("metrics", "shed"),
                        help="self-test fault: corrupt one expectation, or "
                             "turn one answer into a 429; the run must fail")
    parser.add_argument("--child", nargs=2, metavar=("WORK_DIR", "RESULT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.scale = QUICK_SCALE if args.quick else args.seconds / RUN_SECONDS
    return args


# -- child --------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    started = time.perf_counter()  # set-up counts from here: imports too
    import harness
    work_dir, result_path = args.child
    params = harness.Params(args.workload[0], args.seed, args.scale,
                            args.quick, bool(args.trace), args.inject,
                            work_dir, SRC_DIR)
    result = harness.run(params, started)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# -- parent -------------------------------------------------------------------

def run_child(workload: str, args: argparse.Namespace, work_dir: str,
              seconds: float) -> Dict[str, object]:
    """One fresh process for one workload; its whole process group is
    killed afterwards, so no daemon or pool worker outlives it."""
    from loadgen import scrubbed_env
    os.makedirs(work_dir)
    result_path = os.path.join(work_dir, "result.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--child", work_dir, result_path, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
    command += ["--quick"] if args.quick else []
    command += ["--inject", args.inject] if args.inject else []
    child = subprocess.Popen(
        command, start_new_session=True,
        env=scrubbed_env(SRC_DIR, os.path.join(work_dir, "own-cache")))
    try:
        code = child.wait(CHILD_TIMEOUT)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise RuntimeError("%s: child exited with code %d" % (workload, code))
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, args: argparse.Namespace
                 ) -> Dict[str, object]:
    import harness
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-%s-" % workload, dir=OUT_DIR)
    count = 1 if args.trace or args.quick else REPETITIONS
    try:
        repetitions = [run_child(workload, args,
                                 os.path.join(work_dir, "rep-%d" % index),
                                 args.seconds / count)
                       for index in range(count)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {name: sum(repetition[name] for repetition in repetitions)
              for name in ("attempted", "failed", "wall_s")}
    result["correct"] = result["failed"] == 0
    result["errors"] = [error for repetition in repetitions
                        for error in repetition["errors"]]
    if args.trace:
        result["metrics"] = repetitions[0]["metrics"]
        with open(os.path.join(OUT_DIR, "spans-%s.json" % workload), "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": "repro.perf.spans/v1",
                       "spans": repetitions[0]["spans"]}, handle)
    else:
        result["metrics"] = harness.end_to_end(repetitions)
        result["repetitions"] = [
            {name: repetition[name]
             for name in ("setup_s", "peak_rss_mib", "intervals")}
            for repetition in repetitions]
    return result


def report(workload: str, result: Dict[str, object], label: str) -> None:
    from contract import WHY
    print("== %s (%s): %s" % (workload, label, WHY[workload]))
    for name, metric in result["metrics"].items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-32s %14.6g ratio  (%d failed of %d ops; wall %.2f s)"
          % ("failed_share", result["failed"] / result["attempted"],
             result["failed"], result["attempted"], result["wall_s"]))
    for error in result["errors"]:
        print("  FAILED CHECK: %s" % error)
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print("perf/run.py: no program to measure: %s is missing"
              % os.path.join(SRC_DIR, "repro"), file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    from harness import WORKLOADS
    label = "%s, seed %d, %s" % ("quick" if args.quick else "full", args.seed,
                                 "traced" if args.trace else "untraced")
    document = {"schema": SCHEMA, "mode": "quick" if args.quick else "full",
                "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "workloads": {}}
    result: Dict[str, object] = {}
    for workload in args.workload or list(WORKLOADS):
        result = run_workload(workload, args)
        document["workloads"][workload] = result
        report(workload, result, label)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    print(json.dumps({name: result[name] for name in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(entry["correct"]
                    for entry in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
