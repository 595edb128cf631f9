#!/usr/bin/env python
"""The CI ``tune-smoke`` determinism gate.

Usage: ``python tools/check_tune_smoke.py [--out-dir DIR] [--keep]``

Runs ``python -m repro tune --smoke --seed 0`` twice — the second time
with ``--jobs 2`` and a *fresh* artifact cache, so neither the memo nor
the process pool can mask a nondeterminism bug — then asserts:

* every leaderboard/summary artifact of the two runs is byte-identical
  (the ``repro tune`` determinism contract);
* for every smoke workload the best-found configuration's cycles are
  <= both seeded baselines (the search never loses to the defaults it
  contains);
* the leaderboard documents are schema-versioned and well-formed.

On failure the divergent artifacts are left in ``--out-dir`` for the
workflow to upload.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from repro.bench import SMOKE  # noqa: E402
from repro.bench.specs.tune import search_request  # noqa: E402

SMOKE_WORKLOADS = search_request(SMOKE).workloads
ARTIFACTS = tuple(["tune_result.json", "tune_summary.md"]
                  + ["leaderboard_%s.json" % name
                     for name in SMOKE_WORKLOADS])


class TuneSmokeError(AssertionError):
    """One of the tune-smoke contract checks failed."""


def run_tune_cli(out_dir: str, cache_dir: str, jobs: int) -> None:
    """One ``repro tune --smoke --seed 0`` invocation writing into
    ``out_dir`` against an isolated artifact cache."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "repro", "tune", "--smoke",
               "--seed", "0", "--jobs", str(jobs), "--out", out_dir]
    completed = subprocess.run(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    if completed.returncode != 0:
        raise TuneSmokeError(
            "tune run failed (exit %d):\n%s"
            % (completed.returncode, completed.stdout))


def check_identical(dir_a: str, dir_b: str) -> None:
    for name in ARTIFACTS:
        path_a = os.path.join(dir_a, name)
        path_b = os.path.join(dir_b, name)
        for path in (path_a, path_b):
            if not os.path.exists(path):
                raise TuneSmokeError("missing artifact %s" % path)
        if not filecmp.cmp(path_a, path_b, shallow=False):
            raise TuneSmokeError(
                "nondeterministic tune output: %s differs between "
                "same-seed runs (see uploaded artifacts)" % name)


def check_leaderboard(out_dir: str) -> None:
    for name in SMOKE_WORKLOADS:
        path = os.path.join(out_dir, "leaderboard_%s.json" % name)
        with open(path) as handle:
            document = json.load(handle)
        schema = document.get("schema_version")
        if not isinstance(schema, str) or not schema.startswith(
                "repro.tune/"):
            raise TuneSmokeError("%s: bad schema_version %r"
                                 % (path, schema))
        entries = document.get("entries")
        if not entries:
            raise TuneSmokeError("%s: empty leaderboard" % path)
        best = document.get("best")
        if best is None:
            raise TuneSmokeError("%s: missing best entry" % path)
        cycles = best["metrics"]["mt_cycles"]
        baselines = best.get("baseline_mt_cycles", {})
        for label in ("gremio", "dswp"):
            if label not in baselines:
                raise TuneSmokeError(
                    "%s: baseline %r was not seeded into the search"
                    % (path, label))
            if cycles > baselines[label]:
                raise TuneSmokeError(
                    "%s: search lost to the %s baseline it contains "
                    "(%.0f > %.0f cycles)"
                    % (path, label, cycles, baselines[label]))
        ranks = [entry.get("rank") for entry in entries]
        if ranks != sorted(ranks) or ranks[0] != 0:
            raise TuneSmokeError("%s: leaderboard ranks are not "
                                 "0-based and ordered: %r"
                                 % (path, ranks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="tune-smoke",
                        help="where the two runs' artifacts land "
                             "(default: %(default)s)")
    parser.add_argument("--keep", action="store_true",
                        help="keep artifacts on success too")
    args = parser.parse_args(argv)

    out_root = os.path.abspath(args.out_dir)
    os.makedirs(out_root, exist_ok=True)
    run_a = os.path.join(out_root, "run1")
    run_b = os.path.join(out_root, "run2")
    caches = tempfile.mkdtemp(prefix="tune-smoke-cache-")
    try:
        print("tune-smoke: run 1 (jobs=1, fresh cache)")
        run_tune_cli(run_a, os.path.join(caches, "a"), jobs=1)
        print("tune-smoke: run 2 (jobs=2, fresh cache)")
        run_tune_cli(run_b, os.path.join(caches, "b"), jobs=2)
        check_identical(run_a, run_b)
        check_leaderboard(run_a)
    finally:
        shutil.rmtree(caches, ignore_errors=True)
    print("tune-smoke: %d artifacts byte-identical across same-seed "
          "runs; search never lost to a seeded baseline"
          % len(ARTIFACTS))
    if not args.keep:
        shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
