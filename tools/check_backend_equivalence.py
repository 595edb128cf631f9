#!/usr/bin/env python
"""CI gate for the simulators and executors against their references
(the ``backend-equivalence`` job): run the differential sweep of
:mod:`repro.check.differential_backend` and require **zero**
divergences.  Four families of cases, counted separately in the log:

* timed core — every workload x topology preset x partitioner (plus
  single-threaded runs), N seeded fuzz programs and the error paths
  (trap, deadlock, step limit), each untraced, with a trace collector
  attached, and with a collector whose ring evicts, on the fast core
  and the reference loop;
* SA stress — the same comparison on a DSWP pipeline run with one
  synchronization-array port, a 2-cycle SA access and 1- or 32-entry
  queues, flat and clustered; each case must also show SA port delays
  and queue back-pressure, so the core's inlined SA path is exercised
  on both of its displacement branches;
* profile executor — the untimed executor's one-thread case
  (``run_function``, the ``profile`` stage) against the step oracle
  (``run_step_oracle``) on every workload, every
  fuzz program (rendered to IR, and compiled from Python) and its own
  error paths;
* functional MT — ``run_mt_program`` against the reference loop's
  functional observables on every MT cell, every fuzz seed's random
  partition (queue capacities 1 and 32) and the error paths.

Results, profiles and everything a tracer sees must be bit-identical
down to numeric types; any difference fails the job and the full
machine-readable divergence report is written to ``--report`` for
upload as a CI artifact.

Usage: PYTHONPATH=src python tools/check_backend_equivalence.py \
           [--fuzz-seeds 25] [--scale train] \
           [--report backend_divergences.json]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.check import run_differential

#: Case families by the first component of a case label.
FAMILIES = {"profile": "profile executor", "functional": "functional MT",
            "sa-stress": "SA stress"}


def family_counts(report) -> dict:
    """``{family: [cases, divergent]}`` over the report's cases."""
    counts: dict = {}
    for case in report.cases:
        family = FAMILIES.get(case.label.split("/", 1)[0], "timed core")
        entry = counts.setdefault(family, [0, 0])
        entry[0] += 1
        entry[1] += not case.ok
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fuzz-seeds", type=int, default=25,
                        help="seeded random programs to compare "
                             "(default: %(default)s)")
    parser.add_argument("--scale", default="train",
                        choices=("train", "ref"),
                        help="workload input scale (default: "
                             "%(default)s; ref is the full-methodology "
                             "sweep)")
    parser.add_argument("--report", default="backend_divergences.json",
                        metavar="PATH",
                        help="where to write the JSON report "
                             "(default: %(default)s; always written — "
                             "CI uploads it on failure)")
    args = parser.parse_args()

    report = run_differential(
        scale=args.scale, fuzz_seeds=range(args.fuzz_seeds),
        progress=lambda line: print("backend-equivalence: " + line))
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    for family, (cases, divergent) in family_counts(report).items():
        print("backend-equivalence: %s: %d cases, %d divergent"
              % (family, cases, divergent))
    print(report.summary())
    if not report.ok:
        for case in report.failures:
            print("backend-equivalence: FAIL %s" % case.label)
            for divergence in case.divergences[:10]:
                print("  " + divergence)
        print("backend-equivalence: divergence report -> %s"
              % args.report)
        return 1
    print("backend-equivalence: PASS (report -> %s)" % args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
