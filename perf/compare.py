#!/usr/bin/env python3
"""Compare two result documents of ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json [--exact]

One row per (workload, end-to-end metric): both values, the change from
A to B and the bound ``BENCHMARK.json`` allows.  Exits 1 if B is worse
than A by more than the bound on any row, or if a workload's
``failed_share`` rose.  With ``--exact`` (two ``--trace`` documents of
one commit and one seed) the operation counts and the exact per-layer
counts must also be identical.  Quick and full documents do not mix."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from contract import END_TO_END
from layers import EXACT

#: Fields two documents must share to be comparable at all.
SAME_RUN = ("schema", "mode", "seconds", "trace")


def load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def worsening(metric: Dict[str, object], a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def compare(a: Dict[str, object], b: Dict[str, object], exact: bool,
            end_to_end: List[Dict[str, object]] = END_TO_END) -> List[str]:
    """Print the table; return the failures."""
    failures = []
    for field in SAME_RUN + (("seed",) if exact else ()):
        if a.get(field) != b.get(field):
            raise ValueError("documents differ in %r (%r vs %r): not "
                             "comparable" % (field, a.get(field),
                                             b.get(field)))
    workloads = [name for name in a["workloads"] if name in b["workloads"]]
    if not workloads:
        raise ValueError("the documents share no workload")
    exact_rows = 0
    print("%-12s %-18s %14s %14s %9s %7s" % ("workload", "metric", "A", "B",
                                             "change", "bound"))
    for workload in workloads:
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for metric in end_to_end:
            name = metric["name"]
            if name not in run_a["metrics"] or name not in run_b["metrics"]:
                continue
            value_a = run_a["metrics"][name]["value"]
            value_b = run_b["metrics"][name]["value"]
            worse = worsening(metric, value_a, value_b)
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  WORSE"
                failures.append("%s %s: worse by %.1f%% (bound %.0f%%)" % (
                    workload, name, 100 * worse, 100 * metric["bound"]))
            print("%-12s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s" % (
                workload, name, value_a, value_b,
                100 * (value_b - value_a) / abs(value_a) if value_a else 0.0,
                100 * metric["bound"], verdict))
        share_a = run_a["failed"] / run_a["attempted"]
        share_b = run_b["failed"] / run_b["attempted"]
        print("%-12s %-18s %14.6g %14.6g" % (workload, "failed_share",
                                             share_a, share_b))
        if share_b > share_a:
            failures.append("%s failed_share rose from %g to %g"
                            % (workload, share_a, share_b))
        if not exact:
            continue
        counts = [("attempted", run_a["attempted"], run_b["attempted"])]
        counts += [(name, run_a["metrics"][name]["value"],
                    run_b["metrics"][name]["value"])
                   for name in EXACT
                   if name in run_a["metrics"] and name in run_b["metrics"]]
        exact_rows += len(counts) - 1
        for name, count_a, count_b in counts:
            print("%-12s %-18s %14d %14d  exact" % (workload, name, count_a,
                                                    count_b))
            if count_a != count_b:
                failures.append("%s %s: %r != %r" % (workload, name, count_a,
                                                     count_b))
    if exact and not exact_rows:
        raise ValueError("--exact needs two --trace documents: no exact "
                         "per-layer count found")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact", action="store_true",
                        help="also require identical operation counts and "
                             "exact per-layer counts")
    args = parser.parse_args(argv)
    try:
        failures = compare(load(args.a), load(args.b), args.exact)
    except ValueError as error:
        print("perf/compare.py: %s" % error, file=sys.stderr)
        return 2
    for failure in failures:
        print("FAIL: %s" % failure)
    print("compare: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
