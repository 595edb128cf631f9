#!/usr/bin/env python
"""CI smoke check for ``python -m repro trace`` (the ``trace-smoke``
job): validate that an emitted ``trace.json`` is a well-formed Chrome
Trace Format document Perfetto can load — the JSON object format with a
``traceEvents`` list holding complete ("X"), metadata ("M"), and
counter ("C") events with the required keys — and that the embedded
summary reconciles with the event stream.  Given the cell the CLI
traced (``--workload``), it then re-runs that cell in process on the
*reference* loop with a fresh collector and requires the ``analyze()``
JSON to equal the ``--report-json`` file byte for byte: the CLI traces
on the production core, so this is the bit-identity gate at CLI level.
A CLI run with ``--limit N`` needs the same ``--limit N`` here: the
reference re-run then keeps the same N-event ring, and the two reports
agree on the evicted window too.

Usage: PYTHONPATH=src python tools/check_trace_smoke.py trace.json \
           [--expect-counters] [--report-json report.json \
            [--workload adpcm --partitioner gremio --scale train
             [--limit N]]]
Exits nonzero (with a diagnostic) on any failed expectation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

#: Keys every event of a given phase must carry (Trace Event Format).
REQUIRED_KEYS = {
    "X": ("name", "ph", "ts", "dur", "pid", "tid"),
    "M": ("name", "ph", "pid", "args"),
    "C": ("name", "ph", "ts", "pid", "args"),
}


def fail(message: str) -> "NoReturn":  # noqa: F821
    print("trace-smoke: FAIL: %s" % message)
    sys.exit(1)


def check_trace(path: str, expect_counters: bool) -> None:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot load %s: %s" % (path, error))
    if not isinstance(document, dict):
        fail("top level must be a JSON object (the CTF object format), "
             "got %s" % type(document).__name__)
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")

    by_phase = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail("traceEvents[%d] is not an object" % index)
        phase = event.get("ph")
        by_phase.setdefault(phase, []).append(event)
        for key in REQUIRED_KEYS.get(phase, ()):
            if key not in event:
                fail("traceEvents[%d] (ph=%r) missing key %r"
                     % (index, phase, key))

    if not by_phase.get("X"):
        fail("no complete ('X') instruction events")
    if not by_phase.get("M"):
        fail("no metadata ('M') track-naming events")
    process_names = {event["pid"]: event["args"].get("name")
                     for event in by_phase["M"]
                     if event.get("name") == "process_name"}
    if not process_names:
        fail("no process_name metadata (core tracks would be unnamed)")
    core_pids = {event["pid"] for event in by_phase["X"]}
    unnamed = core_pids - set(process_names)
    if unnamed:
        fail("instruction events on unnamed pid(s): %s" % sorted(unnamed))
    for event in by_phase["X"]:
        if event["dur"] <= 0:
            fail("non-positive duration on %r" % (event,))
    if expect_counters:
        counters = by_phase.get("C", [])
        if not counters:
            fail("no counter ('C') SA-occupancy events (MT trace "
                 "expected them)")
        if not all("depth" in event["args"] for event in counters):
            fail("counter events must carry args.depth")

    other = document.get("otherData", {})
    recorded = other.get("events_recorded")
    if recorded is not None and recorded != len(by_phase["X"]):
        fail("otherData.events_recorded=%r but %d 'X' events present"
             % (recorded, len(by_phase["X"])))
    print("trace-smoke: %s ok (%d instruction events, %d counter "
          "samples, %d tracks)"
          % (path, len(by_phase["X"]), len(by_phase.get("C", [])),
             len(process_names)))


def check_report(path: str) -> None:
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot load report %s: %s" % (path, error))
    for key in ("schema", "total_cycles", "critical_path_cycles",
                "top_stall_reason", "cores", "stall_totals"):
        if key not in report:
            fail("report %s missing key %r" % (path, key))
    if report["critical_path_cycles"] > report["total_cycles"]:
        fail("critical path (%r cycles) exceeds total (%r cycles)"
             % (report["critical_path_cycles"], report["total_cycles"]))
    print("trace-smoke: %s ok (%.0f cycles, top stall %s)"
          % (path, report["total_cycles"], report["top_stall_reason"]))


def check_against_reference(path: str, workload: str, partitioner: str,
                            scale: str, limit: Optional[int]) -> None:
    """The report the CLI wrote (fast core) against the same cell
    traced on the reference loop, on a ring of ``limit`` events."""
    from repro.api import evaluate_workload, get_workload
    from repro.trace import stall_report_json
    evaluation = evaluate_workload(
        get_workload(workload), technique=partitioner, scale=scale,
        trace=True, trace_limit=limit, backend="reference")
    with open(path) as handle:
        written = handle.read()
    if written != stall_report_json(evaluation.trace) + "\n":
        fail("report %s differs from the reference loop's analysis of "
             "%s/%s/%s" % (path, workload, partitioner, scale))
    print("trace-smoke: %s equals the reference loop's report "
          "(%d events, %d dropped)"
          % (path, evaluation.trace.events_recorded,
             evaluation.trace.events_dropped))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace.json path to validate")
    parser.add_argument("--expect-counters", action="store_true",
                        help="require SA queue-occupancy counter tracks")
    parser.add_argument("--report-json", default=None,
                        help="also validate a --report-json document")
    parser.add_argument("--workload", default=None,
                        help="the traced cell's workload: also compare "
                             "--report-json with the reference loop's")
    parser.add_argument("--partitioner", default="gremio")
    parser.add_argument("--scale", default="ref")
    parser.add_argument("--limit", type=int, default=None,
                        help="the event-ring size the CLI traced with "
                             "(its --limit; default: the default ring)")
    args = parser.parse_args()
    check_trace(args.trace, args.expect_counters)
    if args.report_json:
        check_report(args.report_json)
        if args.workload:
            check_against_reference(args.report_json, args.workload,
                                    args.partitioner, args.scale,
                                    args.limit)
    print("trace-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
