"""Leaderboard serialization: schema-versioned JSON plus a markdown
summary.

Byte-determinism is the contract here (CI diffs two same-seed runs):
``json.dumps(sort_keys=True, indent=2)`` over data that contains no
wall-clock values, no set iteration order, and no environment paths.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from ..api import TUNE_SCHEMA_VERSION, TuneResult


def _dumps(document: Dict[str, object]) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def result_json(result: TuneResult) -> str:
    """The whole run as one canonical JSON document."""
    return _dumps(result.as_dict())


def workload_leaderboard(result: TuneResult,
                         workload: str) -> Dict[str, object]:
    """The per-workload leaderboard document."""
    return {
        "schema_version": TUNE_SCHEMA_VERSION,
        "workload": workload,
        "request": result.request.as_dict(),
        "entries": result.leaderboards.get(workload, []),
        "best": result.best.get(workload),
    }


def markdown_summary(result: TuneResult) -> str:
    """A reviewer-facing digest: per workload, the winner against every
    seeded baseline."""
    request = result.request
    lines = [
        "# repro tune summary",
        "",
        "- strategy: `%s`, budget: %d per workload, seed: %d"
        % (request.strategy, request.budget, request.seed),
        "- scale: `%s`, threads: %d" % (request.scale, request.n_threads),
        "- candidates evaluated: %d" % result.evaluated,
        "",
        "| workload | best source | best cycles | vs gremio | vs dswp "
        "| critical path |",
        "|---|---|---|---|---|---|",
    ]
    for workload in request.workloads:
        best = result.best.get(workload)
        if best is None:
            continue
        improvement = best.get("improvement_pct", {})

        def _pct(label: str) -> str:
            value = improvement.get(label)
            return "%+.2f%%" % value if value is not None else "-"

        critical = best.get("critical_path_cycles")
        lines.append(
            "| %s | %s | %.0f | %s | %s | %s |"
            % (workload, best["source"], best["metrics"]["mt_cycles"],
               _pct("gremio"), _pct("dswp"),
               "%.0f" % critical if critical is not None else "-"))
    lines += [
        "",
        "Winning configurations (non-default knobs only):",
        "",
    ]
    for workload in request.workloads:
        best = result.best.get(workload)
        if best is None:
            continue
        knobs = ["technique=%s" % best["technique"]]
        if best["coco"]:
            knobs.append("coco")
        if best["placer"] != "identity":
            knobs.append("placer=%s" % best["placer"])
        if best["topology"] is not None:
            knobs.append("topology=%s" % best["topology"])
        knobs += ["%s=%r" % (name, value)
                  for name, value in best["overrides"]]
        lines.append("- **%s**: %s" % (workload, ", ".join(knobs)))
    return "\n".join(lines) + "\n"


def write_outputs(result: TuneResult, out_dir: str) -> List[str]:
    """Write the canonical artifacts into ``out_dir``:
    ``tune_result.json`` (everything), one
    ``leaderboard_<workload>.json`` per workload, and
    ``tune_summary.md``.  Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []

    def _write(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as handle:
            handle.write(text)
        written.append(path)

    _write("tune_result.json", result_json(result))
    for workload in result.request.workloads:
        _write("leaderboard_%s.json" % workload,
               _dumps(workload_leaderboard(result, workload)))
    _write("tune_summary.md", markdown_summary(result))
    return written
