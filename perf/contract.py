"""``BENCHMARK.json``: the one list of workloads, metrics, units and
bounds.  Everything that names a metric takes it from here."""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

with open(PATH, encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

WHY: Dict[str, str] = {workload["name"]: workload["why"]
                       for workload in BENCHMARK["workloads"]}
END_TO_END: List[Dict[str, object]] = BENCHMARK["end_to_end"]
PER_LAYER: List[Dict[str, object]] = BENCHMARK["per_layer"]


def with_units(values: Dict[str, float], metrics: List[Dict[str, object]],
               default: Optional[float] = None
               ) -> Dict[str, Dict[str, object]]:
    """``values`` as the result line wants them: every metric of
    ``metrics``, in that order, with its unit.  A value for a name the
    contract does not list is an error; so is a missing one, unless
    ``default`` stands in for it."""
    unknown = set(values) - {metric["name"] for metric in metrics}
    missing = [metric["name"] for metric in metrics
               if metric["name"] not in values]
    if unknown or (missing and default is None):
        raise KeyError("not in BENCHMARK.json: %s; not measured: %s"
                       % (sorted(unknown), missing))
    return {metric["name"]: {"value": values.get(metric["name"], default),
                             "unit": metric["unit"]}
            for metric in metrics}
