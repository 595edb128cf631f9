"""Trace-derived observability metrics: dynamic critical-path length
and the dominant stall reason per (technique, workload).

All metrics are **informational** (``tolerance=None``): they explain
bench deltas rather than gate them, so attribution-model refinements
never fail CI; the claim below gates only their shape.  The top stall
reason is encoded as its index in the
canonical :data:`repro.trace.STALL_CATEGORIES` order so the metric
*names* stay stable across runs (the comparator gates on missing
names, not on informational values).
"""

from __future__ import annotations

from typing import List

from ...api import EvaluateRequest, ProgramSpec, evaluate
from ...trace import STALL_CATEGORIES
from ..spec import BenchMode, Metric, MetricMap, bench_spec

TECHNIQUES = ("gremio", "dswp")

#: Small, pipeline-heavy kernels: tracing skips the artifact cache, so
#: the spec stays cheap even under --full.
_BENCHES = ("adpcmdec", "ks")


def _benches(mode: BenchMode) -> List[str]:
    return mode.pick(list(_BENCHES))


@bench_spec(
    id="trace_attribution",
    title="Trace: dynamic critical path and dominant stall reason")
def trace_attribution(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        for name in _benches(mode):
            result = evaluate(EvaluateRequest(
                program=ProgramSpec.registry(name),
                technique=technique, scale=mode.scale, trace=True))
            summary = result.trace or {}
            key = "%s/%s" % (technique, name)
            metrics["critical_path_cycles/" + key] = Metric(
                float(summary.get("critical_path_cycles", 0.0)),
                unit="cycles", tolerance=None)
            reason = summary.get("top_stall_reason")
            code = (STALL_CATEGORIES.index(reason)
                    if reason in STALL_CATEGORIES else -1)
            metrics["top_stall_code/" + key] = Metric(
                float(code), unit="enum", tolerance=None)
            metrics["top_stall_cycles/" + key] = Metric(
                float(summary.get("top_stall_cycles", 0.0)),
                unit="cycles", tolerance=None)
    return metrics


@trace_attribution.claim("TRACE/attributed",
                         "every traced run has a critical path and a "
                         "named dominant stall")
def _attributed(m):
    paths = m.under("critical_path_cycles/")
    codes = sorted({int(m["top_stall_code/" + key]) for key in paths})
    named = all(0 <= code < len(STALL_CATEGORIES) for code in codes)
    stalled = min(m["top_stall_cycles/" + key] for key in paths)
    reasons = (", ".join(STALL_CATEGORIES[code] for code in codes)
               if named else "unnamed %s" % codes)
    return ("%d runs; top stalls: %s" % (len(paths), reasons),
            named and min(paths.values()) > 0 and stalled >= 0)
