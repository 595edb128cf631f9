"""FE-E1: the frontend-compiled ``synthetic`` workload family.

Speedup and cycle metrics for every :mod:`repro.workloads.synthetic`
kernel under both techniques.  The cycle counts are deterministic
simulator output over frontend-*emitted* IR, so this spec is the bench
gate for frontend lowering: a change that alters emitted code shows up
as a cycle delta here (and as a correctness failure in the evaluation
check long before that).

All evaluations run with the oracle check on — CPython executing the
kernel source is the reference — which is the same contract the
frontend differential fuzzer enforces, applied to the full pipeline.
"""

from __future__ import annotations

from typing import List

from ...api import MatrixCell
from ...workloads.synthetic import SYNTHETIC_NAMES
from ..harness import evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec

TECHNIQUES = ("gremio", "dswp")


def _benches(mode: BenchMode) -> List[str]:
    return mode.pick(list(SYNTHETIC_NAMES))


@bench_spec(
    id="synthetic_frontend",
    title="FE-E1: frontend-compiled synthetic kernels",
    source="benchmarks/bench_synthetic_frontend.py",
    cells=lambda mode: [MatrixCell(name, technique, scale=mode.scale)
                        for technique in TECHNIQUES
                        for name in _benches(mode)])
def collect_synthetic(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        for name in _benches(mode):
            ev = evaluation(name, technique, n_threads=2,
                            scale=mode.scale)
            key = "%s/%s" % (technique, name)
            metrics["mt_cycles/" + key] = Metric(ev["mt_cycles"],
                                                 unit="cycles")
            metrics["st_cycles/" + key] = Metric(ev["st_cycles"],
                                                 unit="cycles")
            metrics["speedup/" + key] = Metric(ev["speedup"], unit="x")
    return metrics
