"""FE-E1: the frontend-compiled ``synthetic`` workload family.

Speedup and cycle metrics for every :mod:`repro.workloads.synthetic`
kernel under both techniques.  The cycle counts are deterministic
simulator output over frontend-*emitted* IR, so this spec is the bench
gate for frontend lowering: a change that alters emitted code shows up
as a cycle delta here (and as a correctness failure in the evaluation
check long before that).

All evaluations run with the oracle check on — CPython executing the
kernel source is the reference — which is the same contract the
differential fuzzer (``repro fuzz``) enforces on random programs.
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
    cells=lambda mode: [MatrixCell(name, technique, scale=mode.scale)
                        for technique in TECHNIQUES
                        for name in _benches(mode)])
def synthetic_frontend(mode: BenchMode) -> MetricMap:
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


@synthetic_frontend.claim("FE-E1/kernels-simulate",
                          "frontend-emitted IR runs through the whole "
                          "pipeline")
def _kernels_simulate(m):
    cycles = list(m.under("mt_cycles/").values()) \
        + list(m.under("st_cycles/").values())
    return "min %d cycles over %d runs (> 0)" % (min(cycles),
                                                  len(cycles)), \
        min(cycles) > 0


@synthetic_frontend.claim("FE-E1/some-kernel-profits",
                          "the family exposes TLP, it is not decorative")
def _some_kernel_profits(m):
    speedups = m.under("speedup/")
    best = max(speedups, key=speedups.get)
    return "best %s %.3fx (> 1)" % (best, speedups[best]), \
        speedups[best] > 1.0
