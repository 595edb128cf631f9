"""Host-performance specs: compile-side pass wall times.

These are the only spec metrics that measure the *host*, not the
simulated machine, so they carry the generous :data:`~repro.bench.spec
.TIME_BAND` tolerance — the regression gate trips on a pathological
slowdown (an accidental quadratic pass), not on CI scheduler jitter.
The papers' claim being tracked: COCO's min-cut passes do not
significantly increase compilation time.
"""

from __future__ import annotations

import time

from ...analysis import build_pdg
from ...coco.driver import optimize as coco_optimize
from ...executor import run_compiled
from ...machine import DEFAULT_CONFIG
from ...mtcg import generate
from ...partition.dswp import DSWPPartitioner
from ...partition.gremio import GremioPartitioner
from ...api import normalize
from ...workloads import get_workload
from ..spec import TIME_BAND, BenchMode, Metric, MetricMap, bench_spec

COMPILE_BENCH = "435.gromacs"  # the largest kernel in the suite


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@bench_spec(
    id="compile_time",
    title="Compile-side pass wall times (PDG/partition/MTCG/COCO)",
    source="benchmarks/bench_compile_time.py")
def collect_compile_time(mode: BenchMode) -> MetricMap:
    workload = get_workload(COMPILE_BENCH)
    function = normalize(workload.build())
    train = workload.make_inputs("train")
    profile = run_compiled(function, train.args, train.memory).profile
    pdg = build_pdg(function)
    gremio = GremioPartitioner(DEFAULT_CONFIG)
    dswp = DSWPPartitioner(DEFAULT_CONFIG)
    partition = gremio.partition(function, pdg, profile, 2)

    seconds = {
        "pdg_build": _timed(lambda: build_pdg(function)),
        "gremio_partition": _timed(
            lambda: gremio.partition(function, pdg, profile, 2)),
        "dswp_partition": _timed(
            lambda: dswp.partition(function, pdg, profile, 2)),
        "mtcg_codegen": _timed(
            lambda: generate(function, pdg, partition)),
        "coco_optimize": _timed(
            lambda: coco_optimize(function, pdg, partition, profile)),
    }
    return {"seconds/%s" % name: Metric(value, unit="s",
                                        tolerance=TIME_BAND)
            for name, value in seconds.items()}
