"""Host-performance specs: compile-side pass wall times.

These are the only spec metrics that measure the *host*, not the
simulated machine, so they carry the generous :data:`~repro.bench.spec
.TIME_BAND` tolerance — the regression gate trips on a pathological
slowdown (an accidental quadratic pass), not on CI scheduler jitter.
The papers' claim being tracked: COCO's min-cut passes do not
significantly increase compilation time.  Wall times are not
deterministic, so no exact claim is judged over them; the
``benchmarks/`` module times the same :func:`compile_passes` as
pytest-benchmark microbenchmarks.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

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
#: The timed passes, in timing order.
COMPILE_PASSES = ("pdg_build", "gremio_partition", "dswp_partition",
                  "mtcg_codegen", "coco_optimize")


def compile_passes() -> Dict[str, Callable[[], object]]:
    """:data:`COMPILE_PASSES` over :data:`COMPILE_BENCH`, each a thunk
    over the same prepared function, profile, PDG and partition."""
    workload = get_workload(COMPILE_BENCH)
    function = normalize(workload.build())
    train = workload.make_inputs("train")
    profile = run_compiled(function, train.args, train.memory).profile
    pdg = build_pdg(function)
    gremio = GremioPartitioner(DEFAULT_CONFIG)
    dswp = DSWPPartitioner(DEFAULT_CONFIG)
    partition = gremio.partition(function, pdg, profile, 2)
    return dict(zip(COMPILE_PASSES, (
        lambda: build_pdg(function),
        lambda: gremio.partition(function, pdg, profile, 2),
        lambda: dswp.partition(function, pdg, profile, 2),
        lambda: generate(function, pdg, partition),
        lambda: coco_optimize(function, pdg, partition, profile))))


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@bench_spec(
    id="compile_time",
    title="Compile-side pass wall times (PDG/partition/MTCG/COCO)")
def compile_time(mode: BenchMode) -> MetricMap:
    return {"seconds/%s" % name: Metric(_timed(run), unit="s",
                                        tolerance=TIME_BAND)
            for name, run in compile_passes().items()}
