"""Specs for the papers' headline figures: experimental setup (Fig 6),
communication breakdown (Fig 1), COCO communication reduction (Fig 7),
speedups (Fig 8), and the GREMIO experiments (E1/E2).

All of these read the ``metrics`` of memoized matrix cells, so the
runner can prewarm the whole (workload x technique x coco) matrix
through ``evaluate_many`` (``--jobs N``) before the extractors run
serially.
"""

from __future__ import annotations

from typing import Dict, List

from ...machine import DEFAULT_CONFIG
from ...api import MatrixCell
from ...stats import arithmetic_mean, geomean, relative_communication
from ...workloads import all_workloads
from ..harness import BENCH_ORDER, evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec

TECHNIQUES = ("gremio", "dswp")


def _benches(mode: BenchMode) -> List[str]:
    # The evaluation-matrix specs share one memoized/cached matrix, so
    # even the smoke configuration keeps the full benchmark list — only
    # the measurement inputs shrink (train scale).
    return list(BENCH_ORDER)


def _matrix_cells(mode: BenchMode,
                  coco: tuple = (False, True),
                  n_threads: tuple = (2,)) -> List[MatrixCell]:
    return [MatrixCell(name, technique, use_coco, threads, mode.scale)
            for name in _benches(mode)
            for technique in TECHNIQUES
            for use_coco in coco
            for threads in n_threads]


@bench_spec(
    id="fig6_setup",
    title="Figure 6: machine configuration and benchmark functions",
    source="benchmarks/bench_fig6_setup.py")
def collect_fig6(mode: BenchMode) -> MetricMap:
    return {
        # Only the hand-ported paper benchmarks: the frontend-compiled
        # `synthetic` suite is covered by its own spec family.
        "workloads/count": Metric(
            len([w for w in all_workloads() if w.suite != "synthetic"]),
            unit="count"),
        "machine/sa_queues": Metric(DEFAULT_CONFIG.sa_queues,
                                    unit="count"),
        "machine/sa_queue_size": Metric(DEFAULT_CONFIG.sa_queue_size,
                                        unit="count"),
        "machine/sa_access_latency": Metric(
            DEFAULT_CONFIG.sa_access_latency, unit="cycles"),
    }


@bench_spec(
    id="fig1_breakdown",
    title="Figure 1: dynamic communication share under baseline MTCG",
    source="benchmarks/bench_fig1_breakdown.py",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def collect_fig1(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        shares = []
        for name in _benches(mode):
            ev = evaluation(name, technique, coco=False,
                            scale=mode.scale)
            share = 100.0 * ev["communication_fraction"]
            metrics["comm_pct/%s/%s" % (technique, name)] = \
                Metric(share, unit="%")
            shares.append(share)
        metrics["comm_pct/%s/max" % technique] = Metric(max(shares),
                                                        unit="%")
    return metrics


@bench_spec(
    id="fig7_comm_reduction",
    title="Figure 7: dynamic communication after COCO, relative to MTCG",
    source="benchmarks/bench_fig7_comm_reduction.py",
    cells=_matrix_cells)
def collect_fig7(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        values = []
        for name in _benches(mode):
            base = evaluation(name, technique, coco=False,
                              scale=mode.scale)
            if base["communication_instructions"] == 0:
                continue  # not parallelized: nothing to optimize
            relative = relative_communication(
                evaluation(name, technique, coco=True, scale=mode.scale),
                base)
            metrics["relcomm/%s/%s" % (technique, name)] = \
                Metric(relative, unit="%")
            values.append(relative)
        metrics["relcomm/%s/mean" % technique] = \
            Metric(arithmetic_mean(values), unit="%")
    return metrics


@bench_spec(
    id="fig8_speedup",
    title="Figure 8: speedup over single-threaded, without/with COCO",
    source="benchmarks/bench_fig8_speedup.py",
    cells=_matrix_cells)
def collect_fig8(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        for coco in (False, True):
            config = technique + ("+coco" if coco else "")
            speedups = []
            for name in _benches(mode):
                speedup = evaluation(name, technique, coco=coco,
                                     scale=mode.scale)["speedup"]
                metrics["speedup/%s/%s" % (config, name)] = \
                    Metric(speedup, unit="x")
                speedups.append(speedup)
            metrics["geomean/%s" % config] = Metric(geomean(speedups),
                                                    unit="x")
    return metrics


@bench_spec(
    id="gremio_speedup",
    title="GREMIO-E1: GREMIO speedup over single-threaded",
    source="benchmarks/bench_gremio_speedup.py",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def collect_gremio_speedup(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    speedups = []
    parallelized = 0
    for name in _benches(mode):
        ev = evaluation(name, "gremio", coco=False, scale=mode.scale)
        metrics["speedup/%s" % name] = Metric(ev["speedup"], unit="x")
        speedups.append(ev["speedup"])
        if ev["communication_instructions"] > 100:
            parallelized += 1
    metrics["geomean"] = Metric(geomean(speedups), unit="x")
    metrics["min"] = Metric(min(speedups), unit="x")
    metrics["max"] = Metric(max(speedups), unit="x")
    metrics["parallelized/count"] = Metric(parallelized, unit="count")
    return metrics


@bench_spec(
    id="gremio_vs_dswp",
    title="GREMIO-E2: GREMIO vs DSWP on the same dual-core model",
    source="benchmarks/bench_gremio_vs_dswp.py",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def collect_gremio_vs_dswp(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    wins: Dict[str, int] = {"gremio": 0, "dswp": 0}
    per_technique: Dict[str, List[float]] = {"gremio": [], "dswp": []}
    for name in _benches(mode):
        values = {}
        for technique in TECHNIQUES:
            speedup = evaluation(name, technique, coco=False,
                                 scale=mode.scale)["speedup"]
            values[technique] = speedup
            per_technique[technique].append(speedup)
            metrics["speedup/%s/%s" % (technique, name)] = \
                Metric(speedup, unit="x")
        if values["gremio"] > values["dswp"] + 0.02:
            wins["gremio"] += 1
        elif values["dswp"] > values["gremio"] + 0.02:
            wins["dswp"] += 1
    for technique in TECHNIQUES:
        metrics["geomean/%s" % technique] = \
            Metric(geomean(per_technique[technique]), unit="x")
        metrics["wins/%s" % technique] = Metric(wins[technique],
                                                unit="count")
    return metrics
