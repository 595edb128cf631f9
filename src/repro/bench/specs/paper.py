"""Specs for the papers' headline figures: experimental setup (Fig 6),
communication breakdown (Fig 1), COCO communication reduction (Fig 7),
speedups (Fig 8), and the GREMIO experiments (E1/E2), each followed by
the paper's claims about it.

All of these read the ``metrics`` of memoized matrix cells, so the
runner can prewarm the whole (workload x technique x coco) matrix
through ``evaluate_many`` (``--jobs N``) before the extractors run
serially.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...machine import DEFAULT_CONFIG
from ...api import MatrixCell
from ...stats import (arithmetic_mean, communicates, geomean,
                      relative_communication)
from ...workloads import all_workloads
from ..harness import BENCH_ORDER, evaluation
from ..spec import BenchMode, Metric, MetricMap, bench_spec

TECHNIQUES = ("gremio", "dswp")

#: The one definition of a *parallelised* function: its baseline MTCG
#: code executes more than this many dynamic communication instructions.
#: Below it, the threads exchange only live-ins, live-outs or a value per
#: outer iteration, and the hot loop runs on one thread.
PARALLELISED_MIN_COMM = 100

#: How far one technique's speedup must lead the other's to count as a
#: win in GREMIO-E2.
WIN_MARGIN = 0.02


def parallelised(ev: Mapping[str, float]) -> bool:
    """Whether an evaluated cell's code counts as parallelised."""
    return ev["communication_instructions"] > PARALLELISED_MIN_COMM


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


def _per_function(m, prefix: str) -> Dict[str, float]:
    """``{function: value}`` under ``prefix``, suite aggregates left out."""
    return {name: value for name, value in m.under(prefix).items()
            if name not in ("max", "mean")}


@bench_spec(
    id="fig6_setup",
    title="Figure 6: machine configuration and benchmark functions")
def fig6_setup(mode: BenchMode) -> MetricMap:
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


@fig6_setup.claim("COCO-Fig6/eleven-functions",
                  "11 functions of SPEC-CPU, MediaBench and "
                  "Pointer-Intensive")
def _eleven_functions(m):
    count = m["workloads/count"]
    return "%d functions" % count, count == 11


@fig6_setup.claim("COCO-Fig6/synchronization-array",
                  "256 queues, 1-cycle access")
def _synchronization_array(m):
    queues = m["machine/sa_queues"]
    latency = m["machine/sa_access_latency"]
    return ("%d queues, %d-cycle access" % (queues, latency),
            (queues, latency) == (256, 1))


@bench_spec(
    id="fig1_breakdown",
    title="Figure 1: dynamic communication share under baseline MTCG",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def fig1_breakdown(mode: BenchMode) -> MetricMap:
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


@fig1_breakdown.claim("COCO-Fig1/share-bounded",
                      "communication is up to about a fourth of the "
                      "dynamic instructions")
def _share_bounded(m):
    top = [m["comm_pct/%s/max" % technique] for technique in TECHNIQUES]
    return ("max GREMIO %.1f %%, DSWP %.1f %% (≤ 50 %%)" % tuple(top),
            max(top) <= 50.0)


def _communicates_everywhere(technique: str):
    def check(m):
        shares = _per_function(m, "comm_pct/%s/" % technique).values()
        count = sum(share > 1.0 for share in shares)
        return ("%d/%d functions above 1 %%" % (count, len(shares)),
                count == len(shares))
    return check


fig1_breakdown.claim("COCO-Fig1/gremio-on-every-function",
                     "GREMIO code communicates on every function "
                     "(Fig. 1(a))")(_communicates_everywhere("gremio"))
fig1_breakdown.claim("COCO-Fig1/dswp-on-every-function",
                     "DSWP code communicates on every function "
                     "(Fig. 1(b))")(_communicates_everywhere("dswp"))


@bench_spec(
    id="fig7_comm_reduction",
    title="Figure 7: dynamic communication after COCO, relative to MTCG",
    cells=_matrix_cells)
def fig7_comm_reduction(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    for technique in TECHNIQUES:
        values = []
        for name in _benches(mode):
            base = evaluation(name, technique, coco=False,
                              scale=mode.scale)
            if not communicates(base):
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


@fig7_comm_reduction.claim("COCO-Fig7/never-increases",
                           "COCO never increases dynamic communication")
def _never_increases(m):
    worst = max(max(_per_function(m, "relcomm/%s/" % technique).values())
                for technique in TECHNIQUES)
    return "max %.2f %%" % worst, worst <= 100.0 + 1e-9


@fig7_comm_reduction.claim("COCO-Fig7/reduces-on-average",
                           "COCO reduces communication on average")
def _reduces_on_average(m):
    means = [m["relcomm/%s/mean" % technique] for technique in TECHNIQUES]
    return ("GREMIO %.2f %%, DSWP %.2f %%" % tuple(means),
            max(means) < 100.0)


def _mean_near(technique: str, paper_mean: float):
    # `relcomm/<technique>/mean` averages only the functions whose
    # baseline code communicates at all: the others have no entry.
    def check(m):
        mean = m["relcomm/%s/mean" % technique]
        functions = len(_per_function(m, "relcomm/%s/" % technique))
        return ("%.2f %%, mean of the %d functions that communicate"
                % (mean, functions), abs(mean - paper_mean) <= 10.0)
    return check


fig7_comm_reduction.claim(
    "COCO-Fig7/gremio-mean",
    "GREMIO 65.6 % on average (holds within 10 points)")(
        _mean_near("gremio", 65.6))
fig7_comm_reduction.claim(
    "COCO-Fig7/dswp-mean",
    "DSWP 76.2 % on average (holds within 10 points)")(
        _mean_near("dswp", 76.2))


@fig7_comm_reduction.claim("COCO-Fig7/ks-largest-gremio-reduction",
                           "ks is GREMIO's largest reduction (73.7 %)")
def _ks_largest(m):
    values = _per_function(m, "relcomm/gremio/")
    largest = min(values, key=values.get)
    return ("%s, %.2f %% removed" % (largest, 100.0 - values[largest]),
            largest == "ks")


@fig7_comm_reduction.claim("COCO-Fig7/adpcmenc-gremio-unchanged",
                           "adpcmenc with GREMIO is unchanged")
def _adpcmenc_unchanged(m):
    value = m["relcomm/gremio/adpcmenc"]
    return "%.2f %%" % value, value == 100.0


@bench_spec(
    id="fig8_speedup",
    title="Figure 8: speedup over single-threaded, without/with COCO",
    cells=_matrix_cells)
def fig8_speedup(mode: BenchMode) -> MetricMap:
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


def _coco_gains(m) -> List[float]:
    """COCO's geomean speedup gain per technique, in %."""
    return [100.0 * (m["geomean/%s+coco" % technique]
                     / m["geomean/%s" % technique] - 1.0)
            for technique in TECHNIQUES]


@fig8_speedup.claim("COCO-Fig8/never-hurts-geomean",
                    "COCO turns communication savings into speedup")
def _never_hurts(m):
    gains = _coco_gains(m)
    return ("GREMIO %+.1f %%, DSWP %+.1f %% (≥ -0.1 %%)" % tuple(gains),
            min(gains) >= -0.1)


@fig8_speedup.claim("COCO-Fig8/gain-larger-for-gremio",
                    "COCO gains more for GREMIO (+15.6 %) than for DSWP "
                    "(+2.7 %)")
def _gain_ordering(m):
    gremio, dswp = _coco_gains(m)
    return ("GREMIO %+.1f %%, DSWP %+.1f %%" % (gremio, dswp),
            gremio > dswp)


@bench_spec(
    id="gremio_speedup",
    title="GREMIO-E1: GREMIO speedup over single-threaded",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def gremio_speedup(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    speedups = []
    count = 0
    for name in _benches(mode):
        ev = evaluation(name, "gremio", coco=False, scale=mode.scale)
        metrics["speedup/%s" % name] = Metric(ev["speedup"], unit="x")
        speedups.append(ev["speedup"])
        count += parallelised(ev)
    metrics["geomean"] = Metric(geomean(speedups), unit="x")
    metrics["min"] = Metric(min(speedups), unit="x")
    metrics["max"] = Metric(max(speedups), unit="x")
    metrics["parallelized/count"] = Metric(count, unit="count")
    return metrics


@gremio_speedup.claim("GREMIO-E1/coverage",
                      "GREMIO parallelises all 11 functions")
def _coverage(m):
    count, functions = m["parallelized/count"], len(m.under("speedup/"))
    return ("%d/%d (more than %d communication instructions)"
            % (count, functions, PARALLELISED_MIN_COMM),
            count == functions)


@gremio_speedup.claim("GREMIO-E1/parallelises-several",
                      "GREMIO extracts TLP from general-purpose "
                      "functions")
def _parallelises_several(m):
    count = m["parallelized/count"]
    return "%d functions parallelised (≥ 4)" % count, count >= 4


@gremio_speedup.claim("GREMIO-E1/speedup-shape",
                      "real speedups, and no large loss where GREMIO "
                      "declines to split")
def _speedup_shape(m):
    top, mean, low = m["max"], m["geomean"], m["min"]
    return ("max %.3fx, geomean %.3fx, min %.3fx (> 1.2, > 0.95, > 0.7)"
            % (top, mean, low), top > 1.2 and mean > 0.95 and low > 0.7)


def _leaders(speedups: Dict[str, Dict[str, float]], technique: str,
             other: str) -> List[str]:
    """The functions where ``technique`` leads ``other`` by more than
    :data:`WIN_MARGIN`."""
    return [name for name, speedup in speedups[technique].items()
            if speedup > speedups[other][name] + WIN_MARGIN]


@bench_spec(
    id="gremio_vs_dswp",
    title="GREMIO-E2: GREMIO vs DSWP on the same dual-core model",
    cells=lambda mode: _matrix_cells(mode, coco=(False,)))
def gremio_vs_dswp(mode: BenchMode) -> MetricMap:
    metrics: MetricMap = {}
    speedups: Dict[str, Dict[str, float]] = {"gremio": {}, "dswp": {}}
    for name in _benches(mode):
        for technique in TECHNIQUES:
            speedup = evaluation(name, technique, coco=False,
                                 scale=mode.scale)["speedup"]
            speedups[technique][name] = speedup
            metrics["speedup/%s/%s" % (technique, name)] = \
                Metric(speedup, unit="x")
    for technique, other in zip(TECHNIQUES, reversed(TECHNIQUES)):
        metrics["geomean/%s" % technique] = \
            Metric(geomean(list(speedups[technique].values())), unit="x")
        metrics["wins/%s" % technique] = Metric(
            len(_leaders(speedups, technique, other)), unit="count")
    return metrics


@gremio_vs_dswp.claim("GREMIO-E2/both-find-parallelism",
                      "both partitioners extract real TLP on one "
                      "PDG + MTCG substrate")
def _both_find_parallelism(m):
    tops = [max(m.under("speedup/%s/" % technique).values())
            for technique in TECHNIQUES]
    return "max GREMIO %.3fx, DSWP %.3fx (> 1.2)" % tuple(tops), \
        min(tops) > 1.2


@gremio_vs_dswp.claim("GREMIO-E2/winners-differ",
                      "different sweet spots: each leads on some "
                      "functions")
def _winners_differ(m):
    speedups = {technique: m.under("speedup/%s/" % technique)
                for technique in TECHNIQUES}
    ahead = {technique: _leaders(speedups, technique, other)
             for technique, other in zip(TECHNIQUES, reversed(TECHNIQUES))}
    return ("GREMIO ahead on %s; DSWP ahead on %d"
            % (", ".join(ahead["gremio"]) or "none", len(ahead["dswp"])),
            all(ahead.values()))
