"""TUNE-E1: search-based auto-tuning vs the paper-default schedulers.

Runs the seeded ``repro tune`` search (:mod:`repro.tune`) over its
smoke workloads and records, per workload, the best-found cycle count
against the default GREMIO and DSWP baselines it always contains.  The
search is deterministic (fixed seed, fixed budget, pool-invariant
scoring), so every metric is exact-tolerance: any drift means the
search itself — the knob space, a strategy, or the evaluation stack
under it — changed behavior.

``improvement_vs_*_pct`` is the headline: how much headroom the
cost-model-guided search finds over each fixed heuristic (Durbhakula;
Eremeev et al. — see PAPERS.md).  It is >= 0 by construction, since
the baselines are seeded into the search before any strategy proposal.
"""

from __future__ import annotations

from ...api import TuneRequest, tune
from ..spec import BenchMode, Metric, MetricMap, bench_spec

#: Fixed search shape: the CLI ``--smoke`` configuration (so the CI
#: determinism gate, this spec, and the docs all describe one search).
TUNE_WORKLOADS = ("adpcmdec", "ks")
TUNE_SEED = 0
TUNE_STRATEGY = "greedy"
TUNE_BUDGET = {"smoke": 24, "full": 48}


def _request(mode: BenchMode) -> TuneRequest:
    return TuneRequest(
        workloads=tuple(mode.pick(list(TUNE_WORKLOADS))),
        strategy=TUNE_STRATEGY,
        budget=TUNE_BUDGET["smoke" if mode.is_smoke else "full"],
        seed=TUNE_SEED, scale=mode.scale)


@bench_spec(
    id="tune_smoke",
    title="TUNE-E1: auto-tuned configuration vs paper defaults",
    source="benchmarks/bench_tune_smoke.py")
def collect_tune_smoke(mode: BenchMode) -> MetricMap:
    result = tune(_request(mode))
    metrics: MetricMap = {
        "candidates_evaluated": Metric(float(result.evaluated),
                                       unit="count"),
    }
    for workload, best in sorted(result.best.items()):
        metrics["best_cycles/" + workload] = Metric(
            best["metrics"]["mt_cycles"], unit="cycles")
        for label, cycles in sorted(
                best["baseline_mt_cycles"].items()):
            metrics["%s_cycles/%s" % (label, workload)] = Metric(
                cycles, unit="cycles")
        for label, pct in sorted(best["improvement_pct"].items()):
            metrics["improvement_vs_%s_pct/%s"
                    % (label, workload)] = Metric(pct, unit="%")
    return metrics
