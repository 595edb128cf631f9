"""Per-layer metrics of the traced run (layer = module name).

Every number is derived from the program's public outputs -- the
``Telemetry`` passed into ``api.evaluate``, answer documents,
``get_cache().stats``, ``/metrics`` and the daemons' request logs -- or
from a direct probe of one facade call.  A metric that does not apply
to a workload reads 0.  ``BENCHMARK.json`` lists the names."""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Iterable, List, Sequence

import contract
from measure import mean, percentile

#: Pipeline stage -> the layer metric prefix (module that does the work).
STAGES = {
    "normalize": "pipeline.normalize", "profile": "interp.profile",
    "pdg": "analysis.pdg", "partition": "partition.partition",
    "coco": "coco.coco", "mtcg": "mtcg.mtcg",
    "placement": "machine.placement",
    "simulate-st": "machine.simulate_st",
    "simulate-mt": "machine.simulate_mt",
}

#: Counts that must repeat exactly between two runs of one commit with
#: one seed (``compare.py --exact``).
EXACT = ("machine.sim_instructions", "machine.sim_cycles", "trace.events",
         "cache.hits", "cache.memory_hits", "cache.misses", "cache.stores",
         "cache.invalidations")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_delta(before: Dict[str, float], after: Dict[str, float]
                  ) -> Dict[str, float]:
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if isinstance(value, (int, float))}


def stage_totals(telemetry_documents: Iterable[Dict[str, object]]
                 ) -> Dict[str, Dict[str, float]]:
    """Sum ``Telemetry.to_dict()`` documents: stage -> seconds/runs/hits,
    plus the ``trace_events`` counter under ``"counters"``."""
    totals: Dict[str, Dict[str, float]] = {"counters": {"trace_events": 0}}
    for document in telemetry_documents:
        for name, stage in document.get("stages", {}).items():
            total = totals.setdefault(
                name, {"seconds": 0.0, "runs": 0, "hits": 0})
            total["seconds"] += stage.get("seconds", 0.0)
            total["runs"] += stage.get("runs", 0)
            total["hits"] += stage.get("cache_hits", 0)
        totals["counters"]["trace_events"] += document.get(
            "counters", {}).get("trace_events", 0)
    return totals


def stage_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    metrics = {}
    for stage, prefix in STAGES.items():
        total = totals.get(stage, {})
        metrics[prefix + "_s"] = total.get("seconds", 0.0)
        metrics[prefix + "_runs"] = total.get("runs", 0)
        metrics[prefix + "_hits"] = total.get("hits", 0)
    return metrics


def stage_seconds(totals: Dict[str, Dict[str, float]]) -> float:
    return sum(totals.get(stage, {}).get("seconds", 0.0) for stage in STAGES)


def simulation_metrics(answers: Iterable[Dict[str, float]],
                       totals: Dict[str, Dict[str, float]]
                       ) -> Dict[str, float]:
    """Exact simulated work of the evaluations that really ran (their
    ``metrics`` dicts) and the simulator's host speed."""
    instructions = cycles = 0.0
    for metrics in answers:
        instructions += metrics.get("dynamic_instructions", 0.0)
        cycles += metrics.get("st_cycles", 0.0) + metrics.get("mt_cycles", 0.0)
    simulate_mt = totals.get("simulate-mt", {})
    ran = simulate_mt.get("runs", 0) > 0
    return {"machine.sim_instructions": instructions,
            "machine.sim_cycles": cycles,
            "machine.sim_instr_per_s":
                ratio(instructions, simulate_mt.get("seconds", 0.0))
                if ran else 0.0,
            "trace.events": totals["counters"]["trace_events"]}


def cache_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    hits, misses = delta.get("hits", 0), delta.get("misses", 0)
    return {"cache.hits": hits,
            "cache.memory_hits": delta.get("memory_hits", 0),
            "cache.misses": misses,
            "cache.stores": delta.get("stores", 0),
            "cache.invalidations": delta.get("invalidations", 0),
            "cache.hit_ratio": ratio(hits, hits + misses)}


def handler_ms(records: Sequence[Dict[str, object]]) -> List[float]:
    return [1000.0 * float(record.get("seconds", 0.0)) for record in records]


def service_metrics(client_ms: Sequence[float], front_ms: Sequence[float],
                    node_records: Sequence[Dict[str, object]],
                    counters: Dict[str, float]) -> Dict[str, float]:
    """``front_ms``: handler times of the daemon the clients talk to;
    ``node_records``: request-log records of the daemon(s) that own the
    memo and the pool; ``counters``: their summed ``/metrics`` deltas."""
    node_ms = handler_ms(node_records)
    requests = counters.get("requests_total", 0)
    return {
        "service.client_ms_mean": mean(client_ms),
        "service.client_ms_p99": percentile(client_ms, 99),
        "service.handler_ms_mean": mean(node_ms),
        "service.handler_ms_p50": percentile(node_ms, 50),
        "service.handler_ms_p99": percentile(node_ms, 99),
        "service.transport_ms_mean": mean(client_ms) - mean(front_ms),
        "service.requests_total": requests,
        "service.memo_hits": counters.get("memo_hits", 0),
        "service.memo_hit_ratio": ratio(counters.get("memo_hits", 0),
                                        requests),
        "service.evaluations_completed":
            counters.get("evaluations_completed", 0),
        "service.shed_total": counters.get("shed_total", 0),
        "service.timeouts_total": counters.get("timeouts_total", 0),
        "service.worker_respawns": counters.get("worker_respawns", 0),
        "service.queue_depth_max": max(
            [int(record.get("queue_depth", 0)) for record in node_records],
            default=0),
    }


def cluster_metrics(client_ms: Sequence[float], coordinator_ms: Sequence[float],
                    worker_ms: Sequence[float], counters: Dict[str, float],
                    shards: Dict[str, float]) -> Dict[str, float]:
    routed = [count for count in shards.values() if count > 0]
    return {
        "cluster.coord_handler_ms_mean": mean(coordinator_ms),
        "cluster.worker_handler_ms_mean": mean(worker_ms),
        "cluster.hop_ms_mean": mean(coordinator_ms) - mean(worker_ms),
        "cluster.transport_ms_mean": mean(client_ms) - mean(coordinator_ms),
        "cluster.routed_total": counters.get("routed_total", 0),
        "cluster.failovers_total": counters.get("failovers_total", 0),
        "cluster.shed_total": counters.get("shed_total", 0),
        "cluster.shard_imbalance": ratio(max(routed, default=0),
                                         mean(routed)),
        "cluster.store_gets": counters.get("store_gets", 0),
        "cluster.store_puts": counters.get("store_puts", 0),
    }


# -- direct probes -----------------------------------------------------------

def timed_us(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return 1e6 * (time.perf_counter() - start)


def probe_cache(api, directory: str, scratch: str) -> Dict[str, float]:
    """Load every blob of a populated cache directory from disk (no
    memory tier) and store it again into a scratch directory."""
    source = api.ArtifactCache(directory, enabled=True, memory_budget=0)
    target = api.ArtifactCache(scratch, enabled=True, memory_budget=0)
    loads, stores, size = [], [], 0
    for stage in sorted(os.listdir(directory)):
        for folder, _, files in os.walk(os.path.join(directory, stage)):
            for name in sorted(files):
                if not name.endswith(".pkl"):
                    continue
                key = name[:-len(".pkl")]
                size += os.path.getsize(os.path.join(folder, name))
                start = time.perf_counter()
                hit, payload = source.load(stage, key)
                loads.append(1e6 * (time.perf_counter() - start))
                if hit:
                    stores.append(timed_us(
                        lambda: target.store(stage, key, payload)))
    return {"cache.load_us_p50": percentile(loads, 50) if loads else 0.0,
            "cache.store_us_p50": percentile(stores, 50) if stores else 0.0,
            "cache.blob_bytes_total": size}


def probe_workload_build(api) -> Dict[str, float]:
    """What ``evaluate_workload`` pays before the first stage: building
    the function and fetching both input sets."""
    samples = []
    for name in api.workload_names():
        workload = api.get_workload(name)

        def build(workload=workload):
            workload.build()
            workload.make_inputs("train")
            workload.make_inputs("ref")
        samples.append(timed_us(build) / 1000.0)
    return {"workloads.build_ms_p50": percentile(samples, 50)}


def probe_request_parsing(api, bodies: Sequence[Dict[str, object]]
                          ) -> Dict[str, float]:
    """The two facade calls every served request pays, on the wire
    documents the clients send."""
    parse, key = [], []
    for body in bodies:
        parse.append(timed_us(lambda: api.EvaluateRequest.from_dict(body)))
        request = api.EvaluateRequest.from_dict(body)
        key.append(timed_us(request.request_key))
    return {"api.from_dict_us_p50": percentile(parse, 50),
            "api.request_key_us_p50": percentile(key, 50)}


def probe_frontend(api, bodies: Sequence[Dict[str, object]]
                   ) -> Dict[str, float]:
    """``api.resolve_program`` on sources this process has not seen."""
    samples = []
    for body in bodies:
        spec = api.ProgramSpec.from_dict(body["program"])
        samples.append(timed_us(lambda: api.resolve_program(spec)) / 1000.0)
    return {"frontend.compile_ms_p50": percentile(samples, 50)}


def complete(metrics: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; what the workload does not
    exercise reads 0."""
    return contract.with_units(metrics, contract.PER_LAYER, default=0)
