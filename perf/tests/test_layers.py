import json
import os
import re

import pytest

import contract
import harness
import layers
from conftest import ROOT_DIR

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    benchmark = _benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["perf"]
    assert benchmark["command"] == ["python3", "perf/run.py"]
    assert benchmark["run_seconds"] == harness.RUN_SECONDS
    assert list(contract.WHY) == list(harness.WORKLOADS) == \
        list(harness.COUNTS)
    names = [metric["name"] for metric in contract.PER_LAYER]
    for prefix in layers.STAGES.values():
        assert {prefix + "_s", prefix + "_runs", prefix + "_hits"} <= set(names)
    assert set(layers.EXACT) <= set(names)
    assert all(set(m) == {"name", "unit", "better"}
               for m in benchmark["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in benchmark["end_to_end"])


def test_benchmark_json_meets_the_contract_limits():
    benchmark = _benchmark()
    names = ([w["name"] for w in benchmark["workloads"]]
             + [m["name"] for m in benchmark["end_to_end"]]
             + [m["name"] for m in benchmark["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark["workloads"])
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_end_to_end_pools_the_repetitions():
    def repetition(setup_s, rates):
        return {"setup_s": setup_s, "peak_rss_mib": 50.0 + setup_s,
                "intervals": {"throughput_ops_s": rates,
                              "cpu_ms_per_op": [1.0], "latency_p50_ms": [2.0],
                              "latency_p90_ms": [3.0]}}
    metrics = harness.end_to_end([repetition(1.0, [10.0, 11.0]),
                                  repetition(9.0, [50.0]),
                                  repetition(2.0, [12.0, 13.0])])
    assert list(metrics) == [m["name"] for m in _benchmark()["end_to_end"]]
    assert metrics["setup_s"] == {"value": 2.0, "unit": "s"}
    assert metrics["peak_rss_mb"]["value"] == 52.0
    assert metrics["throughput_ops_s"]["value"] == 12.0
    assert metrics["latency_p90_ms"]["value"] == 3.0


def test_recorder_marks_read_the_meter():
    class FakeMeter:
        def read(self):
            return 4.5
    recorder = harness.Recorder(1, FakeMeter())
    recorder.record(0, "k", 0.0, 0.5, True, {})
    recorder.mark()
    assert recorder.marks[0][1:] == (4.5, 1)


def test_stage_totals_and_metrics():
    documents = [
        {"stages": {"pdg": {"runs": 1, "cache_hits": 0, "seconds": 0.25},
                    "simulate-mt": {"runs": 1, "cache_hits": 0,
                                    "seconds": 2.0}},
         "counters": {"trace_events": 10}},
        {"stages": {"pdg": {"runs": 0, "cache_hits": 1, "seconds": 0.05}}},
        {},
    ]
    totals = layers.stage_totals(documents)
    metrics = layers.stage_metrics(totals)
    assert metrics["analysis.pdg_s"] == pytest.approx(0.3)
    assert (metrics["analysis.pdg_runs"], metrics["analysis.pdg_hits"]) == (1, 1)
    assert metrics["coco.coco_s"] == 0.0
    assert layers.stage_seconds(totals) == pytest.approx(2.3)
    simulated = layers.simulation_metrics(
        [{"dynamic_instructions": 1000.0, "st_cycles": 5.0, "mt_cycles": 3.0}] * 2,
        totals)
    assert simulated == {"machine.sim_instructions": 2000.0,
                         "machine.sim_cycles": 16.0,
                         "machine.sim_instr_per_s": 1000.0,
                         "trace.events": 10}
    warm = layers.simulation_metrics([{"dynamic_instructions": 9.0}],
                                     layers.stage_totals([]))
    assert warm["machine.sim_instr_per_s"] == 0.0


def test_service_and_cluster_metrics_nest():
    worker_log = [{"seconds": 0.001, "queue_depth": 0},
                  {"seconds": 0.003, "queue_depth": 2}]
    service = layers.service_metrics(
        [5.0, 7.0], [4.0, 4.0], worker_log,
        {"requests_total": 2, "memo_hits": 1, "shed_total": 0})
    assert service["service.client_ms_mean"] == 6.0
    assert service["service.handler_ms_mean"] == pytest.approx(2.0)
    assert service["service.transport_ms_mean"] == pytest.approx(2.0)
    assert service["service.memo_hit_ratio"] == 0.5
    assert service["service.queue_depth_max"] == 2
    cluster = layers.cluster_metrics(
        [5.0, 7.0], [4.0, 4.0], [1.0, 3.0],
        {"routed_total": 2, "store_puts": 5}, {"w0": 3, "w1": 1})
    assert cluster["cluster.hop_ms_mean"] == pytest.approx(2.0)
    assert cluster["cluster.transport_ms_mean"] == pytest.approx(2.0)
    assert cluster["cluster.shard_imbalance"] == pytest.approx(1.5)
    assert cluster["cluster.store_puts"] == 5


def test_cache_metrics_and_counter_delta():
    delta = layers.counter_delta({"hits": 10, "misses": 1},
                                 {"hits": 40, "misses": 11, "store": {}})
    assert delta == {"hits": 30, "misses": 10}
    assert layers.cache_metrics(delta)["cache.hit_ratio"] == 0.75
    assert layers.cache_metrics({})["cache.hit_ratio"] == 0.0


def test_complete_fills_zeros_and_rejects_unknown_names():
    document = layers.complete({"cache.hits": 3})
    assert list(document) == [m["name"] for m in contract.PER_LAYER]
    assert document["cache.hits"] == {"value": 3, "unit": "count"}
    assert document["cluster.hop_ms_mean"]["value"] == 0
    with pytest.raises(KeyError):
        layers.complete({"cache.hitz": 1})
    with pytest.raises(KeyError):  # an end-to-end metric may not be missing
        contract.with_units({"setup_s": 1.0}, contract.END_TO_END)


def test_probes_measure_something(api, tmp_path):
    import cells
    body = cells.cell_op("mpeg2enc", "gremio", False)[1]
    api.evaluate(api.EvaluateRequest.from_dict(body))
    probe = layers.probe_cache(api, api.get_cache().directory,
                               str(tmp_path / "scratch"))
    assert probe["cache.load_us_p50"] > 0 and probe["cache.store_us_p50"] > 0
    assert probe["cache.blob_bytes_total"] > 1000
    assert layers.probe_workload_build(api)["workloads.build_ms_p50"] > 0
    parsing = layers.probe_request_parsing(api, [body] * 5)
    assert parsing["api.from_dict_us_p50"] > 0
    assert parsing["api.request_key_us_p50"] > 0
    programs = [op[1] for op in cells.ProgramGenerator(11).take(5)]
    assert layers.probe_frontend(api, programs)["frontend.compile_ms_p50"] > 0
