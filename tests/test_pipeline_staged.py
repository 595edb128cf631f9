"""Equivalence and telemetry tests for the staged pipeline: caching
on/off, warm-cache replay, and multiprocess ``evaluate_many`` must all
produce bit-identical Evaluation metrics to plain serial execution."""

import multiprocessing

import pytest

from repro import evaluate_workload, get_workload
from repro.api import (EvaluateRequest, ProgramSpec, Telemetry,
                       configure_cache, evaluate, evaluate_many, get_cache)

WORKLOADS = ["ks", "adpcmdec", "mpeg2enc"]
TECHNIQUES = ["gremio", "dswp"]


@pytest.fixture
def cache(tmp_path):
    previous = get_cache()
    active = configure_cache(str(tmp_path / "artifacts"))
    yield active
    configure_cache(previous.directory, previous.enabled)


def metrics(evaluation):
    """The exact-comparison payload of one evaluation."""
    return (
        evaluation.workload.name,
        evaluation.technique,
        evaluation.st_result.cycles,
        evaluation.mt_result.cycles,
        evaluation.speedup,
        evaluation.communication_instructions,
        evaluation.computation_instructions,
        tuple(sorted(evaluation.mt_result.live_outs.items())),
        tuple(sorted(evaluation.st_result.live_outs.items())),
    )


def request(name, technique="gremio", coco=False, **fields):
    return EvaluateRequest(program=ProgramSpec.registry(name),
                           technique=technique, coco=coco, scale="train",
                           **fields)


class TestStagedEquivalence:
    def test_cache_on_off_and_warm_are_bit_identical(self, cache):
        for name in WORKLOADS:
            for technique in TECHNIQUES:
                uncached = evaluate_workload(
                    get_workload(name), technique=technique,
                    scale="train", cache=False)
                cold = evaluate_workload(
                    get_workload(name), technique=technique, scale="train")
                warm = evaluate_workload(
                    get_workload(name), technique=technique, scale="train")
                assert metrics(uncached) == metrics(cold) == metrics(warm)
        assert cache.stats.hits > 0

    def test_matrix_parallel_matches_serial(self, cache, tmp_path):
        cells = [request(name, technique)
                 for name in WORKLOADS for technique in TECHNIQUES]
        serial = evaluate_many(cells, jobs=1)
        configure_cache(str(tmp_path / "pooled"))  # cold again
        parallel = evaluate_many(cells, jobs=2)
        assert ([result.metrics for result in serial]
                == [result.metrics for result in parallel])

    def test_matrix_parallel_cold_matches_uncached(self, cache):
        cells = [request("ks", technique, coco)
                 for technique in TECHNIQUES for coco in (False, True)]
        parallel = evaluate_many(cells, jobs=2)
        baseline = [evaluate_workload(get_workload(cell.workload),
                                      technique=cell.technique,
                                      coco=cell.coco, scale="train",
                                      cache=False)
                    for cell in cells]
        assert ([result.metrics for result in parallel]
                == [ev.metrics() for ev in baseline])

    def test_traced_batch_runs_on_the_pool(self, cache, monkeypatch):
        """A traced batch fans out like any other, and each answer is
        the one ``evaluate`` gives its request."""
        starts = []
        pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            starts.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
        traced = [request(name, trace=True) for name in ("ks", "adpcmdec")]
        pooled = evaluate_many(traced, jobs=2)
        assert len(starts) == 1
        for cell, result in zip(traced, pooled):
            alone = evaluate(cell)
            assert result.trace and result.trace == alone.trace
            assert result.metrics == alone.metrics
            assert result.fingerprints == alone.fingerprints

    def test_matrix_preserves_cell_order(self, cache):
        cells = [request(name) for name in WORKLOADS]
        results = evaluate_many(cells, jobs=2)
        assert [result.request.workload for result in results] == WORKLOADS
        assert [result.metrics["st_cycles"] for result in results] \
            == [float(evaluate_workload(get_workload(name),
                                        scale="train").st_result.cycles)
                for name in WORKLOADS]


class TestTelemetry:
    def test_stage_timings_and_counters(self, cache):
        telemetry = Telemetry()
        evaluate_workload(get_workload("ks"), technique="dswp",
                          scale="train", telemetry=telemetry)
        names = set(telemetry.stages)
        assert {"normalize", "profile", "pdg", "partition", "mtcg",
                "simulate-st", "simulate-mt"} <= names
        assert "coco" not in names  # not requested
        assert telemetry.counters["pdg_nodes"] > 0
        assert telemetry.counters["pdg_edges"] > 0
        assert telemetry.counters["channels_inserted"] > 0
        assert telemetry.counters["st_cycles"] > 0
        assert telemetry.counters["mt_cycles"] > 0
        rendered = telemetry.timings_table()
        assert "simulate-mt" in rendered and "stage" in rendered

    def test_warm_run_records_hits(self, cache):
        evaluate_workload(get_workload("ks"), scale="train")
        telemetry = Telemetry()
        evaluate_workload(get_workload("ks"), scale="train",
                          telemetry=telemetry)
        assert telemetry.cache_hits > 0
        assert telemetry.cache_misses == 0

    def test_coco_stage_recorded_when_enabled(self, cache):
        telemetry = Telemetry()
        evaluate_workload(get_workload("ks"), technique="dswp", coco=True,
                          scale="train", telemetry=telemetry)
        assert "coco" in telemetry.stages
        assert telemetry.counters.get("coco_iterations", 0) >= 1

    def test_evaluation_carries_run_telemetry(self, cache):
        ev = evaluate_workload(get_workload("ks"), scale="train")
        assert ev.telemetry is not None
        assert ev.fingerprints.get("simulate-mt")
        assert ev.parallelization.fingerprints.get("partition")
