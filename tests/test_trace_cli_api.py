"""End-to-end tests for the tracing surface: the ``repro trace`` CLI
(the acceptance command, including the ``adpcm`` family alias), the
``trace=True`` opt-in on the API facade, and the bit-identical
guarantee — enabling tracing must not move a single simulated cycle."""

import gc
import json
import weakref

import pytest

from repro.api import (EvaluateRequest, EvaluateResult, ProgramSpec,
                       configure_cache, evaluate, evaluate_workload,
                       get_cache, get_workload)
from repro.cli import main
from repro.trace import STALL_CATEGORIES


@pytest.fixture()
def isolated_cache(tmp_path):
    previous = get_cache()
    configure_cache(str(tmp_path / "cache"), True)
    try:
        yield
    finally:
        configure_cache(previous.directory, previous.enabled)


class TestTraceCLI:
    def test_acceptance_command(self, isolated_cache, tmp_path, capsys):
        """python -m repro trace adpcm --partitioner gremio
        --out trace.json --report produces a loadable trace and the
        stall/critical-path report."""
        out = tmp_path / "trace.json"
        assert main(["trace", "adpcm", "--partitioner", "gremio",
                     "--scale", "train", "--out", str(out),
                     "--report"]) == 0
        printed = capsys.readouterr().out
        assert "critical path:" in printed
        assert "top stall:" in printed
        assert "Stall attribution" in printed or "stall" in printed
        with open(out) as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"X", "M"} <= phases

    def test_dswp_with_json_report(self, isolated_cache, tmp_path,
                                   capsys):
        out = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main(["trace", "adpcm", "--partitioner", "dswp",
                     "--scale", "train", "--out", str(out),
                     "--report-json", str(report)]) == 0
        with open(report) as handle:
            document = json.load(handle)
        assert document["schema"] == "repro.trace/v1"
        assert document["top_stall_reason"] in STALL_CATEGORIES
        assert document["critical_path_cycles"] <= document["total_cycles"]
        # Per-core rows reconcile in the persisted report too.
        for row in document["cores"].values():
            attributed = row["execute"] + sum(row[c]
                                              for c in STALL_CATEGORIES)
            assert attributed == pytest.approx(row["finish"])

    def test_alias_resolves_to_registered_kernel(self):
        assert get_workload("adpcm").name == "adpcmdec"

    def test_ring_limit_flag(self, isolated_cache, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "ks", "--scale", "train", "--out",
                     str(out), "--limit", "128"]) == 0
        with open(out) as handle:
            document = json.load(handle)
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 128
        assert document["otherData"]["events_dropped"] > 0


class TestTracingIsBitIdentical:
    def test_cycles_match_untraced_run(self, isolated_cache):
        """Acceptance criterion: with tracing enabled, simulated cycle
        counts are bit-identical to the untraced pipeline."""
        baseline = evaluate_workload(get_workload("ks"), technique="dswp",
                                     scale="train")
        configure_cache(None, False)  # no artifact reuse between runs
        traced = evaluate_workload(get_workload("ks"), technique="dswp",
                                   scale="train", trace=True)
        base_metrics = baseline.metrics()
        traced_metrics = traced.metrics()
        assert traced_metrics["mt_cycles"] == base_metrics["mt_cycles"]
        assert traced_metrics["st_cycles"] == base_metrics["st_cycles"]
        assert traced_metrics["speedup"] == base_metrics["speedup"]
        assert traced.trace is not None
        assert baseline.trace is None
        assert (traced.trace.total_cycles
                == base_metrics["mt_cycles"])

    def test_trace_metrics_surface(self, isolated_cache):
        ev = evaluate_workload(get_workload("ks"), technique="dswp", scale="train",
                               trace=True)
        metrics = ev.metrics()
        assert metrics["critical_path_cycles"] > 0
        assert metrics["critical_path_instructions"] >= 1
        # Satellite: cache hit/miss counters surface in metrics().
        assert any(key.startswith("cache_") for key in metrics)


class TestTracedRunLeavesGcAsFound:
    """The traced simulate-mt stage pauses the cyclic collector and, on
    the way out, promotes what it allocated with freeze + unfreeze —
    only when it paused the collector itself and nothing was frozen."""

    @staticmethod
    def _traced():
        return evaluate_workload(get_workload("ks"), technique="dswp",
                                 scale="train", trace=True)

    @staticmethod
    def _tracked(obj, generation=None):
        return any(other is obj for other in gc.get_objects(generation))

    def test_enabled_gc_is_enabled_again(self, isolated_cache):
        assert gc.isenabled()
        self._traced()
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_disabled_gc_stays_disabled_and_unpromoted(self,
                                                       isolated_cache):
        gc.disable()
        try:
            marker = []
            assert self._tracked(marker, 0)
            self._traced()
            assert not gc.isenabled()
            assert gc.get_freeze_count() == 0
            assert self._tracked(marker, 0), "the stage promoted it"
        finally:
            gc.enable()

    def test_callers_frozen_heap_stays_frozen(self, isolated_cache):
        marker = []
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert not self._tracked(marker)
            self._traced()
            assert gc.isenabled()
            assert gc.get_freeze_count() == frozen
            assert not self._tracked(marker), "the stage unfroze it"
        finally:
            gc.unfreeze()

    def test_result_is_freed_by_refcount(self, isolated_cache):
        """No reference cycle holds a trace: with the cyclic collector
        off, dropping the evaluation frees its collector."""
        gc.disable()
        try:
            evaluation = self._traced()
            collector = weakref.ref(evaluation.trace.collector)
            assert collector() is not None
            del evaluation
            assert collector() is None
        finally:
            gc.enable()


class TestApiFacadeTrace:
    def test_request_roundtrip_and_key(self):
        request = EvaluateRequest(program=ProgramSpec.registry("ks"), technique="dswp",
                                  trace=True)
        clone = EvaluateRequest.from_dict(request.as_dict())
        assert clone.trace is True
        untraced = EvaluateRequest(program=ProgramSpec.registry("ks"), technique="dswp")
        assert request.request_key() != untraced.request_key()

    def test_trace_flag_must_be_bool(self):
        with pytest.raises((TypeError, ValueError)):
            EvaluateRequest(program=ProgramSpec.registry("ks"), trace="yes").validate()

    def test_evaluate_carries_summary(self, isolated_cache):
        result = evaluate(EvaluateRequest(program=ProgramSpec.registry("ks"),
                                          technique="dswp",
                                          scale="train", trace=True))
        assert result.trace is not None
        assert result.trace["schema"] == "repro.trace/v1"
        assert result.trace["top_stall_reason"] in STALL_CATEGORIES
        assert result.trace["critical_path_cycles"] > 0
        # And survives the wire format.
        clone = EvaluateResult.from_dict(result.as_dict())
        assert clone.trace == result.trace

    def test_untraced_result_has_no_summary(self, isolated_cache):
        result = evaluate(EvaluateRequest(program=ProgramSpec.registry("ks"),
                                          technique="dswp",
                                          scale="train"))
        assert result.trace is None
