"""Tests for the trace event collector: ring-buffer bounds, the stall
attribution tables, and the reconciliation invariant (per core,
``execute + sum(stalls) == finish`` exactly)."""

import pytest

from repro.analysis import build_pdg
from repro.interp import run_function
from repro.machine import DEFAULT_CONFIG, simulate_program, simulate_single
from repro.mtcg import generate
from repro.partition.dswp import DSWPPartitioner
from repro.trace import (EXECUTE, STALL_CATEGORIES, QueueSample,
                         RingBuffer, TraceCollector, analyze)

from ._pipeline_fixture import build_pipeline_loop


class TestRingBuffer:
    def test_keeps_everything_under_capacity(self):
        ring = RingBuffer(10)
        for value in range(7):
            ring.append(value)
        assert ring.snapshot() == list(range(7))
        assert ring.appended == 7
        assert ring.dropped == 0

    def test_drops_oldest_beyond_capacity(self):
        ring = RingBuffer(4)
        for value in range(10):
            ring.append(value)
        assert ring.snapshot() == [6, 7, 8, 9]
        assert ring.appended == 10
        assert ring.dropped == 6

    def test_len_and_iteration(self):
        ring = RingBuffer(3)
        ring.append("a")
        ring.append("b")
        assert len(ring) == 2
        assert list(ring) == ["a", "b"]

    def test_rows_read_as_views(self):
        """A ring with a view type stores rows and builds the views on
        read; ``push`` leaves the count to the producer."""
        ring = RingBuffer(2, QueueSample)
        for depth in range(3):
            ring.appended += 1
            ring.push((7, float(depth), depth))
        assert ring.rows() == [(7, 1.0, 1), (7, 2.0, 2)]
        assert [sample.depth for sample in ring] == [1, 2]
        assert [sample.cycle for sample in ring.snapshot()] == [1.0, 2.0]
        assert (len(ring), ring.appended, ring.dropped) == (2, 3, 1)


def _traced_dswp_run(n=120):
    f = build_pipeline_loop()
    args = {"r_n": n}
    profile = run_function(f, args).profile
    pdg = build_pdg(f)
    p = DSWPPartitioner().partition(f, pdg, profile, 2)
    mt = generate(f, pdg, p, None)
    collector = TraceCollector()
    result = simulate_program(mt, args, config=DEFAULT_CONFIG.for_dswp(),
                              tracer=collector)
    return collector, result


class TestCollectorOnRealRun:
    @pytest.fixture(scope="class")
    def traced(self):
        return _traced_dswp_run()

    def test_events_recorded(self, traced):
        collector, result = traced
        assert collector.events.appended > 0
        assert collector.events.dropped == 0
        assert collector.total_cycles == result.cycles

    def test_reconciliation_invariant_exact(self, traced):
        collector, _ = traced
        # verify() raises on any per-core mismatch; call it directly
        # and also re-check by hand so a regression names the core.
        collector.verify()
        for core, row in collector.core_table().items():
            attributed = row[EXECUTE] + sum(row[c]
                                            for c in STALL_CATEGORIES)
            assert attributed == pytest.approx(
                collector.core_finish[core], abs=1e-9), core

    def test_stall_categories_are_canonical(self, traced):
        collector, _ = traced
        totals = collector.stall_totals()
        assert set(totals) <= set(STALL_CATEGORIES)
        # A pipelined loop on in-order cores always waits on operands
        # or communication somewhere.
        assert sum(totals.values()) > 0

    def test_top_stall_is_the_argmax(self, traced):
        collector, _ = traced
        reason, cycles = collector.top_stall()
        totals = collector.stall_totals()
        assert reason in STALL_CATEGORIES
        assert cycles == max(totals.values())

    def test_queue_samples_bounded_and_nonnegative(self, traced):
        collector, _ = traced
        samples = collector.queue_samples.snapshot()
        assert samples, "an MT run must sample SA queue depths"
        assert all(s.depth >= 0 for s in samples)

    def test_analyze_summary_shape(self, traced):
        collector, result = traced
        analysis = analyze(collector)
        summary = analysis.summary()
        assert summary["schema"] == "repro.trace/v1"
        assert summary["total_cycles"] == result.cycles
        assert summary["top_stall_reason"] in STALL_CATEGORIES
        assert summary["critical_path_cycles"] <= result.cycles

    def test_report_json_roundtrips(self, traced):
        import json
        collector, _ = traced
        from repro.trace import stall_report_json, stall_report_markdown
        analysis = analyze(collector)
        document = json.loads(stall_report_json(analysis))
        assert document["schema"] == "repro.trace/v1"
        assert document["cores"]
        markdown = stall_report_markdown(analysis)
        assert "critical path" in markdown.lower()

    def test_ring_overflow_keeps_aggregates(self):
        """A tiny ring drops events but the per-core accounts (kept
        outside the ring) still reconcile exactly."""
        f = build_pipeline_loop()
        args = {"r_n": 120}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p, None)
        collector = TraceCollector(limit=64)
        result = simulate_program(mt, args,
                                  config=DEFAULT_CONFIG.for_dswp(),
                                  tracer=collector)
        assert collector.events.dropped > 0
        assert len(collector.events) == 64
        collector.verify()
        assert collector.total_cycles == result.cycles


class TestSingleThreadedTrace:
    def test_single_core_reconciles(self):
        f = build_pipeline_loop()
        collector = TraceCollector()
        result = simulate_single(f, {"r_n": 60}, tracer=collector)
        collector.verify()
        assert collector.total_cycles == result.cycles
        totals = collector.stall_totals()
        # No synchronization array in play on one core.
        assert totals.get("sa_queue_full", 0) == 0
        assert totals.get("sa_queue_empty", 0) == 0


class TestPlacedThreads:
    """``core_finish`` is indexed by core id, the thread table by thread
    index: under a non-identity placement the drain tail must land on
    the thread that ran on the core, not on a thread numbered like it."""

    def test_drain_goes_to_the_thread_on_the_core(self):
        collector = TraceCollector()
        collector.on_event(0, 0, 1, "movi", "alu", 0, 1.0)
        collector.on_event(2, 1, 2, "load", "memory", 0, 5.0)
        collector.on_finish([1.0, 0.0, 5.0])
        collector.verify()
        assert sorted(collector.threads) == [0, 1]  # no phantom thread 2
        assert collector.threads[1]["drain"] == 4.0
        assert collector.threads[0]["drain"] == 0.0
        assert collector.core_table()[2]["drain"] == 4.0

    def test_quad_2x2_thread_rows_sum_to_core_rows(self):
        """End to end on the production core: a GREMIO program whose
        first thread finishes with a completion tail, placed off the
        identity on ``quad-2x2``."""
        from repro.api import get_workload
        from repro.machine import simulate_program
        from repro.pipeline.core import parallelize
        workload = get_workload("435.gromacs")
        inputs = workload.make_inputs("train")
        built = parallelize(
            workload.build(), technique="gremio", n_threads=3,
            profile_args=inputs.args, profile_memory=inputs.memory,
            cache=False, topology="quad-2x2")
        placement = (2, 0, 3)
        collector = TraceCollector()
        simulate_program(built.program, inputs.args, inputs.memory,
                         config=built.config, placement=placement,
                         tracer=collector)
        analysis = analyze(collector)
        assert analysis.stall_totals["drain"] > 0, \
            "the case must have a completion tail to attribute"
        assert sorted(analysis.thread_table) == [0, 1, 2]
        for thread, core in enumerate(placement):
            for category in STALL_CATEGORIES:
                assert (analysis.thread_table[thread][category]
                        == analysis.core_table[core][category]), (
                    thread, core, category)
