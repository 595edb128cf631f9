"""Tests for the machine model: caches, queues, and the timing simulator."""

from repro.analysis import build_pdg
from repro.interp import run_function
from repro.machine import (DEFAULT_CONFIG, MemoryHierarchy,
                           config_table, simulate_program, simulate_single)
from repro.machine.timing import TimedQueues
from repro.mtcg import generate
from repro.partition import single_thread_partition
from repro.partition.dswp import DSWPPartitioner
from repro.partition.gremio import GremioPartitioner

from .helpers import (build_counted_loop, build_memory_loop,
                      build_nested_loops, build_paper_figure4,
                      build_straightline)
from .mt_utils import round_robin_partition


class TestCacheHierarchy:
    def test_first_access_misses_then_hits(self):
        h = MemoryHierarchy(DEFAULT_CONFIG)
        cold = h.access(0, 100, False)
        warm = h.access(0, 100, False)
        assert cold == DEFAULT_CONFIG.memory_latency
        assert warm == DEFAULT_CONFIG.l1d.hit_latency

    def test_spatial_locality_within_line(self):
        h = MemoryHierarchy(DEFAULT_CONFIG)
        h.access(0, 0, False)
        # Words 0..7 share a 64-byte line (8-byte words).
        assert h.access(0, 7, False) == DEFAULT_CONFIG.l1d.hit_latency
        # Word 8 is a different L1 line, but same 128B L2 line.
        assert h.access(0, 8, False) == DEFAULT_CONFIG.l2.hit_latency

    def test_write_invalidates_other_core(self):
        h = MemoryHierarchy(DEFAULT_CONFIG)
        h.access(0, 50, False)
        h.access(1, 50, False)
        assert h.access(0, 50, False) == DEFAULT_CONFIG.l1d.hit_latency
        h.access(1, 50, True)
        assert h.coherence_invalidations == 1
        # Core 0 lost its private copies; refetch hits the shared L3.
        latency = h.access(0, 50, False)
        assert latency >= DEFAULT_CONFIG.l3.hit_latency

    def test_capacity_eviction(self):
        h = MemoryHierarchy(DEFAULT_CONFIG)
        line_words = DEFAULT_CONFIG.l1d.line_bytes // DEFAULT_CONFIG.word_bytes
        n_lines = (DEFAULT_CONFIG.l1d.size_bytes
                   // DEFAULT_CONFIG.l1d.line_bytes)
        # Touch 2x the L1 capacity, then the first line must miss in L1.
        for i in range(2 * n_lines):
            h.access(0, i * line_words, False)
        assert h.access(0, 0, False) > DEFAULT_CONFIG.l1d.hit_latency

    def test_stats_accumulate(self):
        h = MemoryHierarchy(DEFAULT_CONFIG)
        h.access(0, 0, False)
        h.access(0, 0, False)
        stats = h.stats()
        assert stats["l1_hits"] == 1
        assert stats["l1_misses"] == 1


class TestTimedQueues:
    def test_backpressure_slot_free_time(self):
        q = TimedQueues(1, capacity=2)
        q.staged_push_time = 10.0
        assert q.try_push(0, "a")
        q.staged_push_time = 11.0
        assert q.try_push(0, "b")
        assert not q.try_push(0, "c")  # full
        ok, value = q.try_pop(0)
        assert ok and value == "a"
        assert q.last_popped_time == 10.0
        q.record_pop_completion(0, 20.0)
        # Third push's slot was freed by the first pop, at cycle 20.
        assert q.slot_free_time(0) == 20.0

    def test_timestamps_fifo(self):
        q = TimedQueues(2, capacity=4)
        for i in range(3):
            q.staged_push_time = float(i)
            q.try_push(1, i)
        for i in range(3):
            ok, value = q.try_pop(1)
            assert ok and value == i and q.last_popped_time == float(i)


class TestTimingSingleThread:
    def test_straightline_cycles_reflect_latencies(self):
        f = build_straightline()
        r = simulate_single(f, {"r_a": 2, "r_b": 3})
        # add(1) -> mul(3) -> sub(1) serial chain, plus exit.
        assert r.cycles >= 5
        assert r.cycles < 20
        assert r.live_outs == {"r_x": 13, "r_y": 15}

    def test_loop_cycles_scale_with_trip_count(self):
        f = build_counted_loop()
        short = simulate_single(f, {"r_n": 10})
        long = simulate_single(f, {"r_n": 100})
        assert long.cycles > short.cycles * 5

    def test_memory_latency_visible(self):
        f = build_memory_loop()
        data = list(range(64))
        r = simulate_single(f, {"r_n": 64}, {"arr_in": data})
        assert r.cache_stats["l1_misses"] > 0
        assert r.cache_stats["l1_hits"] > 0
        assert r.live_outs == {}

    def test_functional_result_matches_interpreter(self):
        f = build_nested_loops()
        timed = simulate_single(f, {"r_n": 5, "r_m": 6})
        ref = run_function(f, {"r_n": 5, "r_m": 6})
        assert timed.live_outs == ref.live_outs
        assert timed.dynamic_instructions == ref.dynamic_instructions

    def test_issue_width_limits_ipc(self):
        """With width 1, the same program takes more cycles."""
        import dataclasses
        narrow = dataclasses.replace(DEFAULT_CONFIG, issue_width=1,
                                     alu_ports=1, memory_ports=1,
                                     fp_ports=1, branch_ports=1)
        f = build_counted_loop()
        wide_r = simulate_single(f, {"r_n": 50})
        narrow_r = simulate_single(f, {"r_n": 50}, config=narrow)
        assert narrow_r.cycles > wide_r.cycles


def _mt(f, partition):
    return generate(f, build_pdg(f), partition)


class TestTimingMultiThread:
    def test_mt_functional_equivalence(self):
        f = build_nested_loops()
        p = round_robin_partition(f, 2)
        mt = _mt(f, p)
        timed = simulate_program(mt, {"r_n": 4, "r_m": 5})
        ref = run_function(f, {"r_n": 4, "r_m": 5})
        assert timed.live_outs == ref.live_outs

    def test_pipeline_speedup_on_pipelinable_loop(self):
        """A recurrence + work-chain loop pipelined by DSWP across 2 cores
        should beat single-threaded execution."""
        from ._pipeline_fixture import build_pipeline_loop
        f = build_pipeline_loop()
        args = {"r_n": 400}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p, None)
        st = simulate_single(f, args)
        par = simulate_program(mt, args, config=DEFAULT_CONFIG.for_dswp())
        assert par.live_outs == st.live_outs
        assert par.cycles < st.cycles

    def test_figure4_baseline_mtcg_is_communication_bound(self):
        """Figure 4 of the companion text: the loops are serially dependent,
        so baseline MTCG (produce inside loop 1, every iteration) cannot
        beat single-threaded execution — the motivating case for COCO."""
        f = build_paper_figure4()
        args = {"r_n": 400, "r_m": 400}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p, None)
        st = simulate_single(f, args)
        par = simulate_program(mt, args, config=DEFAULT_CONFIG.for_dswp())
        assert par.live_outs == st.live_outs
        assert par.cycles >= st.cycles * 0.95
        assert par.communication_instructions >= 400

    def test_round_robin_partition_is_slow(self):
        """An adversarial fine-grained partition communicates so much that
        it loses to single-threaded execution — communication matters."""
        f = build_counted_loop()
        args = {"r_n": 200}
        p = round_robin_partition(f, 2)
        mt = _mt(f, p)
        st = simulate_single(f, args)
        par = simulate_program(mt, args)
        assert par.cycles > st.cycles

    def test_comm_latency_monotonicity(self):
        """Raising the SA access latency never speeds things up."""
        import dataclasses
        f = build_paper_figure4()
        args = {"r_n": 100, "r_m": 100}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p)
        fast = simulate_program(mt, args)
        slow_config = dataclasses.replace(DEFAULT_CONFIG,
                                          sa_access_latency=20)
        slow = simulate_program(mt, args, config=slow_config)
        assert slow.cycles >= fast.cycles

    def test_single_thread_partition_matches_single_core_model(self):
        """MTCG with one thread simulated on the MT path should cost about
        the same as the plain single-core simulation."""
        f = build_counted_loop()
        args = {"r_n": 60}
        p = single_thread_partition(f)
        mt = _mt(f, p)
        a = simulate_program(mt, args)
        b = simulate_single(f, args)
        # Identical except MTCG's entry/exit glue.
        assert abs(a.cycles - b.cycles) <= 10

    def test_gremio_partition_runs_timed(self):
        f = build_nested_loops()
        args = {"r_n": 6, "r_m": 8}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = GremioPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p)
        timed = simulate_program(mt, args)
        ref = run_function(f, args)
        assert timed.live_outs == ref.live_outs
        assert timed.cycles > 0


class TestConfig:
    def test_config_table_mentions_parameters(self):
        text = config_table()
        assert "6 issue" in text
        assert "16 KB" in text
        assert "141" in text
        assert "256 queues" in text

    def test_dswp_config_has_32_entry_queues(self):
        assert DEFAULT_CONFIG.for_dswp().sa_queue_size == 32
        assert DEFAULT_CONFIG.sa_queue_size == 1

    def test_port_classification(self):
        from repro.ir import Instruction, Opcode
        assert DEFAULT_CONFIG.port_kind(
            Instruction(Opcode.LOAD, "r", ["p"])) == "memory"
        assert DEFAULT_CONFIG.port_kind(
            Instruction(Opcode.PRODUCE, srcs=["r"], queue=0)) == "memory"
        assert DEFAULT_CONFIG.port_kind(
            Instruction(Opcode.FADD, "r", ["a", "b"])) == "fp"
