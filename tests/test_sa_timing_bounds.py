"""Synchronization-array timing bounds: the shared-port schedule's
booking dict must stay bounded on long runs (regression for unbounded
growth), and queue-capacity back-pressure must show up as
``sa_queue_full`` stall attribution when — and only when — the queue is
actually tight."""

import dataclasses

import pytest

from repro.analysis import build_pdg
from repro.interp import run_function
from repro.machine import DEFAULT_CONFIG, simulate_program
from repro.machine.timing import SAPortSchedule
from repro.machine.timing_oracle import simulate_threads_oracle
from repro.mtcg import generate
from repro.partition.dswp import DSWPPartitioner
from repro.trace import TraceCollector

from ._pipeline_fixture import build_pipeline_loop


class TestSAPortSchedulePrune:
    def test_prune_drops_only_below_watermark(self):
        schedule = SAPortSchedule(ports=2)
        for cycle in range(10):
            schedule.book(cycle)
        schedule.prune(5)
        assert sorted(schedule.booked) == [5, 6, 7, 8, 9]

    def test_next_free_unaffected_at_or_above_watermark(self):
        schedule = SAPortSchedule(ports=1)
        for cycle in (3, 4, 5, 6):
            schedule.book(cycle)
        before = schedule.next_free(5)
        schedule.prune(5)
        assert schedule.next_free(5) == before == 7

    def test_prune_empty_is_a_noop(self):
        schedule = SAPortSchedule(ports=4)
        schedule.prune(1000)
        assert schedule.booked == {}

    @staticmethod
    def _booked_peak(monkeypatch, **loop):
        """Simulate a long two-stage pipeline and return ``(result,
        peak, prunes)``: the largest ``booked`` dict any SA port
        schedule of the run held, and how often it was pruned.  The
        production core books ports inline, so the peak is sampled where
        both loops touch the schedules: just before each ``prune`` (a
        dict only grows between sweeps) and at the end of the run."""
        f = build_pipeline_loop()
        args = {"r_n": 4000}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p, None)

        schedules, sizes = [], []
        init, prune = SAPortSchedule.__init__, SAPortSchedule.prune

        def recording_init(self, ports):
            init(self, ports)
            schedules.append(self)

        def recording_prune(self, watermark):
            sizes.append(len(self.booked))
            prune(self, watermark)

        monkeypatch.setattr(SAPortSchedule, "__init__", recording_init)
        monkeypatch.setattr(SAPortSchedule, "prune", recording_prune)
        result = simulate_program(mt, args, config=DEFAULT_CONFIG.for_dswp(),
                                  **loop)
        prunes = len(sizes)
        sizes.extend(len(schedule.booked) for schedule in schedules)
        return result, max(sizes), prunes

    def test_booked_stays_bounded_on_long_simulation(self, monkeypatch):
        """Regression: before pruning, ``booked`` grew by one entry per
        SA access forever.  A run of the production core with tens of
        thousands of SA accesses must stay at or below the prune
        threshold plus one round of growth."""
        result, peak, prunes = self._booked_peak(monkeypatch)
        assert result.communication_instructions \
            > SAPortSchedule.PRUNE_THRESHOLD
        assert prunes > 0
        # Bounded: never far past the threshold (one booking per access
        # may land between prune sweeps).
        assert peak <= 2 * SAPortSchedule.PRUNE_THRESHOLD

    def test_booked_stays_bounded_on_the_reference_loop(self, monkeypatch):
        """The same bound on the reference timed loop (the oracle)."""
        result, peak, prunes = self._booked_peak(
            monkeypatch, simulate_threads=simulate_threads_oracle)
        assert result.communication_instructions \
            > SAPortSchedule.PRUNE_THRESHOLD
        assert prunes > 0
        assert peak <= 2 * SAPortSchedule.PRUNE_THRESHOLD


def _slow_consumer_program():
    """A loop whose *consumer* stage is the slow one — the shape that
    creates produce-side back-pressure.  (DSWP's own partitioner fuses
    this loop into one stage, so the split is pinned by hand: thread 0
    runs the cheap ``r_x`` recurrence, thread 1 the loop-carried
    multiply chain that consumes it.)"""
    from repro.ir import FunctionBuilder
    from repro.partition import Partition

    b = FunctionBuilder("bp_loop", params=["r_n"], live_outs=["r_s"])
    b.label("entry")
    b.movi("r_x", 7)
    b.movi("r_s", 1)
    b.movi("r_i", 0)
    b.jmp("header")
    b.label("header")
    b.cmplt("r_c", "r_i", "r_n")
    b.br("r_c", "body", "done")
    b.label("body")
    b.add("r_x", "r_x", 1)          # cheap producer recurrence
    b.mul("r_s", "r_s", 3)          # slow, loop-carried consumer chain
    b.add("r_s", "r_s", "r_x")
    b.mul("r_s", "r_s", 5)
    b.and_("r_s", "r_s", 65535)
    b.add("r_i", "r_i", 1)
    b.jmp("header")
    b.label("done")
    b.exit()
    f = b.build()
    assignment = {i.iid: (1 if i.dest == "r_s" else 0)
                  for i in f.instructions()}
    return generate(f, build_pdg(f), Partition(f, 2, assignment))


def _traced_run(mt, config, n):
    collector = TraceCollector()
    result = simulate_program(mt, {"r_n": n}, config=config,
                              tracer=collector)
    collector.verify()
    return collector, result


class TestBackPressureAttribution:
    @pytest.fixture(scope="class")
    def program(self):
        return _slow_consumer_program()

    def test_tiny_queue_shows_produce_side_stalls(self, program):
        """With a 1-entry SA queue the producer must wait for the slow
        consumer to free the slot, and the attribution must say so."""
        tiny = dataclasses.replace(DEFAULT_CONFIG, sa_queue_size=1)
        collector, _ = _traced_run(program, tiny, n=30)
        assert collector.stall_totals()["sa_queue_full"] > 0

    def test_deep_dswp_queue_absorbs_back_pressure(self, program):
        """On a run short enough that the producer never gets 32
        iterations ahead, the 32-entry DSWP configuration fully
        decouples the stages: zero produce-side stalls."""
        deep = DEFAULT_CONFIG.for_dswp()
        assert deep.sa_queue_size == 32
        collector, _ = _traced_run(program, deep, n=30)
        assert collector.stall_totals()["sa_queue_full"] == 0

    def test_capacity_monotonically_relieves_back_pressure(self, program):
        """On a long run even the deep queue eventually fills (the
        consumer is steady-state slower), but strictly less of the time
        than the 1-entry queue."""
        tiny = dataclasses.replace(DEFAULT_CONFIG, sa_queue_size=1)
        deep = DEFAULT_CONFIG.for_dswp()
        tiny_col, tiny_res = _traced_run(program, tiny, n=300)
        deep_col, deep_res = _traced_run(program, deep, n=300)
        assert tiny_col.stall_totals()["sa_queue_full"] \
            > deep_col.stall_totals()["sa_queue_full"] > 0
        # Consumer-bound either way: the end-to-end time is set by the
        # slow stage, back-pressure just moves where producers wait.
        assert tiny_res.cycles >= deep_res.cycles

    def test_backpressure_lands_on_the_producer_core(self, program):
        """sa_queue_full cycles must be attributed to the *produce*
        side (core 0 here), not to the consumer."""
        tiny = dataclasses.replace(DEFAULT_CONFIG, sa_queue_size=1)
        collector, _ = _traced_run(program, tiny, n=30)
        table = collector.core_table()
        assert table[0]["sa_queue_full"] > 0
        assert table[1]["sa_queue_full"] == 0
