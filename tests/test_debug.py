"""Tests for the divergence debugger."""

import pytest

from repro.debug import find_divergence
from repro.executor.untimed import DEADLOCK_TAIL
from repro.machine import DeadlockError
from repro.ir import Opcode

from .helpers import build_memory_loop
from .mt_utils import make_mt, round_robin_partition


class TestFindDivergence:
    def test_correct_program_has_none(self):
        f = build_memory_loop()
        mt = make_mt(f, round_robin_partition(f, 2))
        divergence = find_divergence(
            f, mt, {"r_n": 12}, {"arr_in": list(range(12))})
        assert divergence is None

    def test_corrupted_store_detected(self):
        """Sabotage the generated code (flip a store offset) and check the
        debugger pinpoints the damaged address."""
        f = build_memory_loop()
        mt = make_mt(f, round_robin_partition(f, 2))
        sabotaged = None
        for thread in mt.threads:
            for instruction in thread.instructions():
                if instruction.op is Opcode.STORE and sabotaged is None:
                    instruction.imm = (instruction.imm or 0) + 1
                    sabotaged = instruction
        assert sabotaged is not None
        divergence = find_divergence(
            f, mt, {"r_n": 12}, {"arr_in": list(range(12))})
        assert divergence is not None
        text = divergence.describe()
        assert "first divergence" in text
        # Either the original address misses a write or the shifted one
        # gains an unexpected write.
        assert divergence.expected is None or divergence.actual is None \
            or divergence.expected.value != divergence.actual.value

    def test_dropped_produce_detected_without_hanging(self):
        """Remove a produce: the MT run deadlocks; the debugger still
        terminates, and by default surfaces a structured report naming
        the starved queue instead of silently truncating the trace."""
        f = build_memory_loop()
        mt = make_mt(f, round_robin_partition(f, 2))
        for thread in mt.threads:
            for block in thread.blocks:
                new = [i for i in block.instructions
                       if i.op is not Opcode.PRODUCE]
                if len(new) != len(block.instructions):
                    block.instructions = new
                    break
            else:
                continue
            break
        args = {"r_n": 12}
        memory = {"arr_in": list(range(12))}
        with pytest.raises(DeadlockError) as error:
            find_divergence(f, mt, args, memory, max_steps=50_000)
        report = error.value.report
        assert report.blocked_threads
        assert report.blocking_queues
        assert "blocked" in report.describe()


class TestDeadlockRecentEvents:
    def test_report_carries_functional_step_tail(self):
        """A deadlock report includes the last functional steps each
        blocked thread ran before progress stopped — the context that
        makes a crossed produce/consume immediately legible."""
        from repro.machine import run_mt_program
        from .mt_utils import build_crossed_deadlock
        with pytest.raises(DeadlockError) as error:
            run_mt_program(build_crossed_deadlock(), max_steps=10_000)
        report = error.value.report
        assert report.recent_events
        # Both threads got to run their movi before wedging on consume.
        threads_seen = {event.thread for event in report.recent_events}
        assert threads_seen == {0, 1}
        text = report.describe()
        assert "before the stall" in text
        assert "step" in text

    def test_recent_events_window_is_bounded(self):
        f = build_memory_loop()
        mt = make_mt(f, round_robin_partition(f, 2))
        for thread in mt.threads:
            for block in thread.blocks:
                new = [i for i in block.instructions
                       if i.op is not Opcode.PRODUCE]
                if len(new) != len(block.instructions):
                    block.instructions = new
                    break
            else:
                continue
            break
        with pytest.raises(DeadlockError) as error:
            find_divergence(f, mt, {"r_n": 12},
                            {"arr_in": list(range(12))}, max_steps=100_000)
        report = error.value.report
        assert report.recent_events
        assert all(len(record.tail) <= DEADLOCK_TAIL
                   for record in report.blocked)
        # describe() shows only the tail, not the whole window.
        tail_lines = [line for line in report.describe().splitlines()
                      if line.startswith("    ")]
        assert len(tail_lines) <= 8
