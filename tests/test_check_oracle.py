"""Tests for the differential execution oracle
(:mod:`repro.check.oracle`) and the structured deadlock reporting in
:mod:`repro.debug` it is built on."""

import pytest

from repro.check.oracle import VERDICTS, run_oracle
from repro.debug import find_divergence
from repro.machine import DeadlockError, run_mt_program
from repro.ir import Opcode

from .helpers import build_memory_loop
from .mt_utils import (build_crossed_deadlock, build_livelock_program,
                       make_mt, round_robin_partition)


def _memory_loop_case():
    f = build_memory_loop()
    mt = make_mt(f, round_robin_partition(f, 2))
    return f, mt, {"r_n": 12}, {"arr_in": list(range(12))}


class TestOracleVerdicts:
    def test_correct_program_is_ok(self):
        f, mt, args, memory = _memory_loop_case()
        result = run_oracle(f, mt, args, memory)
        assert result.ok and result.verdict == "ok"
        assert result.st_stores == result.mt_stores == 12
        assert result.st_liveouts == result.mt_liveouts
        assert "equivalent" in result.describe()

    def test_sabotaged_store_is_divergence(self):
        f, mt, args, memory = _memory_loop_case()
        for thread in mt.threads:
            for instruction in thread.instructions():
                if instruction.op is Opcode.STORE:
                    instruction.imm = (instruction.imm or 0) + 1
                    break
        result = run_oracle(f, mt, args, memory)
        assert result.verdict == "divergence"
        assert result.divergence is not None
        assert "first divergence" in result.describe()

    def test_crossed_program_is_deadlock(self):
        """The satellite case: two threads, each consuming from the other
        before producing for it.  The oracle must terminate, classify it
        as deadlock, and name the blocked threads and offending
        channels."""
        mt = build_crossed_deadlock()
        result = run_oracle(mt.original, mt)
        assert result.verdict == "deadlock"
        report = result.deadlock
        assert report is not None
        assert report.blocked_threads == [0, 1]
        assert report.blocking_queues == [0, 1]
        assert len(report.channels) == 2
        text = result.describe()
        assert "deadlock" in text and "blocked" in text

    def test_spinning_thread_is_livelock(self):
        """A thread that never stops making progress must be classified
        livelock, not deadlock — the watchdog distinguishes 'blocked on
        queues' from 'running past the step budget'."""
        mt = build_livelock_program()
        result = run_oracle(mt.original, mt, max_steps=5_000)
        assert result.verdict == "livelock"
        assert result.deadlock is None
        assert "still progressing" in result.detail

    def test_all_verdicts_declared(self):
        assert set(VERDICTS) >= {"ok", "deadlock", "livelock",
                                 "divergence", "liveout-mismatch",
                                 "store-count-mismatch", "queue-residue"}


class TestDeadlockReporting:
    def test_trace_mt_returns_structured_report(self):
        """The report the old ``trace_mt`` returned now rides on the
        ``DeadlockError`` of the untimed executor."""
        mt = build_crossed_deadlock()
        with pytest.raises(DeadlockError) as error:
            run_mt_program(mt, max_steps=10_000)
        report = error.value.report
        # Both threads sit on their first consume; nothing was produced,
        # so every blocking queue is empty.
        for blocked in report.blocked:
            assert blocked.instruction.op is Opcode.CONSUME
            assert report.occupancy.get(blocked.queue, 0) == 0
        assert "blocked" in report.describe()

    def test_find_divergence_raises_by_default(self):
        mt = build_crossed_deadlock()
        with pytest.raises(DeadlockError) as error:
            find_divergence(mt.original, mt, max_steps=10_000)
        assert error.value.report.blocking_queues == [0, 1]
        assert error.value.writes == []
