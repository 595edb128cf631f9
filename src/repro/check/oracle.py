"""Differential execution oracle: run one ``(program, partition,
options)`` cell single-threaded and multi-threaded and compare every
observable.

The oracle is the dynamic half of the correctness subsystem (the static
half is :mod:`repro.check.validators`): it executes the original
function and the MTCG output on the untimed executor
(:class:`repro.executor.untimed.Execution`, one thread without queues
and the functional MT machine) with a write log, then compares

* **live-out registers** (the declared results),
* **per-address memory write sequences** (same order, same values — the
  MTCG guarantee; cross-address interleaving is legal),
* **total store counts** (a cheap redundancy that catches lost or
  duplicated writes even when final values coincide),
* **queue residue** (every produced value must be consumed).

A bounded-step watchdog classifies non-terminating MT runs: a round in
which no live thread advances is a **deadlock** (with the structured
:class:`~repro.executor.untimed.DeadlockReport`); running past the step
budget while still making progress is a **livelock**.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..debug import Divergence, diff_write_traces
from ..executor.untimed import (DeadlockError, DeadlockReport, Execution,
                                ExecutionLimitExceeded,
                                MTExecutionLimitExceeded)
from ..ir.cfg import Function
from ..mtcg.program import MTProgram

#: Possible verdicts, roughly ordered by severity.
VERDICTS = ("deadlock", "livelock", "st-timeout", "divergence",
            "liveout-mismatch", "store-count-mismatch", "queue-residue",
            "ok")


class OracleResult:
    """Outcome of one differential comparison."""

    def __init__(self, verdict: str, detail: str = "",
                 divergence: Optional[Divergence] = None,
                 deadlock: Optional[DeadlockReport] = None,
                 st_stores: int = 0, mt_stores: int = 0,
                 st_liveouts: Optional[dict] = None,
                 mt_liveouts: Optional[dict] = None):
        assert verdict in VERDICTS, verdict
        self.verdict = verdict
        self.detail = detail
        self.divergence = divergence
        self.deadlock = deadlock
        self.st_stores = st_stores
        self.mt_stores = mt_stores
        self.st_liveouts = st_liveouts
        self.mt_liveouts = mt_liveouts

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def describe(self) -> str:
        if self.ok:
            return "oracle: equivalent (%d stores)" % self.st_stores
        lines = ["oracle verdict: %s" % self.verdict]
        if self.detail:
            lines.append("  " + self.detail)
        if self.deadlock is not None:
            lines.append(self.deadlock.describe())
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return "<OracleResult %s>" % self.verdict


def run_oracle(function: Function, program: MTProgram,
               args: Optional[Mapping[str, object]] = None,
               initial_memory: Optional[Mapping[str, object]] = None,
               queue_capacity: int = 32,
               max_steps: int = 2_000_000) -> OracleResult:
    """Differentially execute ``function`` vs ``program`` and classify."""
    st_writes: list = []
    try:
        st = Execution([function], function, args, initial_memory,
                       writes=st_writes).run(max_steps)
    except ExecutionLimitExceeded:
        return OracleResult(
            "st-timeout",
            "single-threaded run exceeded %d steps" % max_steps,
            st_stores=len(st_writes))

    mt_writes: list = []
    st_stores = len(st_writes)
    try:
        mt = Execution.for_program(program, args, initial_memory,
                                   queue_capacity,
                                   writes=mt_writes).run(max_steps)
    except DeadlockError as error:
        report = error.report
        return OracleResult(
            "deadlock",
            "threads %s blocked on queue(s) %s"
            % (report.blocked_threads, report.blocking_queues),
            deadlock=report, st_stores=st_stores,
            mt_stores=len(mt_writes))
    except MTExecutionLimitExceeded:
        return OracleResult(
            "livelock",
            "MT run still progressing after %d steps (ST finished in %d)"
            % (max_steps, st.steps),
            st_stores=st_stores, mt_stores=len(mt_writes))
    mt_stores = len(mt_writes)

    divergence = diff_write_traces(st_writes, mt_writes)
    if divergence is not None:
        return OracleResult("divergence", divergence.describe(),
                            divergence=divergence,
                            st_stores=st_stores, mt_stores=mt_stores)

    st_regs = st.registers(0)
    st_liveouts = {register: st_regs.get(register)
                   for register in function.live_outs}
    exit_regs = mt.registers(program.exit_thread)
    mt_liveouts = {register: exit_regs.get(register)
                   for register in function.live_outs}
    if st_liveouts != mt_liveouts:
        return OracleResult(
            "liveout-mismatch",
            "MT live-outs %r != ST %r" % (mt_liveouts, st_liveouts),
            st_stores=st_stores, mt_stores=mt_stores,
            st_liveouts=st_liveouts, mt_liveouts=mt_liveouts)

    if st_stores != mt_stores:
        return OracleResult(
            "store-count-mismatch",
            "MT executed %d stores, ST %d" % (mt_stores, st_stores),
            st_stores=st_stores, mt_stores=mt_stores)

    residue = {queue: len(pending)
               for queue, pending in enumerate(mt.fifo) if pending}
    if residue:
        return OracleResult(
            "queue-residue",
            "values left in queues at exit: %r" % (residue,),
            st_stores=st_stores, mt_stores=mt_stores)

    return OracleResult("ok", st_stores=st_stores, mt_stores=mt_stores,
                        st_liveouts=st_liveouts, mt_liveouts=mt_liveouts)
