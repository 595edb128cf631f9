"""Divergence debugging: locate where an MT execution departs from the
single-threaded oracle.

When a partitioner/codegen change breaks semantics, the failing symptom
(a wrong live-out, a differing memory word) is far from the cause.  This
module re-executes both versions on the untimed executor with a write
log, as the differential oracle of :mod:`repro.check.oracle` does, and
reports the *first divergent memory write* — the tool we use on
ourselves when a property test shrinks a counterexample.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Mapping, Optional

from .executor.untimed import Execution, WriteRecord
from .ir.cfg import Function
from .mtcg.program import MTProgram


class Divergence:
    """The first point where the per-address write sequences differ."""

    def __init__(self, address: int, index: int,
                 expected: Optional[WriteRecord],
                 actual: Optional[WriteRecord]):
        self.address = address
        self.index = index          # which write to this address (0-based)
        self.expected = expected    # from the single-threaded oracle
        self.actual = actual        # from the MT execution

    def describe(self) -> str:
        lines = ["first divergence at memory address %d, write #%d:"
                 % (self.address, self.index)]
        lines.append("  expected: %r" % (self.expected,))
        lines.append("  actual:   %r" % (self.actual,))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return "<Divergence @%d #%d>" % (self.address, self.index)


def diff_write_traces(st_writes: List[WriteRecord],
                      mt_writes: List[WriteRecord]
                      ) -> Optional[Divergence]:
    """Compare per-address write sequences; return the first mismatch.

    Writes to the same address must happen in the same order with the
    same values (MTCG's guarantee); writes to *different* addresses may
    legally interleave differently, so the comparison is per address.
    """
    def by_address(writes: List[WriteRecord]
                   ) -> Dict[int, List[WriteRecord]]:
        result: Dict[int, List[WriteRecord]] = {}
        for record in writes:
            result.setdefault(record.address, []).append(record)
        return result

    expected = by_address(st_writes)
    actual = by_address(mt_writes)
    for address in sorted(set(expected) | set(actual)):
        pairs = zip_longest(expected.get(address, ()),
                            actual.get(address, ()))
        for index, (exp, act) in enumerate(pairs):
            if exp is None or act is None or exp.value != act.value:
                return Divergence(address, index, exp, act)
    return None


def find_divergence(function: Function, program: MTProgram,
                    args: Optional[Mapping[str, object]] = None,
                    initial_memory: Optional[Mapping[str, object]] = None,
                    queue_capacity: int = 32,
                    max_steps: int = 5_000_000) -> Optional[Divergence]:
    """Compare the per-address sequences of memory writes between the
    single-threaded oracle and the MT execution; return the first
    mismatch, or None when the write streams agree everywhere.

    A deadlocked MT run raises ``DeadlockError`` carrying its structured
    ``DeadlockReport`` (``.report``: blocked threads, blocking
    queues/channels, queue occupancy, each blocked thread's last
    instructions) and the writes seen before progress stopped
    (``.writes``); a trap or a run past ``max_steps`` raises as in
    :func:`repro.executor.run_function` and ``run_mt_program``.
    """
    st_writes: List[WriteRecord] = []
    mt_writes: List[WriteRecord] = []
    Execution([function], function, args, initial_memory,
              writes=st_writes).run(max_steps)
    Execution.for_program(program, args, initial_memory, queue_capacity,
                          writes=mt_writes).run(max_steps)
    return diff_write_traces(st_writes, mt_writes)
