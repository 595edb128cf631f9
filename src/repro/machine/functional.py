"""Functional (untimed) multi-threaded simulation.

Runs an :class:`~repro.mtcg.program.MTProgram`'s threads against a shared
memory and blocking FIFO queues on the untimed executor
(:class:`repro.executor.untimed.Execution`): each thread runs until it
blocks on a queue operation or exits, round robin.  This is the semantic
half of the CMP model: it establishes *what* the multi-threaded code
computes (which must equal the single-threaded run) and detects
deadlock; the timing model layers *when* on top.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Mapping, Optional

from ..executor.untimed import Execution
from ..interp.state import Memory
from ..ir.instructions import Opcode
from ..mtcg.program import MTProgram


class FifoQueues:
    """Bounded FIFO queues (the functional view of the synchronization
    array).  ``capacity`` bounds each queue's occupancy; the hardware uses
    32-entry queues for DSWP and single-element queues otherwise."""

    def __init__(self, n_queues: int, capacity: int = 32):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.queues: List[deque] = [deque() for _ in range(n_queues)]
        self.total_pushes = 0
        self.max_occupancy = 0
        self.pushes_per_queue: List[int] = [0] * n_queues

    def try_push(self, queue: int, value) -> bool:
        q = self.queues[queue]
        if len(q) >= self.capacity:
            return False
        q.append(value)
        self.total_pushes += 1
        self.pushes_per_queue[queue] += 1
        self.max_occupancy = max(self.max_occupancy, len(q))
        return True

    def try_pop(self, queue: int):
        q = self.queues[queue]
        if not q:
            return False, None
        return True, q.popleft()

    def all_empty(self) -> bool:
        return all(not q for q in self.queues)


class MTRunResult:
    """Outcome of one functional multi-threaded execution.
    ``instruction_counts`` maps ``(thread, iid)`` to its dynamic count:
    MTCG's threads reuse iids, so an iid alone names no instruction."""

    def __init__(self, program: MTProgram, memory: Memory,
                 thread_regs: List[Dict[str, object]],
                 per_thread_instructions: List[int],
                 per_thread_communication: List[int],
                 opcode_counts: Counter, queues: FifoQueues,
                 instruction_counts: Counter):
        self.program = program
        self.memory = memory
        self.thread_regs = thread_regs
        self.per_thread_instructions = per_thread_instructions
        self.per_thread_communication = per_thread_communication
        self.opcode_counts = opcode_counts
        self.queues = queues
        self.instruction_counts = instruction_counts

    @property
    def live_outs(self) -> Dict[str, object]:
        regs = self.thread_regs[self.program.exit_thread]
        return {register: regs.get(register)
                for register in self.program.original.live_outs}

    @property
    def dynamic_instructions(self) -> int:
        return sum(self.per_thread_instructions)

    @property
    def communication_instructions(self) -> int:
        return sum(self.per_thread_communication)

    @property
    def computation_instructions(self) -> int:
        return self.dynamic_instructions - self.communication_instructions

    def mem_object(self, name: str) -> List:
        obj = self.program.original.mem_objects[name]
        return self.memory.read_array(obj.base, obj.size)

    def __repr__(self) -> str:  # pragma: no cover
        return "<MTRunResult %s: %d instrs (%d comm)>" % (
            self.program.original.name, self.dynamic_instructions,
            self.communication_instructions)


def run_mt_program(program: MTProgram, args: Optional[Mapping[str, object]] = None,
                   initial_memory: Optional[Mapping[str, object]] = None,
                   queue_capacity: int = 32,
                   max_steps: int = 100_000_000) -> MTRunResult:
    """Execute all threads until every thread exits.

    Raises ``DeadlockError`` (with its report) if all live threads block
    — which the MTCG pairing invariant promises never happens for
    generated code — and ``MTExecutionLimitExceeded`` once more than
    ``max_steps`` instructions would run.
    """
    run = Execution.for_program(program, args, initial_memory,
                                queue_capacity).run(max_steps)
    n = len(program.threads)
    per_thread_instructions = [0] * n
    per_thread_communication = [0] * n
    opcode_counts: Counter = Counter()
    instruction_counts: Counter = Counter()
    queues = FifoQueues(program.n_queues, queue_capacity)
    for thread in range(n):
        for recs, count in zip(run.blocks[thread], run.visits[thread]):
            if not count:
                continue
            for rec in recs:
                instruction = rec[2]
                per_thread_instructions[thread] += count
                opcode_counts[instruction.op] += count
                instruction_counts[(thread, instruction.iid)] += count
                if instruction.is_communication():
                    per_thread_communication[thread] += count
                if instruction.op in (Opcode.PRODUCE, Opcode.PRODUCE_SYNC):
                    queues.pushes_per_queue[instruction.queue] += count
    queues.queues = run.fifo
    queues.total_pushes = sum(queues.pushes_per_queue)
    queues.max_occupancy = run.max_occupancy
    return MTRunResult(program, run.memory,
                       [run.registers(thread) for thread in range(n)],
                       per_thread_instructions, per_thread_communication,
                       opcode_counts, queues, instruction_counts)
