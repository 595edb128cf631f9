"""The untimed executor: one thread or many, on compiled records.

:class:`Execution` runs thread CFGs on the dispatch records of
:mod:`.records` against one shared memory and, for MTCG output, bounded
FIFO queues.  Each thread runs until it blocks on a queue operation or
exits, then the next live one runs; a round in which no thread advances
is a deadlock, and one global step budget bounds the run.  The loop does
per *block* what a step interpreter does per instruction — one visit
counter and one budget test on entry, one counter per taken branch arm.
:func:`run_function` (the ``profile`` stage, ``repro.interp``'s
interpreter) is its one-thread case,
:func:`repro.machine.functional.run_mt_program` its MT case, and
:mod:`repro.check.oracle` and :mod:`repro.debug` run both with a write
log.  ``tests/test_executor_equivalence.py`` and the
``backend-equivalence`` CI job hold the two cases to the step oracle
(:mod:`repro.interp.step_oracle`) and to the reference timed loop
(:mod:`repro.machine.timing_oracle`).  The per-block accounting assumes
what ``ir.verify`` guarantees: a block's only terminator is its last
instruction.
"""

from __future__ import annotations

import sys
from collections import Counter, deque, namedtuple
from typing import Dict, List, Mapping, Optional

from ..ir.cfg import Function
from .records import (ALU_RI, ALU_RR, ALU_UN, BR, CONSUME, EXIT, JMP, LOAD,
                      MOVI, NOP, PRODUCE, PRODUCE_SYNC, STORE, UNDEF,
                      NoQueues, TrapError, compile_function, trap_undef)

#: Instructions a deadlock report keeps of each blocked thread's past.
DEADLOCK_TAIL = 16


class DeadlockError(Exception):
    """Every live thread is blocked on a queue operation.  From the
    untimed executor it carries a :class:`DeadlockReport` and the
    ``writes`` logged before progress stopped."""

    def __init__(self, message: str, report=None, writes=()):
        super().__init__(message)
        self.report = report
        self.writes = list(writes or ())


class ExecutionLimitExceeded(Exception):
    """The step budget ran out (probably a non-terminating program)."""


class MTExecutionLimitExceeded(Exception):
    """A multi-threaded run's step budget ran out."""


class RunResult:
    """Outcome of one single-threaded execution."""

    def __init__(self, function: Function, regs: Dict[str, object],
                 memory, profile, dynamic_instructions: int,
                 opcode_counts: Counter):
        self.function = function
        self.regs = regs
        self.memory = memory
        self.profile = profile
        self.dynamic_instructions = dynamic_instructions
        self.opcode_counts = opcode_counts

    @property
    def live_outs(self) -> Dict[str, object]:
        return {register: self.regs.get(register)
                for register in self.function.live_outs}

    def mem_object(self, name: str) -> List:
        obj = self.function.mem_objects[name]
        return self.memory.read_array(obj.base, obj.size)

    def __repr__(self) -> str:  # pragma: no cover
        return "<RunResult %s: %d dynamic instructions>" % (
            self.function.name, self.dynamic_instructions)


WriteRecord = namedtuple("WriteRecord", "address value iid thread")
#: A thread stuck on a queue operation, and the last (at most
#: :data:`DEADLOCK_TAIL`) instructions it ran as ``FunctionalEvent``s:
#: ``step`` counts the thread's own instructions, ``queue`` is set for
#: communication.
BlockedThread = namedtuple("BlockedThread", "thread instruction queue tail")
FunctionalEvent = namedtuple("FunctionalEvent", "step thread op iid queue")


class DeadlockReport:
    """Structured account of an MT execution that stopped progressing:
    which threads are blocked, on which queues/channels, what each ran
    last, and what is still pending in every queue."""

    def __init__(self, blocked: List[BlockedThread],
                 occupancy: Dict[int, int], channels: List):
        self.blocked = blocked
        self.occupancy = occupancy      # queue id -> pending value count
        self.channels = channels        # CommChannels of blocking queues

    @property
    def blocked_threads(self) -> List[int]:
        return [record.thread for record in self.blocked]

    @property
    def blocking_queues(self) -> List[int]:
        return sorted({record.queue for record in self.blocked})

    @property
    def recent_events(self) -> List[FunctionalEvent]:
        """Every blocked thread's tail, thread by thread."""
        return [event for record in self.blocked for event in record.tail]

    def describe(self) -> str:
        lines = ["deadlock: %d thread(s) blocked" % len(self.blocked)]
        for record in self.blocked:
            lines.append("  thread %d blocked on %s (queue %s), "
                         "queue holds %d pending value(s)"
                         % (record.thread, record.instruction.op.value,
                            record.queue,
                            self.occupancy.get(record.queue, 0)))
            tail = record.tail[-4:]
            if tail:
                lines.append("   last %d step(s) before the stall:"
                             % len(tail))
            for event in tail:
                queue = "" if event.queue is None else " q%d" % event.queue
                lines.append("    step %d: thread %d %s (iid %d)%s" % (
                    event.step, event.thread, event.op, event.iid, queue))
        for channel in self.channels:
            lines.append("  blocking channel: %r" % (channel,))
        return "\n".join(lines)


class _Trail(list):
    """Block-visit counters that also keep the last blocks entered (the
    loop writes a counter only on block entry)."""

    def __init__(self, n_blocks: int):
        super().__init__([0] * n_blocks)
        self.entered: deque = deque(maxlen=DEADLOCK_TAIL)

    def __setitem__(self, index, value):
        self.entered.append(index)
        list.__setitem__(self, index, value)


class Execution:
    """One untimed run of ``threads``, thread CFGs laid out on the memory
    of ``memory_owner``.  ``n_queues=None`` is the single-threaded
    interpretation (communication traps, the budget raises
    ``ExecutionLimitExceeded``); otherwise the threads share ``n_queues``
    FIFO queues of ``capacity`` entries.  ``writes`` (a list) logs a
    :class:`WriteRecord` per store.  After :meth:`run`, ``visits[t][b]``
    counts thread ``t``'s entries into block ``b``, ``taken[t][b]`` those
    that left by a ``br``'s first arm, ``steps`` all instructions run."""

    def __init__(self, threads, memory_owner: Function, args=None,
                 initial_memory=None, n_queues: Optional[int] = None,
                 capacity: int = 32, channels=(), writes=None,
                 trail: bool = False):
        # Imported here: repro.interp re-exports this module's names.
        from ..interp.state import bind_params, make_memory
        if n_queues is not None and capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.spec = (threads, memory_owner, args, initial_memory, n_queues,
                     capacity)
        self.threads = list(threads)
        self.memory = make_memory(memory_owner, initial_memory)
        self.capacity = capacity
        self.fifo = (None if n_queues is None
                     else [deque() for _ in range(n_queues)])
        self.channels = channels
        self.writes = writes
        self.trail = trail
        self.blocks, self.names, self.regs = [], [], []
        for function in self.threads:
            params = bind_params(function, dict(args) if args else {})
            blocks, _, reg_index, reg_names, _ = compile_function(function)
            regs = [UNDEF] * len(reg_names)
            for name, value in params.items():
                regs[reg_index[name]] = value
            self.blocks.append(blocks)
            self.names.append(reg_names)
            self.regs.append(regs)
        counters = _Trail if trail else (lambda n: [0] * n)
        self.visits = [counters(len(blocks)) for blocks in self.blocks]
        self.taken = [[0] * len(blocks) for blocks in self.blocks]
        # Where each thread stands: (block, position) — position -1
        # before it entered the block, block -1 once it exited.
        self.at = [(0, -1)] * len(self.threads)
        self.max_occupancy = 0
        self.steps = 0

    @classmethod
    def for_program(cls, program, args=None, initial_memory=None,
                    capacity: int = 32, writes=None) -> "Execution":
        """An MTCG program's threads on its queues."""
        return cls(program.threads, program.original, args,
                   initial_memory, program.n_queues, capacity,
                   program.channels, writes)

    def run(self, max_steps: int) -> "Execution":
        """Run every thread to its exit.  Raises the first trap
        (``TrapError``, ``MemoryError_``), the budget error once more
        than ``max_steps`` instructions would run, or
        :class:`DeadlockError` with its report."""
        fifo = self.fifo or NoQueues()  # no queues: communication traps
        capacity = self.capacity
        writes = self.writes
        memory = self.memory
        mem_words = memory.words
        mem_size = memory.size
        at = self.at
        peak = steps = 0
        live = list(range(len(self.threads)))
        while live:
            round_start = steps
            for t in live:
                blocks = self.blocks[t]
                regs = self.regs[t]
                names = self.names[t]
                visits = self.visits[t]
                taken = self.taken[t]
                fname = self.threads[t].name
                block, start = at[t]
                recs = blocks[block]
                if start < 0:       # entering the block
                    visits[block] += 1
                elif start:         # resuming inside it
                    recs = recs[start:]
                while True:
                    steps += len(recs)
                    if steps > max_steps:   # run what the budget covers
                        recs = recs[:len(recs) - (steps - max_steps)]
                    for rec in recs:
                        code = rec[0]
                        if code == ALU_RR:
                            v0 = regs[rec[5]]
                            if v0 is UNDEF:
                                trap_undef(names[rec[5]], fname)
                            v1 = regs[rec[6]]
                            if v1 is UNDEF:
                                trap_undef(names[rec[6]], fname)
                            regs[rec[4]] = rec[3](v0, v1)
                        elif code == ALU_RI:
                            v0 = regs[rec[5]]
                            if v0 is UNDEF:
                                trap_undef(names[rec[5]], fname)
                            regs[rec[4]] = rec[3](v0, rec[6])
                        elif code == LOAD:
                            base = regs[rec[4]]
                            if base is UNDEF:
                                trap_undef(names[rec[4]], fname)
                            address = base + rec[5]
                            if not isinstance(address, int):
                                raise TrapError("non-integer address %r"
                                                % (address,))
                            if 0 <= address < mem_size:
                                regs[rec[3]] = mem_words[address]
                            else:
                                memory.load(address)  # raises MemoryError_
                        elif code == BR:
                            v0 = regs[rec[3]]
                            if v0 is UNDEF:
                                trap_undef(names[rec[3]], fname)
                            if v0:
                                taken[block] += 1
                                block = rec[5]
                            else:
                                block = rec[6]
                            break
                        elif code == MOVI:
                            regs[rec[3]] = rec[4]
                        elif code == ALU_UN:
                            v0 = regs[rec[5]]
                            if v0 is UNDEF:
                                trap_undef(names[rec[5]], fname)
                            regs[rec[4]] = rec[3](v0)
                        elif code == STORE:
                            base = regs[rec[3]]
                            if base is UNDEF:
                                trap_undef(names[rec[3]], fname)
                            address = base + rec[5]
                            if not isinstance(address, int):
                                raise TrapError("non-integer address %r"
                                                % (address,))
                            value = regs[rec[4]]
                            if value is UNDEF:
                                trap_undef(names[rec[4]], fname)
                            if 0 <= address < mem_size:
                                mem_words[address] = value
                            else:
                                memory.store(address, value)  # raises
                            if writes is not None:
                                writes.append(WriteRecord(
                                    address, value, rec[2].iid, t))
                        elif code == JMP:
                            block = rec[3]
                            break
                        elif code == EXIT:
                            at[t] = (-1, 0)
                            block = -1
                            break
                        elif code != NOP:   # communication
                            queue = fifo[rec[2].queue]
                            if code == PRODUCE:
                                value = regs[rec[3]]
                                if value is UNDEF:
                                    trap_undef(names[rec[3]], fname)
                            produces = code == PRODUCE or code == PRODUCE_SYNC
                            if len(queue) >= capacity if produces \
                                    else not queue:     # block, no effect
                                position = rec[1] - blocks[block][0][1]
                                at[t] = (block, position)
                                steps -= len(blocks[block]) - position
                                block = -2
                                break
                            if produces:
                                queue.append(value if code == PRODUCE else 0)
                                if len(queue) > peak:
                                    peak = len(queue)
                            elif code == CONSUME:
                                regs[rec[3]] = queue.popleft()
                            else:
                                queue.popleft()
                    else:
                        if steps > max_steps:
                            raise (ExecutionLimitExceeded
                                   if self.fifo is None
                                   else MTExecutionLimitExceeded)(
                                "%s exceeded %d steps"
                                % (self.spec[1].name, max_steps))
                        raise IndexError(  # the step interpreter's type
                            "block %d of %s does not end in a terminator"
                            % (block, fname))
                    if block < 0:
                        break
                    recs = blocks[block]
                    visits[block] += 1
            live = [t for t in live if at[t][0] >= 0]
            if live and steps == round_start:
                if self.trail:
                    return self         # a replay stops at the deadlock
                raise self._deadlock(live)
        self.max_occupancy = peak
        self.steps = steps
        return self

    def _deadlock(self, live: List[int]) -> DeadlockError:
        """The error of a run whose ``live`` threads all block.  The
        blocked threads' tails come from a replay with block trails on,
        so a run that does not deadlock pays nothing for them."""
        trails = Execution(*self.spec, trail=True).run(sys.maxsize).visits
        first_channel: Dict[int, object] = {}
        for channel in reversed(self.channels):
            first_channel[channel.queue] = channel
        blocked = []
        for t in live:
            block, position = self.at[t]
            blocks = self.blocks[t]
            entered = list(trails[t].entered)[:-1]
            tail = [rec[2] for index in entered for rec in blocks[index]]
            tail = (tail + [rec[2] for rec in blocks[block][:position]]
                    )[-DEADLOCK_TAIL:]
            first = sum(count * len(recs) for count, recs
                        in zip(self.visits[t], blocks)) \
                - (len(blocks[block]) - position) - len(tail) + 1
            instruction = blocks[block][position][2]
            blocked.append(BlockedThread(t, instruction, instruction.queue, [
                FunctionalEvent(first + i, t, event.op.value, event.iid,
                                event.queue if event.is_communication()
                                else None)
                for i, event in enumerate(tail)]))
        report = DeadlockReport(
            blocked, {queue: len(pending)
                      for queue, pending in enumerate(self.fifo) if pending},
            [first_channel[record.queue] for record in blocked
             if record.queue in first_channel])
        return DeadlockError(
            "all live threads blocked: %s"
            % [record.instruction for record in blocked],
            report, self.writes)

    def registers(self, thread: int) -> Dict[str, object]:
        """``thread``'s defined registers by name."""
        return {name: value
                for name, value in zip(self.names[thread], self.regs[thread])
                if value is not UNDEF}


def run_function(function: Function,
                 args: Optional[Mapping[str, object]] = None,
                 initial_memory: Optional[Mapping[str, object]] = None,
                 max_steps: int = 50_000_000) -> RunResult:
    """Execute ``function`` to completion on its compiled records: its
    registers, memory, instruction and opcode counts, and edge profile.
    Raises the first trap, or :class:`ExecutionLimitExceeded` past
    ``max_steps``."""
    from ..interp.profile import EdgeProfile
    run = Execution([function], function, args,
                    initial_memory).run(max_steps)
    visits = run.visits[0]
    taken = run.taken[0]
    profile = EdgeProfile(function)
    opcode_counts: Counter = Counter()
    labels = [b.label for b in function.blocks]
    for index, recs in enumerate(run.blocks[0]):
        count = visits[index]
        if not count:
            continue
        label = labels[index]
        profile.block_counts[label] = float(count)
        for rec in recs:
            opcode_counts[rec[2].op] += count
        last = recs[-1]
        if last[0] == BR:
            arms = ((last[5], taken[index]), (last[6], count - taken[index]))
        elif last[0] == JMP:
            arms = ((last[3], count),)
        else:
            continue
        for target, traversals in arms:
            if traversals:
                profile.edge_counts[(label, labels[target])] += traversals
    return RunResult(function, run.registers(0), run.memory, profile,
                     run.steps, opcode_counts)
