"""The step interpreter: the oracle the untimed executor is held to.

:class:`ThreadContext` steps one instruction at a time through a function's
CFG against a (possibly shared) memory.  Communication opcodes are delegated
to a queue set supplied by the caller; when a queue operation cannot proceed
the context reports ``BLOCKED`` without advancing, which is exactly the
blocking produce/consume semantics of the synchronization array.  It drives
the two references the compiled executors are held to: the single-threaded
run loop :func:`run_step_oracle` and (via its step results) the reference
timed loop of :mod:`repro.machine.timing_oracle`.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Dict, Mapping, Optional

from ..executor.records import _BINARY, _UNARY, TrapError
from ..executor.untimed import ExecutionLimitExceeded, RunResult
from ..ir.cfg import Function
from ..ir.instructions import Instruction, Opcode
from .profile import EdgeProfile
from .state import bind_params, make_memory


class StepStatus(enum.Enum):
    OK = enum.auto()        # instruction executed, context advanced
    BLOCKED = enum.auto()   # queue full/empty; nothing happened
    EXITED = enum.auto()    # the exit terminator executed


class StepResult:
    """What happened when one instruction (tried to) execute."""

    __slots__ = ("status", "instruction", "mem_address", "branch_taken")

    def __init__(self, status: StepStatus, instruction: Optional[Instruction],
                 mem_address: Optional[int] = None,
                 branch_taken: Optional[bool] = None):
        self.status = status
        self.instruction = instruction
        self.mem_address = mem_address
        self.branch_taken = branch_taken


class ThreadContext:
    """Architectural state of one thread executing one CFG.

    ``queues`` (a :class:`~repro.machine.functional.FifoQueues`) serves
    the communication opcodes: ``try_push`` returns False when the queue
    is full, ``try_pop`` returns ``(False, None)`` when it is empty.  The
    single-threaded interpreter passes ``None`` (communication is then
    illegal).
    """

    def __init__(self, function: Function, regs: Dict[str, object],
                 memory, queues=None):
        self.function = function
        self.regs = regs
        self.memory = memory
        self.queues = queues
        self.block = function.entry
        self.index = 0
        self.exited = False

    # -- helpers ---------------------------------------------------------------

    def current_instruction(self) -> Optional[Instruction]:
        if self.exited:
            return None
        return self.block.instructions[self.index]

    def _read(self, register: str):
        try:
            return self.regs[register]
        except KeyError:
            raise TrapError("read of undefined register %r in %s"
                            % (register, self.function.name))

    def _operands(self, instruction: Instruction):
        values = [self._read(register) for register in instruction.srcs]
        if instruction.imm is not None and not instruction.is_memory():
            values.append(instruction.imm)
        return values

    def _goto(self, label: str) -> None:
        self.block = self.function.block(label)
        self.index = 0

    # -- the stepper -----------------------------------------------------------

    def step(self) -> StepResult:
        """Execute (at most) one instruction."""
        if self.exited:
            return StepResult(StepStatus.EXITED, None)
        instruction = self.block.instructions[self.index]
        op = instruction.op

        handler = _BINARY.get(op)
        if handler is not None:
            a, b = self._operands(instruction)
            self.regs[instruction.dest] = handler(a, b)
            self.index += 1
            return StepResult(StepStatus.OK, instruction)

        # Communication first: these may block without side effects.
        if op is Opcode.PRODUCE or op is Opcode.PRODUCE_SYNC:
            if self.queues is None:
                raise TrapError("communication outside MT simulation")
            value = (self._read(instruction.srcs[0])
                     if op is Opcode.PRODUCE else 0)
            if not self.queues.try_push(instruction.queue, value):
                return StepResult(StepStatus.BLOCKED, instruction)
            self.index += 1
            return StepResult(StepStatus.OK, instruction)
        if op is Opcode.CONSUME or op is Opcode.CONSUME_SYNC:
            if self.queues is None:
                raise TrapError("communication outside MT simulation")
            ok, value = self.queues.try_pop(instruction.queue)
            if not ok:
                return StepResult(StepStatus.BLOCKED, instruction)
            if op is Opcode.CONSUME:
                self.regs[instruction.dest] = value
            self.index += 1
            return StepResult(StepStatus.OK, instruction)

        if op is Opcode.EXIT:
            self.exited = True
            return StepResult(StepStatus.EXITED, instruction)
        if op is Opcode.JMP:
            self._goto(instruction.labels[0])
            return StepResult(StepStatus.OK, instruction)
        if op is Opcode.BR:
            taken = bool(self._read(instruction.srcs[0]))
            self._goto(instruction.labels[0 if taken else 1])
            return StepResult(StepStatus.OK, instruction, branch_taken=taken)
        if op is Opcode.LOAD:
            base = self._read(instruction.srcs[0])
            address = base + (instruction.imm or 0)
            if not isinstance(address, int):
                raise TrapError("non-integer address %r" % (address,))
            self.regs[instruction.dest] = self.memory.load(address)
            self.index += 1
            return StepResult(StepStatus.OK, instruction, mem_address=address)
        if op is Opcode.STORE:
            base = self._read(instruction.srcs[0])
            address = base + (instruction.imm or 0)
            if not isinstance(address, int):
                raise TrapError("non-integer address %r" % (address,))
            self.memory.store(address, self._read(instruction.srcs[1]))
            self.index += 1
            return StepResult(StepStatus.OK, instruction, mem_address=address)
        if op is Opcode.MOVI:
            self.regs[instruction.dest] = instruction.imm
            self.index += 1
            return StepResult(StepStatus.OK, instruction)
        if op is Opcode.NOP:
            self.index += 1
            return StepResult(StepStatus.OK, instruction)

        handler = _UNARY.get(op)
        if handler is not None:
            (a,) = self._operands(instruction)
            self.regs[instruction.dest] = handler(a)
            self.index += 1
            return StepResult(StepStatus.OK, instruction)
        raise TrapError("unimplemented opcode %s" % op.value)


def run_step_oracle(function: Function,
                    args: Optional[Mapping[str, object]] = None,
                    initial_memory: Optional[Mapping[str, object]] = None,
                    max_steps: int = 50_000_000) -> RunResult:
    """Interpret ``function`` one ``ThreadContext.step`` at a time:
    arguments, result and exceptions as
    :func:`repro.executor.run_function`, which must match it."""
    memory = make_memory(function, initial_memory)
    regs = bind_params(function, dict(args) if args else {})
    context = ThreadContext(function, regs, memory, queues=None)
    profile = EdgeProfile(function)
    opcode_counts: Counter = Counter()

    steps = 0
    profile.count_block(context.block.label)
    while not context.exited:
        if steps >= max_steps:
            raise ExecutionLimitExceeded(
                "%s exceeded %d steps" % (function.name, max_steps))
        previous_block = context.block.label
        result = context.step()
        if result.status is StepStatus.BLOCKED:  # pragma: no cover
            raise TrapError("single-threaded code cannot block")
        steps += 1
        instruction = result.instruction
        opcode_counts[instruction.op] += 1
        if instruction.op in (Opcode.BR, Opcode.JMP):
            current = context.block.label
            profile.count_edge(previous_block, current)
            profile.count_block(current)
    return RunResult(function, regs, memory, profile, steps, opcode_counts)
