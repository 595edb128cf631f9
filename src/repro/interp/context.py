"""Single-thread execution context.

:class:`ThreadContext` steps one instruction at a time through a function's
CFG against a (possibly shared) memory.  Communication opcodes are delegated
to a queue set supplied by the caller; when a queue operation cannot proceed
the context reports ``BLOCKED`` without advancing, which is exactly the
blocking produce/consume semantics of the synchronization array.  It drives
the two references the compiled executors are held to: the single-threaded
interpreter and (via its step results) the reference timing loop.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

from ..ir.cfg import Function
from ..ir.instructions import Instruction, Opcode


class TrapError(Exception):
    """Run-time fault: division by zero, bad address type, etc."""


def _trunc_div(a, b):
    if b == 0:
        raise TrapError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _trunc_mod(a, b):
    return a - _trunc_div(a, b) * b


def _bool(x) -> int:
    return 1 if x else 0


_BINARY = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.IDIV: _trunc_div,
    Opcode.IMOD: _trunc_mod,
    Opcode.MIN: lambda a, b: a if a <= b else b,
    Opcode.MAX: lambda a, b: a if a >= b else b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << b,
    Opcode.SHR: lambda a, b: a >> b,
    Opcode.CMPEQ: lambda a, b: _bool(a == b),
    Opcode.CMPNE: lambda a, b: _bool(a != b),
    Opcode.CMPLT: lambda a, b: _bool(a < b),
    Opcode.CMPLE: lambda a, b: _bool(a <= b),
    Opcode.CMPGT: lambda a, b: _bool(a > b),
    Opcode.CMPGE: lambda a, b: _bool(a >= b),
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FMIN: lambda a, b: float(a) if a <= b else float(b),
    Opcode.FMAX: lambda a, b: float(a) if a >= b else float(b),
}

_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.NEG: lambda a: -a,
    Opcode.ABS: lambda a: abs(a),
    Opcode.NOT: lambda a: ~a,
    Opcode.ITOF: float,
    Opcode.FTOI: lambda a: math.trunc(a),
    Opcode.FSQRT: lambda a: math.sqrt(a),
    Opcode.FNEG: lambda a: -float(a),
    Opcode.FABS: lambda a: abs(float(a)),
}


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

        if op is Opcode.FDIV:
            a, b = self._operands(instruction)
            if float(b) == 0.0:
                raise TrapError("float division by zero")
            self.regs[instruction.dest] = float(a) / float(b)
            self.index += 1
            return StepResult(StepStatus.OK, instruction)
        handler = _UNARY.get(op)
        if handler is not None:
            (a,) = self._operands(instruction)
            self.regs[instruction.dest] = handler(a)
            self.index += 1
            return StepResult(StepStatus.OK, instruction)
        raise TrapError("unimplemented opcode %s" % op.value)
