"""Single-threaded reference interpreter.

Executes a function to completion, producing the live-out register values,
the final memory, dynamic instruction counts, and an edge profile.  This is
the semantic oracle every multi-threaded execution must match, and the
profiler that feeds GREMIO's latency estimates and COCO's min-cut costs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional

from ..ir.cfg import Function
from ..ir.instructions import Opcode
from .context import StepStatus, ThreadContext, TrapError
from .profile import EdgeProfile
from .state import Memory, bind_params, make_memory


class ExecutionLimitExceeded(Exception):
    """The step budget ran out (probably a non-terminating program)."""


class RunResult:
    """Outcome of one single-threaded execution."""

    def __init__(self, function: Function, regs: Dict[str, object],
                 memory: Memory, profile: EdgeProfile,
                 dynamic_instructions: int, opcode_counts: Counter):
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


def run_function(function: Function, args: Optional[Mapping[str, object]] = None,
                 initial_memory: Optional[Mapping[str, object]] = None,
                 max_steps: int = 50_000_000) -> RunResult:
    """Interpret ``function`` with the given scalar arguments and memory
    initializers.  Raises :class:`ExecutionLimitExceeded` past ``max_steps``.
    """
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
