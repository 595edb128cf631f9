"""The untimed single-thread executor: profile runs on compiled records.

:func:`run_compiled` is :func:`repro.interp.interpreter.run_function`
over the dispatch records of :mod:`.records`: no ``ThreadContext``, no
``StepResult`` and no ``Counter`` update per dynamic instruction, one
register-file list subscript where the oracle probes a dict.  It does
per *block* what the oracle does per instruction — one visit counter and
one step-budget test on entry, one counter per taken branch arm — and
materialises the oracle's :class:`~repro.interp.interpreter.RunResult`
from those integers at the end.

Equivalence contract: the ``EdgeProfile`` (keys, key order, float
counts), final registers and memory, ``dynamic_instructions`` and
``opcode_counts`` equal ``run_function``'s, and a run that fails raises
the same exception type with the same message — trap, ``MemoryError_``,
``ExecutionLimitExceeded``, "communication outside MT simulation".
``tests/test_executor_equivalence.py`` and the ``backend-equivalence``
CI job hold it to that; ``run_function`` stays the oracle.

The per-block accounting assumes what ``ir.verify`` guarantees: a
block's only terminator is its last instruction.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional

from ..interp.context import TrapError
from ..interp.interpreter import ExecutionLimitExceeded, RunResult
from ..interp.profile import EdgeProfile
from ..interp.state import bind_params, make_memory
from ..ir.cfg import Function
from .records import (ALU_RI, ALU_RR, ALU_UN, BR, EXIT, JMP, LOAD, MOVI,
                      NOP, STORE, UNDEF, compile_function, trap_undef)


def run_compiled(function: Function,
                 args: Optional[Mapping[str, object]] = None,
                 initial_memory: Optional[Mapping[str, object]] = None,
                 max_steps: int = 50_000_000) -> RunResult:
    """Execute ``function`` to completion on its compiled records;
    arguments, result and exceptions as ``run_function`` (there is no
    ``keep_trace``: the result's ``trace`` is ``None``)."""
    memory = make_memory(function, initial_memory)
    params = bind_params(function, dict(args) if args else {})
    blocks, _, reg_index, reg_names, _ = compile_function(function)
    regs = [UNDEF] * len(reg_names)
    for name, value in params.items():
        regs[reg_index[name]] = value

    fname = function.name
    mem_words = memory.words
    mem_size = memory.size
    visits = [0] * len(blocks)   # entries into each block
    taken = [0] * len(blocks)    # ... of which left through a BR's first arm
    steps = 0
    block = 0
    while block >= 0:
        recs = blocks[block]
        visits[block] += 1
        steps += len(recs)
        if steps > max_steps:
            # The budget ends inside this block: run the instructions it
            # still covers (one of them may trap first), then fall off.
            recs = recs[:len(recs) - (steps - max_steps)]
        for rec in recs:
            code = rec[0]
            if code == ALU_RR:
                v0 = regs[rec[5]]
                if v0 is UNDEF:
                    trap_undef(reg_names[rec[5]], fname)
                v1 = regs[rec[6]]
                if v1 is UNDEF:
                    trap_undef(reg_names[rec[6]], fname)
                regs[rec[4]] = rec[3](v0, v1)
            elif code == ALU_RI:
                v0 = regs[rec[5]]
                if v0 is UNDEF:
                    trap_undef(reg_names[rec[5]], fname)
                regs[rec[4]] = rec[3](v0, rec[6])
            elif code == LOAD:
                base = regs[rec[4]]
                if base is UNDEF:
                    trap_undef(reg_names[rec[4]], fname)
                address = base + rec[5]
                if not isinstance(address, int):
                    raise TrapError("non-integer address %r" % (address,))
                if 0 <= address < mem_size:
                    regs[rec[3]] = mem_words[address]
                else:
                    memory.load(address)    # raises MemoryError_
            elif code == BR:
                v0 = regs[rec[3]]
                if v0 is UNDEF:
                    trap_undef(reg_names[rec[3]], fname)
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
                    trap_undef(reg_names[rec[5]], fname)
                regs[rec[4]] = rec[3](v0)
            elif code == STORE:
                base = regs[rec[3]]
                if base is UNDEF:
                    trap_undef(reg_names[rec[3]], fname)
                address = base + rec[5]
                if not isinstance(address, int):
                    raise TrapError("non-integer address %r" % (address,))
                value = regs[rec[4]]
                if value is UNDEF:
                    trap_undef(reg_names[rec[4]], fname)
                if 0 <= address < mem_size:
                    mem_words[address] = value
                else:
                    memory.store(address, value)    # raises MemoryError_
            elif code == JMP:
                block = rec[3]
                break
            elif code == EXIT:
                block = -1
                break
            elif code != NOP:
                raise TrapError("communication outside MT simulation")
        else:
            if steps > max_steps:
                raise ExecutionLimitExceeded(
                    "%s exceeded %d steps" % (fname, max_steps))
            raise IndexError("block %d of %s does not end in a terminator"
                             % (block, fname))  # the oracle's type

    profile = EdgeProfile(function)
    opcode_counts: Counter = Counter()
    labels = [b.label for b in function.blocks]
    for index, recs in enumerate(blocks):
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
    final = {name: value for name, value in zip(reg_names, regs)
             if value is not UNDEF}
    return RunResult(function, final, memory, profile, steps,
                     opcode_counts, None)
