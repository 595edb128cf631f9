"""Classical scalar optimizations.

The papers' compiler (VELOCITY) runs "all traditional code optimizations"
before global MT scheduling; this package provides the subset that matters
for the mini-IR front-ends: local constant folding/propagation, local copy
propagation, global dead-code elimination, jump threading, and unreachable
block removal.  The pipeline runs them before profiling, so the PDG the
partitioners see is free of trivially-removable dependences.

All passes preserve iids of surviving instructions and the structural
invariants checked by the verifier; `optimize_function` iterates them to a
fixed point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.liveness import liveness
from ..executor.records import _BINARY, _UNARY  # evaluation semantics
from ..ir.cfg import Function
from ..ir.instructions import Instruction, OpKind, Opcode


def fold_constants(function: Function) -> int:
    """Local constant propagation + folding.

    Within each block, track registers with known constant values (reset
    at block entry — no cross-block assumptions) and rewrite instructions
    whose operands are all known into ``movi``.  Returns the number of
    instructions rewritten.
    """
    rewritten = 0
    for block in function.blocks:
        constants: Dict[str, object] = {}
        for instruction in block:
            value = _try_evaluate(instruction, constants)
            if value is not None and instruction.op is not Opcode.MOVI:
                instruction.op = Opcode.MOVI
                instruction.srcs = ()
                instruction.imm = value
                rewritten += 1
            # Update the constant environment.
            if instruction.dest is not None:
                if instruction.op is Opcode.MOVI:
                    constants[instruction.dest] = instruction.imm
                else:
                    constants.pop(instruction.dest, None)
    return rewritten


def _try_evaluate(instruction: Instruction,
                  constants: Dict[str, object]) -> Optional[object]:
    """Evaluate an ALU/FP instruction whose inputs are all constant."""
    if instruction.kind not in (OpKind.ALU, OpKind.FP):
        return None
    if instruction.op in (Opcode.MOVI, Opcode.IDIV, Opcode.IMOD,
                          Opcode.FDIV):
        return None  # divisions might trap; leave them alone
    operands: List[object] = []
    for register in instruction.srcs:
        if register not in constants:
            return None
        operands.append(constants[register])
    if instruction.imm is not None:
        operands.append(instruction.imm)
    handler = _BINARY.get(instruction.op)
    if handler is not None and len(operands) == 2:
        try:
            return handler(operands[0], operands[1])
        except Exception:
            return None
    handler = _UNARY.get(instruction.op)
    if handler is not None and len(operands) == 1:
        try:
            return handler(operands[0])
        except Exception:
            return None
    return None


def propagate_copies(function: Function) -> int:
    """Local copy propagation: after ``mov d, s``, uses of ``d`` read ``s``
    directly until either register is redefined.  Returns replacements."""
    replaced = 0
    for block in function.blocks:
        copies: Dict[str, str] = {}  # dest -> original source
        for instruction in block:
            if instruction.srcs:
                new_srcs = tuple(copies.get(register, register)
                                 for register in instruction.srcs)
                if new_srcs != instruction.srcs:
                    replaced += sum(1 for a, b in zip(new_srcs,
                                                      instruction.srcs)
                                    if a != b)
                    instruction.srcs = new_srcs
            dest = instruction.dest
            if dest is not None:
                # Any copy involving the redefined register dies.
                copies = {d: s for d, s in copies.items()
                          if d != dest and s != dest}
                if instruction.op is Opcode.MOV \
                        and instruction.srcs[0] != dest:
                    copies[dest] = instruction.srcs[0]
    return replaced


def eliminate_dead_code(function: Function) -> int:
    """Global DCE: remove side-effect-free instructions whose results are
    dead (liveness-based, so loop-carried uses are respected)."""
    live = liveness(function)
    removed = 0
    for block in function.blocks:
        kept: List[Instruction] = []
        for instruction in block:
            if _has_side_effects(instruction):
                kept.append(instruction)
                continue
            dest = instruction.dest
            if dest is not None and dest not in live.live_out.get(
                    instruction.iid, frozenset()):
                removed += 1
                continue
            kept.append(instruction)
        block.instructions = kept
    return removed


def _has_side_effects(instruction: Instruction) -> bool:
    if instruction.dest is None:
        return True  # stores, branches, produces, exit, nop...
    return instruction.is_memory() or instruction.is_communication() \
        or instruction.is_terminator()


def thread_jumps(function: Function) -> int:
    """Jump threading: retarget branches/jumps whose target block is just
    a single ``jmp`` to somewhere else (skipping the trampoline).  Leaves
    the now-possibly-unreachable trampolines for
    :func:`remove_unreachable_blocks`.  Critical-edge split blocks are
    exactly such trampolines, so this pass must only run *before*
    normalization (the pipeline orders them correctly)."""
    forwards: Dict[str, str] = {}
    for block in function.blocks:
        if len(block.instructions) == 1 \
                and block.instructions[0].op is Opcode.JMP:
            forwards[block.label] = block.instructions[0].labels[0]

    def resolve(label: str) -> str:
        seen = set()
        while label in forwards and label not in seen:
            seen.add(label)
            label = forwards[label]
        return label

    changed = 0
    for block in function.blocks:
        terminator = block.terminator
        if terminator is None or not terminator.labels:
            continue
        new_labels = tuple(resolve(label) for label in terminator.labels)
        if new_labels != terminator.labels:
            terminator.labels = new_labels
            changed += 1
    return changed


def remove_unreachable_blocks(function: Function) -> int:
    """Drop blocks unreachable from the entry."""
    reachable: Set[str] = set()
    stack = [function.entry.label]
    while stack:
        label = stack.pop()
        if label in reachable:
            continue
        reachable.add(label)
        stack.extend(function.block(label).successors())
    removed = [block for block in function.blocks
               if block.label not in reachable]
    if not removed:
        return 0
    function.blocks = [block for block in function.blocks
                       if block.label in reachable]
    for block in removed:
        del function._by_label[block.label]
    return len(removed)


def optimize_function(function: Function, max_rounds: int = 8) -> Dict[str, int]:
    """Run all passes to a fixed point; returns per-pass change counts."""
    totals = {"folded": 0, "copies": 0, "dce": 0, "jumps": 0,
              "unreachable": 0}
    for _ in range(max_rounds):
        changed = 0
        changed += _accumulate(totals, "jumps", thread_jumps(function))
        changed += _accumulate(totals, "unreachable",
                               remove_unreachable_blocks(function))
        changed += _accumulate(totals, "folded", fold_constants(function))
        changed += _accumulate(totals, "copies",
                               propagate_copies(function))
        changed += _accumulate(totals, "dce",
                               eliminate_dead_code(function))
        if not changed:
            break
    return totals


def _accumulate(totals: Dict[str, int], key: str, count: int) -> int:
    totals[key] += count
    return count
