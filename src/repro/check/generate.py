"""Random structured-program and random-partition generation.

This module is the shared grammar behind both the property tests and the
differential fuzzer (``python -m repro fuzz``): programs are built from
nested sequences / if-else diamonds / bounded counted loops over a small
register pool and a masked-index memory object, so every generated program
terminates and never faults — yet exercises multi-exit loops, replicated
branches, and arbitrary cross-thread dependence shapes through MTCG, COCO,
and the simulators.

Two front ends sample the grammar:

* :func:`random_sketch` / :func:`random_partition` — a pure
  ``random.Random``-driven sampler, dependency-free, used by the fuzzing
  driver (:mod:`repro.check.fuzz`);
* :mod:`repro.check.strategies` — hypothesis strategies over the same
  sketch grammar, used by the property tests (imports ``hypothesis`` and
  is therefore kept out of this module).

A sketch is a list of *statements*, each a tuple:

=============  ==========================================================
``("alu", op, dest, a, b)``      ALU op over the register pool (0..5)
``("movi", dest, value)``        load an immediate
``("load", dest, addr)``         masked load from the memory object
``("store", value, addr)``       masked store to the memory object
``("breakif", cond)``            early exit of the innermost loop
``("if", cond, then, else)``     if-else diamond (nested statement lists)
``("loop", trips, body)``        bounded counted loop
=============  ==========================================================

A sketch renders two ways: to IR (:func:`render_program`) and to Python
source in the frontend's subset (:func:`sketch_to_python`), which the
fuzzer runs under CPython as the ground truth and compiles with
:mod:`repro.frontend`.  The Python rendering ends in a float epilogue,
which raises where ``float()`` of a huge integer overflows.

Sketches are JSON-serializable (:func:`sketch_to_json` /
:func:`sketch_from_json`), which is how the fuzzer persists minimized
reproducers into its corpus.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Optional

from ..ir import Function, FunctionBuilder, Opcode
from ..partition import Partition

MEM_SIZE = 32
SAFE_BINOPS = ["add", "sub", "mul", "and", "or", "xor", "min", "max",
               "cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"]


class ProgramSketch:
    """A recursive program description that can be rendered to IR."""

    def __init__(self, statements):
        self.statements = statements

    def __repr__(self) -> str:  # pragma: no cover
        return "<ProgramSketch %d top-level statements>" % \
            len(self.statements)


def render_program(sketch: ProgramSketch) -> Function:
    """Render a sketch to a verified IR function."""
    builder = FunctionBuilder(
        "random_program", params=["r_in0", "r_in1", "p_m"],
        live_outs=["r0", "r1", "r2"])
    builder.mem("m", MEM_SIZE, ptr="p_m")
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return "%s%d" % (prefix, counter[0])

    builder.label("entry")
    # Initialize the register pool from the inputs.
    builder.mov("r0", "r_in0")
    builder.mov("r1", "r_in1")
    builder.add("r2", "r_in0", "r_in1")
    builder.sub("r3", "r_in0", "r_in1")
    builder.movi("r4", 7)
    builder.movi("r5", -3)

    def reg(index: int) -> str:
        return "r%d" % index

    def emit_statements(statements, next_label: str,
                        break_label: str = None) -> None:
        """Emit statements into the currently open block; finally jump to
        ``next_label``.  Opens/closes blocks as needed for control flow.
        ``break_label`` is the innermost loop's exit (for "breakif")."""
        for statement in statements:
            kind = statement[0]
            if kind == "breakif":
                _, cond = statement
                if break_label is None:
                    continue  # not inside a loop: no-op
                cond_reg = fresh("r_bc")
                cont_label = fresh("cont")
                builder.cmpgt(cond_reg, reg(cond), 15)
                builder.br(cond_reg, break_label, cont_label)
                builder.label(cont_label)
                continue
            if kind == "alu":
                _, op, dest, a, b = statement
                builder.alu(op, reg(dest), reg(a), reg(b))
            elif kind == "movi":
                _, dest, value = statement
                builder.movi(reg(dest), value)
            elif kind == "load":
                _, dest, addr = statement
                index = fresh("r_ix")
                address = fresh("r_ad")
                builder.and_(index, reg(addr), MEM_SIZE - 1)
                builder.abs(index, index)
                builder.add(address, "p_m", index)
                builder.load(reg(dest), address)
            elif kind == "store":
                _, value, addr = statement
                index = fresh("r_ix")
                address = fresh("r_ad")
                builder.and_(index, reg(addr), MEM_SIZE - 1)
                builder.abs(index, index)
                builder.add(address, "p_m", index)
                builder.store(address, reg(value))
            elif kind == "if":
                _, cond, then_statements, else_statements = statement
                cond_reg = fresh("r_c")
                then_label = fresh("then")
                else_label = fresh("else")
                join_label = fresh("join")
                builder.cmpgt(cond_reg, reg(cond), 0)
                builder.br(cond_reg, then_label, else_label)
                builder.label(then_label)
                emit_statements(then_statements, join_label,
                                break_label)
                builder.label(else_label)
                emit_statements(else_statements, join_label,
                                break_label)
                builder.label(join_label)
            elif kind == "loop":
                _, trips, body = statement
                i_reg = fresh("r_i")
                cond_reg = fresh("r_c")
                header = fresh("head")
                body_label = fresh("body")
                done_label = fresh("done")
                builder.movi(i_reg, trips)
                builder.jmp(header)
                builder.label(header)
                builder.cmpgt(cond_reg, i_reg, 0)
                builder.br(cond_reg, body_label, done_label)
                builder.label(body_label)
                builder.sub(i_reg, i_reg, 1)
                emit_statements(body, header,
                                break_label=done_label)
                builder.label(done_label)
            else:  # pragma: no cover
                raise AssertionError("unknown statement %r" % (statement,))
        builder.jmp(next_label)

    final = "final"
    emit_statements(sketch.statements, final)
    builder.label(final)
    builder.exit()
    return builder.build()


#: How each grammar ALU op renders as a Python expression.
_PY_BINOPS = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
    "min": "min({a}, {b})", "max": "max({a}, {b})",
    "cmpeq": "int({a} == {b})", "cmpne": "int({a} != {b})",
    "cmplt": "int({a} < {b})", "cmple": "int({a} <= {b})",
    "cmpgt": "int({a} > {b})", "cmpge": "int({a} >= {b})",
}

#: A fixed float-flavoured epilogue so every generated program also
#: exercises the FP lowering (conversions, fdiv, sqrt, ternary).
_EPILOGUE = [
    "fa = float(r0) / 16.0",
    "fb = math.sqrt(float(abs(r1) + 1)) * 0.5",
    "fr = fa + fb if fa < fb else fa - fb",
    "return (r0, r1, r2 + int(fr))",
]

#: The name of the function :func:`sketch_to_python` defines.
PYTHON_ENTRY = "fuzz_program"


def sketch_to_python(sketch: ProgramSketch) -> str:
    """Render a program sketch as Python source in the frontend subset.

    The rendering is deterministic in the sketch alone (stable corpus
    entries) and intentionally varies surface syntax — augmented
    assignment when the destination aliases an operand, ternaries for
    some min/max — so the fuzz load covers more of the compiler than a
    single canonical spelling would."""
    lines: List[str] = [
        "import math",
        "",
        "",
        "def %s(in0: int, in1: int, m: \"int[%d]\"):"
        % (PYTHON_ENTRY, MEM_SIZE),
        "    r0 = in0",
        "    r1 = in1",
        "    r2 = in0 + in1",
        "    r3 = in0 - in1",
        "    r4 = 7",
        "    r5 = -3",
    ]
    loop_depth_counter = [0]
    statement_counter = [0]

    def reg(index: int) -> str:
        return "r%d" % index

    def emit(statements, indent: int, in_loop: bool) -> None:
        pad = "    " * indent
        start = len(lines)
        for statement in statements:
            kind = statement[0]
            statement_counter[0] += 1
            variant = statement_counter[0]
            if kind == "breakif":
                _, cond = statement
                if not in_loop:
                    continue  # mirrors render_program's no-op
                lines.append(pad + "if %s > 15:" % reg(cond))
                lines.append(pad + "    break")
            elif kind == "alu":
                _, op, dest, a, b = statement
                if op in ("add", "sub", "mul", "and", "or", "xor") \
                        and dest == a and variant % 2:
                    symbol = _PY_BINOPS[op].format(a="", b="").strip()
                    lines.append(pad + "%s %s= %s"
                                 % (reg(dest), symbol, reg(b)))
                elif op in ("min", "max") and variant % 3 == 0:
                    relation = "<=" if op == "min" else ">="
                    lines.append(pad + "%s = %s if %s %s %s else %s"
                                 % (reg(dest), reg(a), reg(a), relation,
                                    reg(b), reg(b)))
                else:
                    lines.append(pad + "%s = %s"
                                 % (reg(dest),
                                    _PY_BINOPS[op].format(a=reg(a),
                                                          b=reg(b))))
            elif kind == "movi":
                _, dest, value = statement
                lines.append(pad + "%s = %d" % (reg(dest), value))
            elif kind == "load":
                _, dest, addr = statement
                lines.append(pad + "%s = m[%s & %d]"
                             % (reg(dest), reg(addr), MEM_SIZE - 1))
            elif kind == "store":
                _, value, addr = statement
                lines.append(pad + "m[%s & %d] = %s"
                             % (reg(addr), MEM_SIZE - 1, reg(value)))
            elif kind == "if":
                _, cond, then_statements, else_statements = statement
                lines.append(pad + "if %s > 0:" % reg(cond))
                emit(then_statements, indent + 1, in_loop)
                lines.append(pad + "else:")
                emit(else_statements, indent + 1, in_loop)
            elif kind == "loop":
                _, trips, body = statement
                loop_depth_counter[0] += 1
                loop_var = "i%d" % loop_depth_counter[0]
                lines.append(pad + "for %s in range(%d):"
                             % (loop_var, trips))
                emit(body, indent + 1, True)
            else:  # pragma: no cover
                raise AssertionError("unknown statement %r" % (statement,))
        if len(lines) == start:
            lines.append(pad + "pass")

    emit(sketch.statements, 1, False)
    lines.extend("    " + line for line in _EPILOGUE)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pure-random sampling (the fuzzer's front end).

def random_leaf(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return ("alu", rng.choice(SAFE_BINOPS), rng.randrange(6),
                rng.randrange(6), rng.randrange(6))
    if kind == 1:
        return ("movi", rng.randrange(6), rng.randint(-20, 20))
    if kind == 2:
        return ("load", rng.randrange(6), rng.randrange(6))
    if kind == 3:
        return ("store", rng.randrange(6), rng.randrange(6))
    return ("breakif", rng.randrange(6))


def _random_statements(rng: random.Random, depth: int) -> List:
    statements = []
    for _ in range(rng.randint(1, 4)):
        # Compound statements with probability 1/3 while depth remains.
        if depth > 0 and rng.randrange(3) == 0:
            if rng.randrange(2) == 0:
                statements.append(("if", rng.randrange(6),
                                   _random_statements(rng, depth - 1),
                                   _random_statements(rng, depth - 1)))
            else:
                statements.append(("loop", rng.randint(1, 4),
                                   _random_statements(rng, depth - 1)))
        else:
            statements.append(random_leaf(rng))
    return statements


def random_sketch(rng: random.Random, depth: int = 2) -> ProgramSketch:
    """Sample one program sketch from the grammar."""
    return ProgramSketch(_random_statements(rng, depth))


def random_args(rng: random.Random) -> dict:
    return {"r_in0": rng.randint(-50, 50), "r_in1": rng.randint(-50, 50)}


def fuzz_args(rng: random.Random) -> Dict[str, object]:
    """One input set of a :func:`sketch_to_python` program: its two
    scalars and the initial ``m`` image."""
    return {"in0": rng.randint(-50, 50), "in1": rng.randint(-50, 50),
            "memory": [rng.randint(-50, 50) for _ in range(MEM_SIZE)]}


def random_partition(rng: random.Random, function: Function,
                     max_threads: int = 3,
                     n_threads: Optional[int] = None) -> Partition:
    """A uniformly random partition (exit pinned to thread 0, everything
    else arbitrary) — the adversarial input the MTCG theorem quantifies
    over."""
    if n_threads is None:
        n_threads = rng.randint(2, max_threads)
    assignment = {}
    for instruction in function.instructions():
        if instruction.op is Opcode.EXIT:
            assignment[instruction.iid] = 0
        else:
            assignment[instruction.iid] = rng.randrange(n_threads)
    return Partition(function, n_threads, assignment)


# ---------------------------------------------------------------------------
# Sketch persistence (for the fuzz corpus) and shrinking.

def sketch_to_json(sketch: ProgramSketch) -> str:
    return json.dumps(sketch.statements)


def sketch_from_json(text: str) -> ProgramSketch:
    def tuplify(node):
        if isinstance(node, list):
            # Statement lists stay lists; statements become tuples.  A
            # statement always starts with a kind string.
            if node and isinstance(node[0], str):
                return tuple(tuplify(child) for child in node)
            return [tuplify(child) for child in node]
        return node

    return ProgramSketch(tuplify(json.loads(text)))


def sketch_size(sketch: ProgramSketch) -> int:
    """Number of statements, at every nesting level."""
    def count(statements) -> int:
        total = 0
        for statement in statements:
            total += 1
            if statement[0] == "if":
                total += count(statement[2]) + count(statement[3])
            elif statement[0] == "loop":
                total += count(statement[2])
        return total

    return count(sketch.statements)


def shrink_candidates(sketch: ProgramSketch) -> Iterator[ProgramSketch]:
    """All sketches one greedy deletion step smaller: every single
    statement deleted (at any nesting depth), and every compound
    statement replaced by its body (hoisting).  Ordered so the earliest
    candidates remove the most."""

    def variants(statements) -> Iterator[List]:
        # Replace a compound by its body (big reduction first).
        for index, statement in enumerate(statements):
            if statement[0] == "if":
                yield (statements[:index] + list(statement[2])
                       + list(statement[3]) + statements[index + 1:])
            elif statement[0] == "loop":
                yield (statements[:index] + list(statement[2])
                       + statements[index + 1:])
        # Delete one statement outright.
        for index in range(len(statements)):
            yield statements[:index] + statements[index + 1:]
        # Recurse into compound bodies.
        for index, statement in enumerate(statements):
            if statement[0] == "if":
                for smaller in variants(list(statement[2])):
                    yield (statements[:index]
                           + [("if", statement[1], smaller,
                               list(statement[3]))]
                           + statements[index + 1:])
                for smaller in variants(list(statement[3])):
                    yield (statements[:index]
                           + [("if", statement[1], list(statement[2]),
                               smaller)]
                           + statements[index + 1:])
            elif statement[0] == "loop":
                for smaller in variants(list(statement[2])):
                    yield (statements[:index]
                           + [("loop", statement[1], smaller)]
                           + statements[index + 1:])

    for candidate in variants(list(sketch.statements)):
        yield ProgramSketch(candidate)
