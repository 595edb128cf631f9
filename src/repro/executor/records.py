"""The record compiler: one thread CFG -> flat per-block dispatch records.

A record is a tuple led by an integer op-class code, with everything a
loop needs to execute (and time) the instruction already resolved:
register *indices* into a flat list-backed register file, branch targets
as block indices, the value-semantics callable, port class, port limit
and latency.  Both executors — the untimed loop of :mod:`.untimed` and
the timed loop of :mod:`repro.machine.fast_timing` — dispatch on these
records, so the
instruction set's value and trap semantics (``UNDEF`` registers,
division, address checks) are compiled once, here, from the tables
below — which constant folding (:mod:`repro.opt.passes`) and the
step-at-a-time oracle (:mod:`repro.interp.step_oracle`) share.
"""

from __future__ import annotations

import math

from ..ir.cfg import Function
from ..ir.instructions import OpKind, Opcode


class TrapError(Exception):
    """Run-time fault: division by zero, bad address type, etc."""


class NoQueues:
    """The queue table of a multi-threaded run without queues: every
    loop looks a queue up before it touches one, so a ``produce`` or
    ``consume`` traps here with no test of its own on the hot path."""

    def __getitem__(self, queue):
        raise TrapError("communication outside MT simulation")


def _trunc_div(a, b):
    if b == 0:
        raise TrapError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _trunc_mod(a, b):
    return a - _trunc_div(a, b) * b


def _bool(x) -> int:
    return 1 if x else 0


def _fdiv(a, b):
    if float(b) == 0.0:
        raise TrapError("float division by zero")
    return float(a) / float(b)


#: Value semantics of the binary and unary opcodes.
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
    Opcode.FDIV: _fdiv,
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

# Op-class codes of the compiled dispatch records.  Ordered roughly by
# dynamic frequency so the dispatch chain tests the hot classes first.
ALU_RR = 0        # binary op, two register sources
ALU_RI = 1        # binary op, register + immediate
ALU_UN = 2        # unary op
MOVI = 3
LOAD = 4
STORE = 5
BR = 6
JMP = 7
EXIT = 8
NOP = 9
PRODUCE = 10
PRODUCE_SYNC = 11
CONSUME = 12
CONSUME_SYNC = 13

#: Issue-port classes, by index: alu, memory, fp, branch.
PORT_ALU, PORT_MEM, PORT_FP, PORT_BR = 0, 1, 2, 3


#: Sentinel filling the slots of never-written registers.  The register
#: file is a flat list indexed by the compile-time register table, so
#: "undefined" must be a value; reading it traps exactly where the
#: oracle's ``KeyError`` would.
UNDEF = object()


def trap_undef(register: str, function_name: str):
    raise TrapError("read of undefined register %r in %s"
                    % (register, function_name))


#: Op-class name of a traced event, by record code (ALU records: by port).
_TRACE_CLASS = {LOAD: "memory", STORE: "memory", BR: "branch",
                JMP: "branch", EXIT: "branch", NOP: "alu",
                PRODUCE: "comm", PRODUCE_SYNC: "comm",
                CONSUME: "comm", CONSUME_SYNC: "comm"}


def _untimed(instruction) -> int:
    return 0


def compile_function(function: Function, config=None, trace: bool = False):
    """Compile one thread CFG into per-block dispatch records.

    Returns ``(blocks, meta, reg_index, reg_names, trace_meta)``:
    ``blocks[i]`` is
    the record list of the i-th basic block (branch targets pre-resolved
    to block indices), ``meta[ridx]`` the source :class:`Instruction` of
    record ``ridx`` (used for end-of-run opcode accounting and error
    messages), and ``reg_index``/``reg_names`` the register table —
    records refer to registers by index into a flat list-backed register
    file (params first, then first-use order), which replaces every
    per-step dict probe of the oracle with a list subscript.
    ``config`` (a :class:`~repro.machine.config.MachineConfig`) supplies
    the port limits and latencies the timed loop reads; without one —
    the untimed executor — those slots hold 0.
    ``trace_meta`` is ``None`` unless ``trace`` is set; then it is a
    table parallel to ``meta`` with each record's trace constants
    ``(op name, op class, iid, source-register indices)`` — what the
    trace hooks need that the dispatch record does not carry.  The
    compile is linear in static code size and performs no dynamic work.
    """
    _ = function.entry  # an empty CFG raises ValueError here
    label_index = {block.label: i for i, block in enumerate(function.blocks)}
    if config is None:
        alu_limit = mem_limit = fp_limit = br_limit = 0
        latency_of = _untimed
    else:
        alu_limit = config.alu_ports
        mem_limit = config.memory_ports
        fp_limit = config.fp_ports
        br_limit = config.branch_ports
        latency_of = config.latency_of
    reg_index: dict = {}
    reg_names: list = []

    def reg(name):
        i = reg_index.get(name)
        if i is None:
            i = len(reg_names)
            reg_index[name] = i
            reg_names.append(name)
        return i

    for param in function.params:
        reg(param)
    meta = []
    trace_meta = [] if trace else None
    blocks = []
    for block in function.blocks:
        records = []
        for instr in block.instructions:
            ridx = len(meta)
            meta.append(instr)
            op = instr.op
            if op is Opcode.LOAD:
                rec = (LOAD, ridx, instr, reg(instr.dest),
                       reg(instr.srcs[0]), instr.imm or 0, mem_limit)
            elif op is Opcode.STORE:
                rec = (STORE, ridx, instr, reg(instr.srcs[0]),
                       reg(instr.srcs[1]), instr.imm or 0, mem_limit)
            elif op is Opcode.BR:
                rec = (BR, ridx, instr, reg(instr.srcs[0]), instr.iid,
                       label_index[instr.labels[0]],
                       label_index[instr.labels[1]], br_limit)
            elif op is Opcode.JMP:
                rec = (JMP, ridx, instr, label_index[instr.labels[0]],
                       br_limit)
            elif op is Opcode.EXIT:
                rec = (EXIT, ridx, instr, br_limit)
            elif op is Opcode.MOVI:
                rec = (MOVI, ridx, instr, reg(instr.dest), instr.imm,
                       alu_limit, latency_of(instr))
            elif op is Opcode.NOP:
                rec = (NOP, ridx, instr, alu_limit)
            elif op is Opcode.PRODUCE:
                rec = (PRODUCE, ridx, instr, reg(instr.srcs[0]),
                       instr.queue, mem_limit)
            elif op is Opcode.PRODUCE_SYNC:
                rec = (PRODUCE_SYNC, ridx, instr, instr.queue, mem_limit)
            elif op is Opcode.CONSUME:
                rec = (CONSUME, ridx, instr, reg(instr.dest),
                       instr.queue, mem_limit)
            elif op is Opcode.CONSUME_SYNC:
                rec = (CONSUME_SYNC, ridx, instr, instr.queue, mem_limit)
            else:
                fn = _BINARY.get(op) or _UNARY.get(op)
                if fn is None:  # pragma: no cover - all opcodes covered
                    raise TrapError("unimplemented opcode %s" % op.value)
                if instr.kind is OpKind.FP:
                    pidx, limit = PORT_FP, fp_limit
                else:
                    pidx, limit = PORT_ALU, alu_limit
                latency = latency_of(instr)
                srcs = instr.srcs
                if len(srcs) == 2:
                    rec = (ALU_RR, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), reg(srcs[1]), pidx, limit, latency)
                elif instr.imm is not None:
                    rec = (ALU_RI, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), instr.imm, pidx, limit, latency)
                else:
                    rec = (ALU_UN, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), pidx, limit, latency)
            records.append(rec)
            if trace:
                op_class = _TRACE_CLASS.get(rec[0]) or (
                    "fp" if instr.kind is OpKind.FP else "alu")
                trace_meta.append((op.name.lower(), op_class, instr.iid,
                                   tuple(reg(s) for s in instr.srcs)))
        blocks.append(records)
    return blocks, meta, reg_index, reg_names, trace_meta
