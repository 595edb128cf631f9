"""The production timing simulator: a batched-dispatch core.

This module re-implements :func:`repro.machine.timing.simulate_threads`
as a *fused* functional+timing interpreter over precompiled dispatch
records.  The reference simulator pays, per dynamic instruction, for a
``ThreadContext.step()`` (operand list allocation, ``StepResult``
allocation, an opcode ``is``-chain) plus a second dispatch in
``_time_plain_instruction`` (a ``SIGNATURES`` lookup per ``kind`` read,
``Counter`` port accounting, several method calls).  The fast core
compiles each thread's CFG once into flat per-block record tuples —
integer op-class codes, pre-resolved branch targets, pre-computed port
indices/limits/latencies, pre-bound value-semantics callables — and runs
one loop that executes and times each instruction directly against
array-backed core state.

Equivalence contract: the results are **bit-identical** to the reference
loop — cycles, per-core finish times, stall attribution, cache and
queue statistics, memory, live-outs, even the ``int`` vs ``float``
types the reference's mixed arithmetic produces (cached artifacts are
shared between the two, so object equality must survive pickling).
Every timing expression below mirrors the corresponding line of
``timing.py``; when editing one, edit both.  The differential harness
(:mod:`repro.check.differential_backend`,
``tests/test_backend_equivalence.py``) locks this down.

Shared state (the per-cluster :class:`SAPortSchedule` bookings, the
:class:`TimedQueues` timestamps, the :class:`MemoryHierarchy` LRU sets)
reuses the reference classes outright: their behaviour is
interleaving-sensitive, so sharing the implementation removes a whole
class of divergence.

Tracing is *not* reimplemented: nothing here takes a tracer.  The one
place that picks a loop (``repro.pipeline.stages``) runs the reference
for traced simulations, so those cost reference speed but stay exactly
reconciled (``docs/performance.md``).
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import List, Mapping, Optional, Sequence

from ..interp.context import _BINARY, _UNARY, TrapError
from ..interp.state import MemoryError_, bind_params, make_memory
from ..ir.cfg import Function
from ..ir.instructions import COMM_OPCODES, OpKind, Opcode
from .cache import MemoryHierarchy
from .config import DEFAULT_CONFIG, MachineConfig
from .functional import DeadlockError, MTExecutionLimitExceeded
from .timing import (SAPortSchedule, TimedQueues, TimedResult,
                     simulate_program, simulate_single)

# Op-class codes of the compiled dispatch records.  Ordered roughly by
# dynamic frequency so the dispatch chain tests the hot classes first.
_ALU_RR = 0        # binary op, two register sources
_ALU_RI = 1        # binary op, register + immediate
_ALU_UN = 2        # unary op
_MOVI = 3
_LOAD = 4
_STORE = 5
_BR = 6
_JMP = 7
_EXIT = 8
_NOP = 9
_PRODUCE = 10
_PRODUCE_SYNC = 11
_CONSUME = 12
_CONSUME_SYNC = 13

#: Issue-port classes, by index: alu, memory, fp, branch.
_PORT_ALU, _PORT_MEM, _PORT_FP, _PORT_BR = 0, 1, 2, 3


def _fdiv(a, b):
    """FDIV value semantics (the reference checks before dividing)."""
    if float(b) == 0.0:
        raise TrapError("float division by zero")
    return float(a) / float(b)


#: Sentinel filling the slots of never-written registers.  The register
#: file is a flat list indexed by the compile-time register table, so
#: "undefined" must be a value; reading it traps exactly where the
#: reference's ``KeyError`` would.
_UNDEF = object()


def _trap_undef(register: str, function_name: str):
    raise TrapError("read of undefined register %r in %s"
                    % (register, function_name))


class _FastCore:
    """Array-backed in-order issue state of one core.

    Field-for-field mirror of :class:`repro.machine.timing.CoreTiming`
    minus the trace-only bookkeeping (the fast core never traces);
    ``port_use`` is a fixed 4-slot list indexed by port class instead of
    a ``Counter`` keyed by port name.
    """

    __slots__ = ("core_id", "sa", "cycle", "issued_in_cycle", "port_use",
                 "min_issue", "mem_fence", "last_mem_complete",
                 "finish", "branch_counters", "mispredictions",
                 "backpressure_cycles", "operand_wait_cycles",
                 "sa_port_delays")

    def __init__(self, core_id: int, sa: SAPortSchedule):
        self.core_id = core_id
        self.sa = sa
        self.cycle = 0
        self.issued_in_cycle = 0
        self.port_use = [0, 0, 0, 0]
        self.min_issue = 0
        self.mem_fence = 0.0
        self.last_mem_complete = 0.0
        self.finish = 0.0
        self.branch_counters = {}
        self.mispredictions = 0
        self.backpressure_cycles = 0.0
        self.operand_wait_cycles = 0.0
        self.sa_port_delays = 0


def _issue_sa(core, earliest, limit, issue_width):
    """``find_issue_slot(..., "memory", uses_sa=True)``: memory port plus
    a synchronization-array port of the core's cluster."""
    mi = core.min_issue
    if earliest > mi:
        t = int(earliest)
        if earliest > t:
            t += 1
    else:
        t = mi
    pu = core.port_use
    sa = core.sa
    booked = sa.booked
    ports = sa.ports
    while True:
        if t > core.cycle:
            core.cycle = t
            core.issued_in_cycle = 0
            pu[0] = pu[1] = pu[2] = pu[3] = 0
        if core.issued_in_cycle < issue_width and pu[_PORT_MEM] < limit:
            free = t
            while booked.get(free, 0) >= ports:
                free += 1
            if free != t:
                core.sa_port_delays += 1
                t = free
                continue
            booked[t] = booked.get(t, 0) + 1
            core.issued_in_cycle += 1
            pu[_PORT_MEM] += 1
            core.min_issue = t
            tf = t + 1.0
            if tf > core.finish:
                core.finish = tf
            return t
        t += 1


def compile_function(function: Function, config: MachineConfig):
    """Compile one thread CFG into per-block dispatch records.

    Returns ``(blocks, meta, reg_index, reg_names)``: ``blocks[i]`` is
    the record list of the i-th basic block (branch targets pre-resolved
    to block indices), ``meta[ridx]`` the source :class:`Instruction` of
    record ``ridx`` (used for end-of-run opcode accounting and error
    messages), and ``reg_index``/``reg_names`` the register table —
    records refer to registers by index into a flat list-backed register
    file (params first, then first-use order), which replaces every
    per-step dict probe of the reference with a list subscript.  The
    compile is linear in static code size and performs no dynamic work.
    """
    _ = function.entry  # same ValueError as ThreadContext on empty CFGs
    label_index = {block.label: i for i, block in enumerate(function.blocks)}
    alu_limit = config.alu_ports
    mem_limit = config.memory_ports
    fp_limit = config.fp_ports
    br_limit = config.branch_ports
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
    blocks = []
    for block in function.blocks:
        records = []
        for instr in block.instructions:
            ridx = len(meta)
            meta.append(instr)
            op = instr.op
            if op is Opcode.LOAD:
                rec = (_LOAD, ridx, instr, reg(instr.dest),
                       reg(instr.srcs[0]), instr.imm or 0, mem_limit)
            elif op is Opcode.STORE:
                rec = (_STORE, ridx, instr, reg(instr.srcs[0]),
                       reg(instr.srcs[1]), instr.imm or 0, mem_limit)
            elif op is Opcode.BR:
                rec = (_BR, ridx, instr, reg(instr.srcs[0]), instr.iid,
                       label_index[instr.labels[0]],
                       label_index[instr.labels[1]], br_limit)
            elif op is Opcode.JMP:
                rec = (_JMP, ridx, instr, label_index[instr.labels[0]],
                       br_limit)
            elif op is Opcode.EXIT:
                rec = (_EXIT, ridx, instr, br_limit)
            elif op is Opcode.MOVI:
                rec = (_MOVI, ridx, instr, reg(instr.dest), instr.imm,
                       alu_limit, config.latency_of(instr))
            elif op is Opcode.NOP:
                rec = (_NOP, ridx, instr, alu_limit)
            elif op is Opcode.PRODUCE:
                rec = (_PRODUCE, ridx, instr, reg(instr.srcs[0]),
                       instr.queue, mem_limit)
            elif op is Opcode.PRODUCE_SYNC:
                rec = (_PRODUCE_SYNC, ridx, instr, instr.queue, mem_limit)
            elif op is Opcode.CONSUME:
                rec = (_CONSUME, ridx, instr, reg(instr.dest),
                       instr.queue, mem_limit)
            elif op is Opcode.CONSUME_SYNC:
                rec = (_CONSUME_SYNC, ridx, instr, instr.queue, mem_limit)
            else:
                if op is Opcode.FDIV:
                    fn = _fdiv
                else:
                    fn = _BINARY.get(op) or _UNARY.get(op)
                    if fn is None:  # pragma: no cover - all opcodes covered
                        raise TrapError("unimplemented opcode %s" % op.value)
                if instr.kind is OpKind.FP:
                    pidx, limit = _PORT_FP, fp_limit
                else:
                    pidx, limit = _PORT_ALU, alu_limit
                latency = config.latency_of(instr)
                srcs = instr.srcs
                if len(srcs) == 2:
                    rec = (_ALU_RR, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), reg(srcs[1]), pidx, limit, latency)
                elif instr.imm is not None:
                    rec = (_ALU_RI, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), instr.imm, pidx, limit, latency)
                else:
                    rec = (_ALU_UN, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), pidx, limit, latency)
            records.append(rec)
        blocks.append(records)
    return blocks, meta, reg_index, reg_names


def simulate_threads_fast(functions: Sequence[Function], exit_thread: int,
                          memory_owner: Function,
                          args: Optional[Mapping[str, object]] = None,
                          initial_memory: Optional[
                              Mapping[str, object]] = None,
                          config: MachineConfig = DEFAULT_CONFIG,
                          n_queues: int = 0,
                          max_steps: int = 200_000_000,
                          placement: Optional[Sequence[int]] = None,
                          queue_crossing: Optional[Sequence[int]] = None
                          ) -> TimedResult:
    """Bit-identical replacement for the untraced
    :func:`repro.machine.timing.simulate_threads`."""
    memory = make_memory(memory_owner, initial_memory)
    queues = TimedQueues(n_queues, config.sa_queue_size) if n_queues else None
    hierarchy = MemoryHierarchy(config)
    topo = config.resolve_topology()
    sa_latency = topo.sa_access_latency
    cluster_ports = [SAPortSchedule(topo.sa_ports)
                     for _ in range(topo.n_clusters)]
    if placement is None:
        placement = tuple(range(len(functions)))
    if len(placement) < len(functions):
        raise ValueError("placement covers %d threads, program has %d"
                         % (len(placement), len(functions)))

    issue_width = config.issue_width
    predictor = config.branch_predictor
    taken_penalty = config.taken_branch_penalty
    mispredict_penalty = config.mispredict_penalty
    # 0 = static, 1 = bimodal, 2 = perfect (matches branch_redirect).
    pred_mode = 2 if predictor == "perfect" else (
        0 if predictor == "static" else 1)

    n = len(functions)
    thread_regs: List[list] = []    # flat register files (see compile)
    thread_rr: List[list] = []      # parallel register-ready times
    thread_names: List[list] = []   # register index -> name (for traps)
    thread_index: List[dict] = []   # register name -> index
    cores: List[_FastCore] = []
    thread_blocks = []          # per thread: compiled block record lists
    thread_meta = []            # per thread: record index -> Instruction
    for index, function in enumerate(functions):
        params = bind_params(function, dict(args) if args else {})
        # Compile (touching function.entry) before validating the core id:
        # the reference builds the ThreadContext first, so an empty CFG
        # must win over a bad placement.
        blocks, meta, reg_index, reg_names = compile_function(function,
                                                              config)
        regs = [_UNDEF] * len(reg_names)
        for name, value in params.items():
            regs[reg_index[name]] = value
        thread_regs.append(regs)
        thread_rr.append([0.0] * len(reg_names))
        thread_names.append(reg_names)
        thread_index.append(reg_index)
        thread_blocks.append(blocks)
        thread_meta.append(meta)
        core_id = placement[index]
        if not 0 <= core_id < topo.n_cores:
            raise ValueError("thread %d placed on core %d outside "
                             "topology %r (%d cores)"
                             % (index, core_id, topo.name, topo.n_cores))
        cores.append(_FastCore(core_id,
                               cluster_ports[topo.cluster_of(core_id)]))

    mem_words = memory.words
    mem_size = memory.size
    access = hierarchy.access
    qcap = queues.capacity if queues is not None else 0

    # Inline L1 read-hit path (the common case): the loop below checks
    # the per-core L1 tag store directly — same hit counting and LRU
    # update as CacheLevel.lookup — and only falls back to the full
    # hierarchy walk on a miss.
    word_bytes = config.word_bytes
    l1_line_bytes = config.l1d.line_bytes
    l1_hit_latency = config.l1d.hit_latency
    l1_nsets = hierarchy.l1[0].n_sets
    l1_levels = [hierarchy.l1[core.core_id] for core in cores]

    # Per-thread program counters over the compiled records.
    cur_recs = [blocks[0] for blocks in thread_blocks]
    cur_idx = [0] * n
    counts = [[0] * len(meta) for meta in thread_meta]
    live = [True] * n
    total_steps = 0
    prune_threshold = SAPortSchedule.PRUNE_THRESHOLD

    while any(live):
        if any(len(schedule.booked) > prune_threshold
               for schedule in cluster_ports):
            watermark = min(cores[i].min_issue
                            for i in range(n) if live[i])
            for schedule in cluster_ports:
                schedule.prune(watermark)
        progressed = False
        for index in range(n):
            if not live[index]:
                continue
            core = cores[index]
            cid = core.core_id
            l1 = l1_levels[index]
            regs = thread_regs[index]
            rr = thread_rr[index]
            names = thread_names[index]
            fname = functions[index].name
            ccounts = counts[index]
            recs = cur_recs[index]
            pos = cur_idx[index]
            executed = 0
            # Local mirrors of the core's issue state: the inlined
            # find-issue-slot logic below (``CoreTiming.find_issue_slot``
            # without the SA port, repeated per op class) runs entirely
            # on locals, written back once per burst.  ``_issue_sa``
            # still runs out of line — its call sites sync the mirrors
            # around the call.
            c_cycle = core.cycle
            c_issued = core.issued_in_cycle
            c_min_issue = core.min_issue
            c_finish = core.finish
            c_mem_fence = core.mem_fence
            c_last_mem = core.last_mem_complete
            pu = core.port_use
            # Budget: a burst of instructions per thread per visit, as in
            # the reference loop (keeps queue timestamps causal).
            for _ in range(64):
                rec = recs[pos]
                code = rec[0]
                if code == _ALU_RR:
                    (_c, ridx, _i, fn, dest, s0, s1, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is _UNDEF:
                        _trap_undef(names[s0], fname)
                    v1 = regs[s1]
                    if v1 is _UNDEF:
                        _trap_undef(names[s1], fname)
                    regs[dest] = fn(v0, v1)
                    e = rr[s0]
                    e2 = rr[s1]
                    if e2 > e:
                        e = e2
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[pidx] < limit:
                            c_issued += 1
                            pu[pidx] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    fin = t + latency
                    rr[dest] = fin
                    if fin > c_finish:
                        c_finish = fin
                    pos += 1
                elif code == _ALU_RI:
                    (_c, ridx, _i, fn, dest, s0, imm, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is _UNDEF:
                        _trap_undef(names[s0], fname)
                    regs[dest] = fn(v0, imm)
                    e = rr[s0]
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[pidx] < limit:
                            c_issued += 1
                            pu[pidx] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    fin = t + latency
                    rr[dest] = fin
                    if fin > c_finish:
                        c_finish = fin
                    pos += 1
                elif code == _ALU_UN:
                    (_c, ridx, _i, fn, dest, s0, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is _UNDEF:
                        _trap_undef(names[s0], fname)
                    regs[dest] = fn(v0)
                    e = rr[s0]
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[pidx] < limit:
                            c_issued += 1
                            pu[pidx] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    fin = t + latency
                    rr[dest] = fin
                    if fin > c_finish:
                        c_finish = fin
                    pos += 1
                elif code == _MOVI:
                    _c, ridx, _i, dest, imm, limit, latency = rec
                    regs[dest] = imm
                    t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[0] < limit:
                            c_issued += 1
                            pu[0] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    fin = t + latency
                    rr[dest] = fin
                    if fin > c_finish:
                        c_finish = fin
                    pos += 1
                elif code == _LOAD:
                    _c, ridx, _i, dest, s0, offset, limit = rec
                    base = regs[s0]
                    if base is _UNDEF:
                        _trap_undef(names[s0], fname)
                    address = base + offset
                    if not isinstance(address, int):
                        raise TrapError("non-integer address %r"
                                        % (address,))
                    if 0 <= address < mem_size:
                        regs[dest] = mem_words[address]
                    else:
                        raise MemoryError_(
                            "load from address %r (size %d)"
                            % (address, mem_size))
                    e = rr[s0]
                    if c_mem_fence > e:
                        e = c_mem_fence
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[1] < limit:
                            c_issued += 1
                            pu[1] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    line = address * word_bytes // l1_line_bytes
                    ways = l1.sets.get(line % l1_nsets)
                    if ways is not None and line // l1_nsets in ways:
                        ways.move_to_end(line // l1_nsets)
                        l1.hits += 1
                        hierarchy.last_level = "l1"
                        latency = l1_hit_latency
                    else:
                        latency = access(cid, address, False)
                    fin = t + latency
                    rr[dest] = fin
                    if fin > c_last_mem:
                        c_last_mem = fin
                    if fin > c_finish:
                        c_finish = fin
                    pos += 1
                elif code == _STORE:
                    _c, ridx, _i, s0, s1, offset, limit = rec
                    base = regs[s0]
                    if base is _UNDEF:
                        _trap_undef(names[s0], fname)
                    address = base + offset
                    if not isinstance(address, int):
                        raise TrapError("non-integer address %r"
                                        % (address,))
                    value = regs[s1]
                    if value is _UNDEF:
                        _trap_undef(names[s1], fname)
                    if 0 <= address < mem_size:
                        mem_words[address] = value
                    else:
                        raise MemoryError_(
                            "store to address %r (size %d)"
                            % (address, mem_size))
                    e = rr[s0]
                    e2 = rr[s1]
                    if e2 > e:
                        e = e2
                    if c_mem_fence > e:
                        e = c_mem_fence
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[1] < limit:
                            c_issued += 1
                            pu[1] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    access(cid, address, True)
                    tf = float(t + 1)
                    if tf > c_last_mem:
                        c_last_mem = tf
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    pos += 1
                elif code == _BR:
                    _c, ridx, _i, s0, iid, tk, nt, limit = rec
                    v0 = regs[s0]
                    if v0 is _UNDEF:
                        _trap_undef(names[s0], fname)
                    taken = bool(v0)
                    e = rr[s0]
                    if e > c_min_issue:
                        t = int(e)
                        if e > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[3] < limit:
                            c_issued += 1
                            pu[3] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    if pred_mode == 0:
                        penalty = taken_penalty if taken else 0
                    elif pred_mode == 2:
                        penalty = 0
                    else:
                        bc = core.branch_counters
                        counter = bc.get(iid, 2)
                        if taken:
                            bc[iid] = counter + 1 if counter < 3 else 3
                        else:
                            bc[iid] = counter - 1 if counter > 0 else 0
                        if (counter >= 2) == taken:
                            penalty = 0
                        else:
                            core.mispredictions += 1
                            penalty = mispredict_penalty
                    if penalty:
                        c_min_issue = t + 1 + penalty
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    recs = thread_blocks[index][tk if taken else nt]
                    pos = 0
                elif code == _JMP:
                    _c, ridx, _i, target, limit = rec
                    t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[3] < limit:
                            c_issued += 1
                            pu[3] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    recs = thread_blocks[index][target]
                    pos = 0
                elif code == _PRODUCE or code == _PRODUCE_SYNC:
                    if code == _PRODUCE:
                        _c, ridx, _i, s0, q, limit = rec
                    else:
                        _c, ridx, _i, q, limit = rec
                        s0 = None
                    if len(queues.queues[q]) >= qcap:
                        break  # functionally full: retry after consumers
                    slot_free = queues.slot_free_time(q)
                    if s0 is not None:
                        own_ready = rr[s0]
                        value = regs[s0]
                        if value is _UNDEF:
                            _trap_undef(names[s0], fname)
                    else:
                        own_ready = c_last_mem
                        value = 0
                    mi_f = float(c_min_issue)
                    if mi_f > own_ready:
                        own_ready = mi_f
                    if slot_free > own_ready:
                        core.backpressure_cycles += slot_free - own_ready
                        earliest = slot_free
                    else:
                        earliest = own_ready
                    core.cycle = c_cycle
                    core.issued_in_cycle = c_issued
                    core.min_issue = c_min_issue
                    core.finish = c_finish
                    t = _issue_sa(core, earliest, limit, issue_width)
                    c_cycle = core.cycle
                    c_issued = core.issued_in_cycle
                    c_min_issue = core.min_issue
                    c_finish = core.finish
                    queues.staged_push_time = float(t + 1)
                    queues.try_push(q, value)
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    pos += 1
                elif code == _CONSUME or code == _CONSUME_SYNC:
                    if code == _CONSUME:
                        _c, ridx, _i, dest, q, limit = rec
                    else:
                        _c, ridx, _i, q, limit = rec
                        dest = None
                    ok, value = queues.try_pop(q)
                    if not ok:
                        break  # queue empty: blocked
                    if dest is not None:
                        regs[dest] = value
                    core.cycle = c_cycle
                    core.issued_in_cycle = c_issued
                    core.min_issue = c_min_issue
                    core.finish = c_finish
                    t = _issue_sa(core, 0.0, limit, issue_width)
                    c_cycle = core.cycle
                    c_issued = core.issued_in_cycle
                    c_min_issue = core.min_issue
                    c_finish = core.finish
                    data_ready = queues.last_popped_time + sa_latency
                    if queue_crossing is not None:
                        data_ready += queue_crossing[q]
                    ti = t + 1
                    if data_ready > ti:
                        core.operand_wait_cycles += data_ready - ti
                        available = data_ready
                    else:
                        available = float(ti)
                    if dest is not None:
                        rr[dest] = available
                    elif available > c_mem_fence:
                        c_mem_fence = available
                    queues.record_pop_completion(q, available, None)
                    if available > c_finish:
                        c_finish = available
                    pos += 1
                elif code == _EXIT:
                    _c, ridx, _i, limit = rec
                    t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[3] < limit:
                            c_issued += 1
                            pu[3] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    ccounts[ridx] += 1
                    executed += 1
                    total_steps += 1
                    if total_steps > max_steps:
                        raise MTExecutionLimitExceeded(
                            "%s exceeded %d steps"
                            % (memory_owner.name, max_steps))
                    live[index] = False
                    break
                else:  # _NOP
                    _c, ridx, _i, limit = rec
                    t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[0] < limit:
                            c_issued += 1
                            pu[0] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    pos += 1
                ccounts[ridx] += 1
                executed += 1
                total_steps += 1
                if total_steps > max_steps:
                    raise MTExecutionLimitExceeded(
                        "%s exceeded %d steps"
                        % (memory_owner.name, max_steps))
            core.cycle = c_cycle
            core.issued_in_cycle = c_issued
            core.min_issue = c_min_issue
            core.finish = c_finish
            core.mem_fence = c_mem_fence
            core.last_mem_complete = c_last_mem
            cur_recs[index] = recs
            cur_idx[index] = pos
            if executed:
                progressed = True
        if not progressed and any(live):
            blocked = [cur_recs[i][cur_idx[i]][2]
                       for i in range(n) if live[i]]
            raise DeadlockError("all live threads blocked: %s" % blocked)

    per_thread_instructions = [0] * n
    per_thread_communication = [0] * n
    opcode_counts: Counter = Counter()
    for index in range(n):
        meta = thread_meta[index]
        executed = 0
        comm = 0
        for ridx, count in enumerate(counts[index]):
            if not count:
                continue
            executed += count
            op = meta[ridx].op
            opcode_counts[op] += count
            if op in COMM_OPCODES:
                comm += count
        per_thread_instructions[index] = executed
        per_thread_communication[index] = comm

    exit_regs = thread_regs[exit_thread]
    exit_index = thread_index[exit_thread]
    live_outs = {}
    for register in memory_owner.live_outs:
        i = exit_index.get(register)
        value = exit_regs[i] if i is not None else None
        live_outs[register] = None if value is _UNDEF else value
    core_finish = [0.0] * max(len(cores), max(placement[:n],
                                              default=-1) + 1)
    for core in cores:
        core_finish[core.core_id] = core.finish
    comm_stats = {
        "backpressure_cycles": sum(c.backpressure_cycles for c in cores),
        "operand_wait_cycles": sum(c.operand_wait_cycles for c in cores),
        "sa_port_delays": sum(c.sa_port_delays for c in cores),
        "mispredictions": sum(c.mispredictions for c in cores),
    }
    return TimedResult(max(core_finish) if core_finish else 0.0,
                       core_finish, per_thread_instructions,
                       per_thread_communication, opcode_counts, live_outs,
                       memory, hierarchy.stats(), queues, comm_stats)


#: The program- and function-level entry points over the fast core: the
#: reference wrappers (machine sizing, placement, crossing penalties),
#: handed this module's thread loop.
simulate_program_fast = partial(simulate_program,
                                simulate_threads=simulate_threads_fast)
simulate_single_fast = partial(simulate_single,
                               simulate_threads=simulate_threads_fast)
