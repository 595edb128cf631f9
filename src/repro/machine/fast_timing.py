"""The production timing simulator: a batched-dispatch core.

This module runs the timing model of :mod:`.timing` as one *fused*
functional+timing loop over the dispatch records of
:func:`repro.executor.records.compile_function` (integer op-class
codes, pre-resolved branch targets, port indices/limits/latencies,
pre-bound value semantics), executing and timing each instruction
against array-backed core state; its :func:`simulate_program` /
:func:`simulate_single` are the simulator's entry points
(``repro.machine`` exports them).

Equivalence contract: the results are **bit-identical** to the
reference loop, :mod:`.timing_oracle` — cycles, per-core finish times,
stall attribution, cache and queue statistics, memory, live-outs, even
the ``int`` vs ``float`` types its mixed arithmetic produces (cached
artifacts are shared between the two, so object equality must survive
pickling).  Every timing expression below mirrors the corresponding
line of ``timing_oracle.py``; when editing one, edit both.  The
differential harness (:mod:`repro.check.differential_backend`,
``tests/test_backend_equivalence.py``) locks this down.  The
interleaving-sensitive state (:class:`SAPortSchedule` bookings,
:class:`TimedQueues` timestamps, :class:`MemoryHierarchy` LRU sets) is
the same objects in both loops; the oracle reaches it through their
methods, while this loop inlines the hot accesses on those objects'
own fields — the L1 read hit, and the whole synchronization-array path
of produce/consume (SA port booking, slot-free lookup, push, pop and
pop-completion bookkeeping).

Tracing is a record-level hook of the same loop, not a second
interpreter: with a ``tracer`` each op-class arm ends in one
``if tracing:`` that hands the values the arm already computed (issue
cycle, completion, the fence, the queue slot) to one of the
``_trace_*`` functions below, which derive the stall components and
dependence edges exactly as the oracle's ``_trace_operand_binding`` /
``_trace_emit`` do and call the collector.  The hooks are calls, not
inline code, on purpose: an untraced run pays one local test per
instruction and the loop's bytecode stays compact (inline hook bodies
cost the untraced loop ~2 %; ``docs/performance.md`` has the budget).
The event stream is bit-identical to the reference loop's (same gate).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Mapping, Optional, Sequence

from ..executor.records import (ALU_RI, ALU_RR, ALU_UN, BR, CONSUME,
                                CONSUME_SYNC, EXIT, JMP, LOAD, MOVI, PRODUCE,
                                PRODUCE_SYNC, STORE, UNDEF, NoQueues,
                                TrapError, compile_function, trap_undef)
from ..executor.untimed import DeadlockError, MTExecutionLimitExceeded
from ..interp.state import MemoryError_, bind_params, make_memory
from ..ir.cfg import Function
from ..ir.instructions import COMM_OPCODES
from ..mtcg.program import MTProgram
from ..trace.events import PRODUCER_CATEGORY
from .cache import MemoryHierarchy
from .config import DEFAULT_CONFIG, MachineConfig
from .timing import (SAPortSchedule, TimedQueues, TimedResult,
                     queue_crossing_penalties)


class _FastCore:
    """Array-backed in-order issue state of one core.

    Field-for-field mirror of :class:`.timing_oracle.CoreTiming`;
    ``port_use`` is a fixed 4-slot list indexed by port class instead of
    a ``Counter`` keyed by port name, and the trace-only provenance
    (written only by the trace hooks) is flat: ``reg_source`` /
    ``reg_category`` are lists parallel to the thread's register-ready
    list, holding the producing event's seq and the stall category its
    consumers charge.  ``issue_floor`` is ``min_issue`` as it stood
    before the next instruction — the trace hooks keep it, because the
    loop's own mirror of ``min_issue`` has moved on by the time a hook
    runs.
    """

    __slots__ = ("core_id", "sa", "cycle", "issued_in_cycle", "port_use",
                 "min_issue", "mem_fence", "last_mem_complete",
                 "finish", "branch_counters", "mispredictions",
                 "backpressure_cycles", "operand_wait_cycles",
                 "sa_port_delays", "sa_delay_cycles",
                 "reg_source", "reg_category", "last_mem_event",
                 "last_mem_category", "fence_event", "last_event_seq",
                 "last_event_issue", "issue_floor", "control_seq")

    def __init__(self, core_id: int, sa: SAPortSchedule,
                 n_registers: int = 0):
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
        # Cycles the SA port budget displaced issues by since a trace
        # hook last read (and zeroed) it.
        self.sa_delay_cycles = 0
        self.reg_source = [None] * n_registers
        self.reg_category = ["operand_wait"] * n_registers
        self.last_mem_event = None
        self.last_mem_category = "operand_wait"   # a store's
        self.fence_event = None
        self.last_event_seq = None
        self.last_event_issue = 0
        self.issue_floor = 0
        self.control_seq = None   # branch whose redirect set the floor


#: Per hierarchy level that served a load: the stall category the
#: load's consumers charge, and the (shared, read-only) ``extra`` of its
#: event.
_LOAD_CATEGORY = {level: PRODUCER_CATEGORY.get("load_" + level,
                                               "operand_wait")
                  for level in ("l1", "l2", "l3", "mem")}
_LOAD_EXTRA = {level: {"cache_level": level} for level in _LOAD_CATEGORY}

def _trace_emit(on_event, core, thread, consts, t, complete, raw, deps,
                t0, queue=None, penalty=0, extra=None):
    """The common tail of every trace hook (the oracle's ``_trace_emit``):
    attach the in-order and pending-redirect edges, split the issue
    displacement ``t - t0`` (``t0`` = the first cycle operands and
    program order allowed) into SA-port and issue-port cycles, emit the
    event and advance the core's trace bookkeeping."""
    if core.last_event_seq is not None:
        deps.append((core.last_event_seq, "order",
                     float(core.last_event_issue)))
    if core.control_seq is not None:
        deps.append((core.control_seq, "control", float(core.issue_floor)))
        core.control_seq = None
    if t != t0:
        sa_delay = core.sa_delay_cycles
        if t - t0 != sa_delay:
            raw["port_conflict"] = float(t - t0 - sa_delay)
        if sa_delay:
            raw["sa_port_contention"] = float(sa_delay)
            core.sa_delay_cycles = 0
    seq = on_event(core.core_id, thread, consts[2], consts[0], consts[1],
                   t, complete, raw, tuple(deps), queue, penalty, extra)
    core.last_event_seq = seq
    core.last_event_issue = t
    if penalty:
        core.issue_floor = t + 1 + penalty
        core.control_seq = seq
    else:
        core.issue_floor = t
    return seq


def _trace_plain(on_event, core, thread, consts, rr, fence, t, complete,
                 dest=None, category="operand_wait", penalty=0, extra=None):
    """Trace hook of a non-communication instruction: find the binding
    operand among the record's source registers and the memory fence
    (the oracle's ``_trace_operand_binding``; ``fence`` is 0.0 for anything
    but a load/store), emit, and note the event as the producer of
    ``dest`` — whose consumers will charge ``category``.  Reads ``rr``:
    call it before the instruction's own destination update."""
    floor = core.issue_floor
    raw = {}
    deps = []
    ready = 0.0
    binding = "operand_wait"
    for source in consts[3]:
        r = rr[source]
        if r > 0.0:
            producer = core.reg_source[source]
            if producer is not None:
                deps.append((producer, "register", r))
            if r > ready:
                ready = r
                binding = core.reg_category[source]
    if fence > ready:
        ready = fence
        binding = "sa_queue_empty"
        if core.fence_event is not None:
            deps.append((core.fence_event, "memory", fence))
    if ready > floor:
        raw[binding] = ready - float(floor)
        t0 = int(ready)
        if ready > t0:
            t0 += 1
    else:
        t0 = floor
    seq = _trace_emit(on_event, core, thread, consts, t, complete, raw,
                      deps, t0, None, penalty, extra)
    if dest is not None:
        core.reg_source[dest] = seq
        core.reg_category[dest] = category
    return seq


def _trace_memory(on_event, core, thread, consts, rr, fence, t, complete,
                  latest, dest=None, level=None):
    """Trace hook of a load (``dest`` and the hierarchy ``level`` that
    served it) or a store.  ``latest``: nothing in the core's memory
    pipeline completes later, so this event is what the next
    ``produce.sync`` waits for."""
    category = _LOAD_CATEGORY[level] if level else "operand_wait"
    seq = _trace_plain(on_event, core, thread, consts, rr, fence, t,
                       complete, dest, category, 0,
                       _LOAD_EXTRA[level] if level else None)
    if latest:
        core.last_mem_event = seq
        core.last_mem_category = category


def _trace_produce(on_event, core, thread, consts, rr, source, last_mem,
                   slot_free, own_ready, earliest, t, queues, queue):
    """Trace hook of a ``produce`` (``source`` register) or
    ``produce.sync`` (``source`` None: it waits for ``last_mem``, the
    core's last memory completion).  ``own_ready`` is when the value and
    program order allowed the push, ``slot_free`` when the queue did;
    call it before the push, it reads the slot's history."""
    floor = core.issue_floor
    raw = {}
    deps = []
    if source is not None:
        ready = rr[source]
        if ready > 0.0:
            if core.reg_source[source] is not None:
                deps.append((core.reg_source[source], "register", ready))
            if ready > floor:
                raw[core.reg_category[source]] = ready - float(floor)
    else:
        if last_mem > floor:
            raw[core.last_mem_category] = last_mem - float(floor)
        if core.last_mem_event is not None:
            deps.append((core.last_mem_event, "memory", last_mem))
    if slot_free > own_ready:
        raw["sa_queue_full"] = slot_free - own_ready
        free_seq = queues.slot_free_seq(queue)
        if free_seq is not None:
            deps.append((free_seq, "communication", slot_free))
    t0 = int(earliest)
    if earliest > t0:
        t0 += 1
    return _trace_emit(on_event, core, thread, consts, t, float(t + 1),
                       raw, deps, t0, queue)


def _trace_consume(on_event, core, thread, consts, dest, data_ready,
                   available, t, produced_by, queue):
    """Trace hook of a ``consume`` (``dest`` register) or
    ``consume.sync`` (``dest`` None: it raises the memory fence);
    ``produced_by`` is the event that pushed the popped value."""
    raw = {}
    if data_ready > t + 1:
        raw["sa_queue_empty"] = data_ready - (t + 1)
    deps = []
    if produced_by is not None:
        deps.append((produced_by, "communication", data_ready))
    seq = _trace_emit(on_event, core, thread, consts, t, available, raw,
                      deps, core.issue_floor, queue)
    if dest is not None:
        core.reg_source[dest] = seq
        core.reg_category[dest] = "sa_queue_empty"
    else:
        core.fence_event = seq
    return seq


def simulate_threads_fast(functions: Sequence[Function], exit_thread: int,
                          memory_owner: Function,
                          args: Optional[Mapping[str, object]] = None,
                          initial_memory: Optional[
                              Mapping[str, object]] = None,
                          config: MachineConfig = DEFAULT_CONFIG,
                          n_queues: int = 0,
                          max_steps: int = 200_000_000,
                          tracer=None,
                          placement: Optional[Sequence[int]] = None,
                          queue_crossing: Optional[Sequence[int]] = None
                          ) -> TimedResult:
    """Co-simulate ``functions`` (one per thread) functionally and in
    time, bit-identical to
    :func:`.timing_oracle.simulate_threads_oracle` — arguments, result,
    exceptions and ``tracer`` hooks (``on_event`` / ``on_queue_depth``
    / ``on_finish``, see :class:`repro.trace.TraceCollector`)."""
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

    tracing = tracer is not None
    if tracing:
        on_event = tracer.on_event
        on_queue_depth = tracer.on_queue_depth

    n = len(functions)
    thread_regs: List[list] = []    # flat register files (see compile)
    thread_rr: List[list] = []      # parallel register-ready times
    thread_names: List[list] = []   # register index -> name (for traps)
    thread_index: List[dict] = []   # register name -> index
    cores: List[_FastCore] = []
    thread_blocks = []          # per thread: compiled block record lists
    thread_meta = []            # per thread: record index -> Instruction
    thread_tmeta = []           # ... -> trace constants (when tracing)
    for index, function in enumerate(functions):
        params = bind_params(function, dict(args) if args else {})
        # Compile (touching function.entry) before validating the core id:
        # the oracle builds the ThreadContext first, so an empty CFG
        # must win over a bad placement.
        blocks, meta, reg_index, reg_names, trace_meta = compile_function(
            function, config, tracing)
        regs = [UNDEF] * len(reg_names)
        for name, value in params.items():
            regs[reg_index[name]] = value
        thread_regs.append(regs)
        thread_rr.append([0.0] * len(reg_names))
        thread_names.append(reg_names)
        thread_index.append(reg_index)
        thread_blocks.append(blocks)
        thread_meta.append(meta)
        thread_tmeta.append(trace_meta)
        core_id = placement[index]
        if not 0 <= core_id < topo.n_cores:
            raise ValueError("thread %d placed on core %d outside "
                             "topology %r (%d cores)"
                             % (index, core_id, topo.name, topo.n_cores))
        cores.append(_FastCore(core_id,
                               cluster_ports[topo.cluster_of(core_id)],
                               len(reg_names) if tracing else 0))
    if tracing and hasattr(tracer, "on_topology"):
        tracer.on_topology(topo.cluster_map())

    mem_words = memory.words
    mem_size = memory.size
    access = hierarchy.access

    # Inline synchronization-array path: the produce/consume arms below
    # work on the TimedQueues' own per-queue lists (the slot-free
    # lookup, push and pop bookkeeping of TimedQueues/FifoQueues) and on
    # the core's SAPortSchedule bookings, as the out-of-line methods do.
    # Each arm reads its queue first, so a communication op run without
    # queues traps as it does in the oracle.
    if queues is None:
        q_fifos = NoQueues()
    else:
        q_fifos = queues.queues
        qcap = queues.capacity
        q_timestamps = queues.timestamps
        q_producer_seqs = queues.producer_seqs
        q_push_counts = queues.push_counts
        q_pop_counts = queues.pop_counts
        q_pop_times = queues.pop_times
        q_pop_seqs = queues.pop_seqs
        q_pushes_per_queue = queues.pushes_per_queue

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
            steps_before = total_steps
            # Local mirrors of the core's issue state: the inlined
            # find-issue-slot logic below (``CoreTiming.find_issue_slot``,
            # repeated per op class; produce/consume also book a port
            # of the cluster's SA) runs entirely on locals, written back
            # once per burst.
            c_cycle = core.cycle
            c_issued = core.issued_in_cycle
            c_min_issue = core.min_issue
            c_finish = core.finish
            c_mem_fence = core.mem_fence
            c_last_mem = core.last_mem_complete
            pu = core.port_use
            sa_booked = core.sa.booked
            sa_ports = core.sa.ports
            # Budget: a burst of instructions per thread per visit, as in
            # the reference loop (keeps queue timestamps causal).
            for _ in range(64):
                rec = recs[pos]
                code = rec[0]
                if code == ALU_RR:
                    (_c, ridx, _i, fn, dest, s0, s1, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is UNDEF:
                        trap_undef(names[s0], fname)
                    v1 = regs[s1]
                    if v1 is UNDEF:
                        trap_undef(names[s1], fname)
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
                    if fin > c_finish:
                        c_finish = fin
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, fin, dest)
                    rr[dest] = fin
                    pos += 1
                elif code == ALU_RI:
                    (_c, ridx, _i, fn, dest, s0, imm, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is UNDEF:
                        trap_undef(names[s0], fname)
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
                    if fin > c_finish:
                        c_finish = fin
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, fin, dest)
                    rr[dest] = fin
                    pos += 1
                elif code == ALU_UN:
                    (_c, ridx, _i, fn, dest, s0, pidx, limit,
                     latency) = rec
                    v0 = regs[s0]
                    if v0 is UNDEF:
                        trap_undef(names[s0], fname)
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
                    if fin > c_finish:
                        c_finish = fin
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, fin, dest)
                    rr[dest] = fin
                    pos += 1
                elif code == MOVI:
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
                    if fin > c_finish:
                        c_finish = fin
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, fin, dest)
                    rr[dest] = fin
                    pos += 1
                elif code == LOAD:
                    _c, ridx, _i, dest, s0, offset, limit = rec
                    base = regs[s0]
                    if base is UNDEF:
                        trap_undef(names[s0], fname)
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
                    if fin > c_last_mem:
                        c_last_mem = fin
                    if fin > c_finish:
                        c_finish = fin
                    if tracing:
                        _trace_memory(on_event, core, index,
                                      thread_tmeta[index][ridx], rr,
                                      c_mem_fence, t, fin,
                                      fin == c_last_mem, dest,
                                      hierarchy.last_level)
                    rr[dest] = fin
                    pos += 1
                elif code == STORE:
                    _c, ridx, _i, s0, s1, offset, limit = rec
                    base = regs[s0]
                    if base is UNDEF:
                        trap_undef(names[s0], fname)
                    address = base + offset
                    if not isinstance(address, int):
                        raise TrapError("non-integer address %r"
                                        % (address,))
                    value = regs[s1]
                    if value is UNDEF:
                        trap_undef(names[s1], fname)
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
                    if tracing:
                        _trace_memory(on_event, core, index,
                                      thread_tmeta[index][ridx], rr,
                                      c_mem_fence, t, tf, tf == c_last_mem)
                    pos += 1
                elif code == BR:
                    _c, ridx, _i, s0, iid, tk, nt, limit = rec
                    v0 = regs[s0]
                    if v0 is UNDEF:
                        trap_undef(names[s0], fname)
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
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, float(ti), penalty=penalty)
                    recs = thread_blocks[index][tk if taken else nt]
                    pos = 0
                elif code == JMP:
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
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, float(ti))
                    recs = thread_blocks[index][target]
                    pos = 0
                elif code == PRODUCE or code == PRODUCE_SYNC:
                    if code == PRODUCE:
                        _c, ridx, _i, s0, q, limit = rec
                    else:
                        _c, ridx, _i, q, limit = rec
                        s0 = None
                    fifo = q_fifos[q]
                    if len(fifo) >= qcap:
                        break  # functionally full: retry after consumers
                    # TimedQueues.slot_free_time: the pop that freed the
                    # next push's slot.
                    pushes = q_push_counts[q]
                    if pushes < qcap:
                        slot_free = 0.0
                    else:
                        freed = q_pop_times[q]
                        slot_free = freed[(pushes - qcap)
                                          - (q_pop_counts[q] - len(freed))]
                    if s0 is not None:
                        own_ready = rr[s0]
                        value = regs[s0]
                        if value is UNDEF:
                            trap_undef(names[s0], fname)
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
                    if earliest > c_min_issue:
                        t = int(earliest)
                        if earliest > t:
                            t += 1
                    else:
                        t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[1] < limit:
                            free = t
                            while sa_booked.get(free, 0) >= sa_ports:
                                free += 1
                            if free != t:
                                core.sa_port_delays += 1
                                core.sa_delay_cycles += free - t
                                t = free
                                continue
                            sa_booked[t] = sa_booked.get(t, 0) + 1
                            c_issued += 1
                            pu[1] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    pushed = float(t + 1)
                    queues.staged_push_time = pushed
                    if tracing:
                        seq = queues.staged_push_seq = _trace_produce(
                            on_event, core, index,
                            thread_tmeta[index][ridx], rr, s0, c_last_mem,
                            slot_free, own_ready, earliest, t, queues, q)
                        on_queue_depth(q, pushed, len(fifo) + 1)
                    else:
                        seq = None
                    # TimedQueues.try_push.
                    fifo.append(value)
                    q_timestamps[q].append(pushed)
                    q_producer_seqs[q].append(seq)
                    q_push_counts[q] += 1
                    q_pushes_per_queue[q] += 1
                    queues.total_pushes += 1
                    if len(fifo) > queues.max_occupancy:
                        queues.max_occupancy = len(fifo)
                    ti = t + 1
                    if ti > c_finish:
                        c_finish = ti
                    pos += 1
                elif code == CONSUME or code == CONSUME_SYNC:
                    if code == CONSUME:
                        _c, ridx, _i, dest, q, limit = rec
                    else:
                        _c, ridx, _i, q, limit = rec
                        dest = None
                    fifo = q_fifos[q]
                    if not fifo:
                        break  # queue empty: blocked
                    # TimedQueues.try_pop.
                    value = fifo.popleft()
                    popped = queues.last_popped_time = \
                        q_timestamps[q].popleft()
                    produced_by = queues.last_popped_seq = \
                        q_producer_seqs[q].popleft()
                    q_pop_counts[q] += 1
                    if dest is not None:
                        regs[dest] = value
                    t = c_min_issue
                    while True:
                        if t > c_cycle:
                            c_cycle = t
                            c_issued = 0
                            pu[0] = pu[1] = pu[2] = pu[3] = 0
                        if c_issued < issue_width and pu[1] < limit:
                            free = t
                            while sa_booked.get(free, 0) >= sa_ports:
                                free += 1
                            if free != t:
                                core.sa_port_delays += 1
                                core.sa_delay_cycles += free - t
                                t = free
                                continue
                            sa_booked[t] = sa_booked.get(t, 0) + 1
                            c_issued += 1
                            pu[1] += 1
                            c_min_issue = t
                            tf = t + 1.0
                            if tf > c_finish:
                                c_finish = tf
                            break
                        t += 1
                    data_ready = popped + sa_latency
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
                    if tracing:
                        seq = _trace_consume(
                            on_event, core, index,
                            thread_tmeta[index][ridx], dest, data_ready,
                            available, t, produced_by, q)
                        on_queue_depth(q, float(ti), len(fifo))
                    else:
                        seq = None
                    # TimedQueues.record_pop_completion.
                    q_pop_times[q].append(available)
                    q_pop_seqs[q].append(seq)
                    if available > c_finish:
                        c_finish = available
                    pos += 1
                elif code == EXIT:
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
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, float(ti))
                    ccounts[ridx] += 1
                    total_steps += 1
                    if total_steps > max_steps:
                        raise MTExecutionLimitExceeded(
                            "%s exceeded %d steps"
                            % (memory_owner.name, max_steps))
                    live[index] = False
                    break
                else:  # NOP
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
                    if tracing:
                        _trace_plain(on_event, core, index,
                                     thread_tmeta[index][ridx], rr, 0.0,
                                     t, float(ti))
                    pos += 1
                ccounts[ridx] += 1
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
            if total_steps != steps_before:
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
        live_outs[register] = None if value is UNDEF else value
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
    if tracing:
        tracer.on_finish(core_finish, hierarchy.stats(), comm_stats)
    return TimedResult(max(core_finish) if core_finish else 0.0,
                       core_finish, per_thread_instructions,
                       per_thread_communication, opcode_counts, live_outs,
                       memory, hierarchy.stats(), queues, comm_stats)


def simulate_program(program: MTProgram,
                     args: Optional[Mapping[str, object]] = None,
                     initial_memory: Optional[Mapping[str, object]] = None,
                     config: MachineConfig = DEFAULT_CONFIG,
                     max_steps: int = 200_000_000,
                     tracer=None,
                     placement=None,
                     simulate_threads=simulate_threads_fast) -> TimedResult:
    """Timed simulation of MTCG output.  ``placement`` (a
    :class:`~repro.machine.placement.Placement` or a raw thread->core
    sequence) selects the cores; identity on a machine sized to the
    thread count otherwise.  ``simulate_threads`` is the thread loop to
    run: this module's core, or the oracle
    (:func:`repro.machine.timing_oracle.simulate_threads_oracle`)."""
    cores = getattr(placement, "cores", placement)
    if config.topology is None:
        config = config.with_cores(max(program.n_threads, 1))
    return simulate_threads(program.threads, program.exit_thread,
                            program.original, args, initial_memory, config,
                            n_queues=program.n_queues, max_steps=max_steps,
                            tracer=tracer, placement=cores,
                            queue_crossing=queue_crossing_penalties(
                                program, config, cores))


def simulate_single(function: Function,
                    args: Optional[Mapping[str, object]] = None,
                    initial_memory: Optional[Mapping[str, object]] = None,
                    config: MachineConfig = DEFAULT_CONFIG,
                    max_steps: int = 200_000_000,
                    tracer=None,
                    simulate_threads=simulate_threads_fast) -> TimedResult:
    """Timed simulation of the original single-threaded code on one core
    (``simulate_threads`` as in :func:`simulate_program`)."""
    if config.topology is None:
        config = config.with_cores(1)
    return simulate_threads([function], 0, function, args, initial_memory,
                            config, n_queues=0, max_steps=max_steps,
                            tracer=tracer)
