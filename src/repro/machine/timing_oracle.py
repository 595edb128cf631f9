"""The reference timed loop: the oracle the production core is held to.

:func:`simulate_threads_oracle` runs the model of :mod:`.timing`
plainly — one :class:`~repro.interp.step_oracle.ThreadContext` step and
one :class:`CoreTiming` dispatch per instruction; :mod:`.fast_timing`
must stay bit-identical to it.  Run it as ``simulate_program(...,
simulate_threads=simulate_threads_oracle)``; production reaches it only
for ``backend="reference"``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence

from ..executor.records import NoQueues
from ..executor.untimed import DeadlockError, MTExecutionLimitExceeded
from ..interp.state import bind_params, make_memory
from ..interp.step_oracle import StepStatus, ThreadContext
from ..ir.cfg import Function
from ..ir.instructions import OpKind, Opcode
from ..trace.events import PRODUCER_CATEGORY
from .cache import MemoryHierarchy
from .config import DEFAULT_CONFIG, MachineConfig
from .timing import SAPortSchedule, TimedQueues, TimedResult


class CoreTiming:
    """In-order issue state of one core."""

    def __init__(self, core_id: int, config: MachineConfig,
                 sa_ports: SAPortSchedule):
        self.core_id = core_id
        self.config = config
        self.sa_ports = sa_ports
        self.cycle = 0
        self.issued_in_cycle = 0
        self.port_use: Counter = Counter()
        self.min_issue = 0
        self.reg_ready: Dict[str, float] = {}
        self.mem_fence = 0.0
        self.last_mem_complete = 0.0
        self.finish = 0.0
        self.issued_total = 0
        # Bimodal predictor state: 2-bit counter per (static branch iid).
        self.branch_counters: Dict[int, int] = {}
        self.mispredictions = 0
        # Communication-stall accounting.
        self.backpressure_cycles = 0.0   # produce waited for a free slot
        self.operand_wait_cycles = 0.0   # consume value arrived late
        self.sa_port_delays = 0          # comm ops displaced by port limit
        # Per-issue conflict counters (read by the tracer after each
        # find_issue_slot call; pure bookkeeping, results unchanged).
        self.last_port_delay = 0         # cycles lost to width/port limits
        self.last_sa_delay = 0           # cycles displaced by SA ports
        # Trace-only dependence bookkeeping (written only when tracing).
        self.reg_source: Dict[str, tuple] = {}   # reg -> (seq, producer kind)
        self.last_mem_event: Optional[int] = None
        self.last_mem_kind = "store"
        self.fence_event: Optional[int] = None
        self.last_event_seq: Optional[int] = None
        self.last_event_issue = 0
        self.pending_control_dep: Optional[tuple] = None

    def branch_redirect(self, instruction, taken: bool) -> int:
        """Cycles of redirect penalty after this branch resolves."""
        mode = self.config.branch_predictor
        if mode == "perfect":
            return 0
        if mode == "static":
            return self.config.taken_branch_penalty if taken else 0
        # Bimodal 2-bit saturating counter, initialized weakly taken.
        counter = self.branch_counters.get(instruction.iid, 2)
        predicted_taken = counter >= 2
        if taken:
            self.branch_counters[instruction.iid] = min(3, counter + 1)
        else:
            self.branch_counters[instruction.iid] = max(0, counter - 1)
        if predicted_taken == taken:
            return 0
        self.mispredictions += 1
        return self.config.mispredict_penalty

    def ready_time(self, registers: Sequence[str]) -> float:
        ready = 0.0
        for register in registers:
            ready = max(ready, self.reg_ready.get(register, 0.0))
        return ready

    def find_issue_slot(self, earliest: float, port: str,
                        uses_sa: bool) -> int:
        t = int(max(earliest, self.min_issue))
        if earliest > t:
            t += 1
        self.last_port_delay = 0
        self.last_sa_delay = 0
        limit = self.config.port_limit(port)
        while True:
            if t > self.cycle:
                self.cycle = t
                self.issued_in_cycle = 0
                self.port_use.clear()
            if (self.issued_in_cycle < self.config.issue_width
                    and self.port_use[port] < limit):
                if uses_sa:
                    free = self.sa_ports.next_free(t)
                    if free != t:
                        self.sa_port_delays += 1
                        self.last_sa_delay += free - t
                        t = free
                        continue
                    self.sa_ports.book(t)
                self.issued_in_cycle += 1
                self.port_use[port] += 1
                self.min_issue = t
                self.issued_total += 1
                self.finish = max(self.finish, float(t + 1))
                return t
            self.last_port_delay += 1
            t += 1

    def complete(self, cycle: float) -> None:
        self.finish = max(self.finish, cycle)


def _trace_operand_binding(core: CoreTiming, registers: Sequence[str],
                           min_issue_before: float,
                           use_fence: bool = False):
    """Trace-only: the raw dependence-delay component (categorized by
    what produced the binding operand) plus the register/memory
    dependence edges of an instruction's sources.  Pure reads — must be
    called *before* the instruction's own destination update."""
    raw: Dict[str, float] = {}
    deps: List[tuple] = []
    best_ready = 0.0
    best_kind = None
    for register in registers:
        ready = core.reg_ready.get(register, 0.0)
        source = core.reg_source.get(register)
        if source is not None and ready > 0.0:
            deps.append((source[0], "register", ready))
        if ready > best_ready:
            best_ready = ready
            best_kind = source[1] if source is not None else None
    if use_fence and core.mem_fence > best_ready:
        best_ready = core.mem_fence
        best_kind = "fence"
        if core.fence_event is not None:
            deps.append((core.fence_event, "memory", core.mem_fence))
    delay = best_ready - min_issue_before
    if delay > 0.0:
        category = ("sa_queue_empty" if best_kind == "fence"
                    else PRODUCER_CATEGORY.get(best_kind, "operand_wait"))
        raw[category] = delay
    return raw, deps


def _trace_emit(tracer, core: CoreTiming, thread: int, instruction,
                op_class: str, issue: int, complete: float,
                raw: Dict[str, float], deps: List[tuple],
                queue: Optional[int] = None,
                control_penalty: float = 0.0,
                extra: Optional[Dict[str, object]] = None) -> int:
    """Attach the common edges (in-order predecessor, pending control
    redirect, issue-slot conflicts) and emit one event."""
    if core.last_event_seq is not None:
        deps.append((core.last_event_seq, "order",
                     float(core.last_event_issue)))
    if core.pending_control_dep is not None:
        branch_seq, constraint = core.pending_control_dep
        deps.append((branch_seq, "control", constraint))
        core.pending_control_dep = None
    if core.last_port_delay:
        raw["port_conflict"] = float(core.last_port_delay)
    if core.last_sa_delay:
        raw["sa_port_contention"] = float(core.last_sa_delay)
    seq = tracer.on_event(
        core.core_id, thread, instruction.iid,
        instruction.op.name.lower(), op_class, issue, complete,
        raw, tuple(deps), queue, control_penalty, extra)
    core.last_event_seq = seq
    core.last_event_issue = issue
    return seq


def simulate_threads_oracle(functions: Sequence[Function], exit_thread: int,
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
    """Co-simulate ``functions`` (one per thread) functionally + in time.

    ``placement`` maps thread index to core id of the machine's
    topology (identity when omitted); each core arbitrates for its own
    cluster's synchronization-array ports, and ``queue_crossing`` adds
    the per-queue inter-cluster latency for channels whose placed
    endpoints sit in different clusters (zeros on any flat machine).

    ``tracer`` (a :class:`repro.trace.TraceCollector`, or anything with
    its ``on_event`` / ``on_queue_depth`` / ``on_finish`` hooks) turns
    on per-instruction event capture with stall breakdowns and
    dependence edges.  All instrumentation is guarded: with
    ``tracer=None`` the simulated timings are bit-identical to an
    uninstrumented run.
    """
    memory = make_memory(memory_owner, initial_memory)
    queues = TimedQueues(n_queues, config.sa_queue_size) if n_queues else None
    # A produce reads its queue before it steps (a consume traps in the
    # step interpreter): without queues, the lookup traps.
    fifos = NoQueues() if queues is None else queues.queues
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

    contexts: List[ThreadContext] = []
    cores: List[CoreTiming] = []
    for index, function in enumerate(functions):
        regs = bind_params(function, dict(args) if args else {})
        contexts.append(ThreadContext(function, regs, memory, queues))
        core_id = placement[index]
        if not 0 <= core_id < topo.n_cores:
            raise ValueError("thread %d placed on core %d outside "
                             "topology %r (%d cores)"
                             % (index, core_id, topo.name, topo.n_cores))
        cores.append(CoreTiming(core_id, config,
                                cluster_ports[topo.cluster_of(core_id)]))
    if tracer is not None and hasattr(tracer, "on_topology"):
        tracer.on_topology(topo.cluster_map())

    n = len(contexts)
    per_thread_instructions = [0] * n
    per_thread_communication = [0] * n
    opcode_counts: Counter = Counter()
    live = [not c.exited for c in contexts]
    total_steps = 0

    while any(live):
        if any(len(schedule.booked) > SAPortSchedule.PRUNE_THRESHOLD
               for schedule in cluster_ports):
            watermark = min(cores[i].min_issue
                            for i in range(n) if live[i])
            for schedule in cluster_ports:
                schedule.prune(watermark)
        progressed = False
        for index, context in enumerate(contexts):
            if not live[index]:
                continue
            core = cores[index]
            # Budget: run a burst of instructions per thread per visit to
            # amortize loop overhead while keeping queues causal.
            for _ in range(64):
                instruction = context.current_instruction()
                if instruction is None:
                    live[index] = False
                    break
                op = instruction.op
                uses_sa = instruction.is_communication()

                if op is Opcode.PRODUCE or op is Opcode.PRODUCE_SYNC:
                    if len(fifos[instruction.queue]) >= queues.capacity:
                        break  # functionally full: retry after consumers run
                    slot_free = queues.slot_free_time(instruction.queue)
                    min_issue_before = float(core.min_issue)
                    if op is Opcode.PRODUCE:
                        own_ready = core.ready_time(instruction.srcs)
                    else:
                        own_ready = core.last_mem_complete
                    raw: Dict[str, float] = {}
                    deps: List[tuple] = []
                    if tracer is not None:
                        if op is Opcode.PRODUCE:
                            raw, deps = _trace_operand_binding(
                                core, instruction.srcs, min_issue_before)
                        else:
                            delay = own_ready - min_issue_before
                            if delay > 0.0:
                                raw[PRODUCER_CATEGORY.get(
                                    core.last_mem_kind,
                                    "operand_wait")] = delay
                            if core.last_mem_event is not None:
                                deps.append((core.last_mem_event,
                                             "memory", own_ready))
                    own_ready = max(own_ready, min_issue_before)
                    if slot_free > own_ready:
                        core.backpressure_cycles += slot_free - own_ready
                        if tracer is not None:
                            raw["sa_queue_full"] = slot_free - own_ready
                            free_seq = queues.slot_free_seq(
                                instruction.queue)
                            if free_seq is not None:
                                deps.append((free_seq, "communication",
                                             slot_free))
                    earliest = max(slot_free, own_ready)
                    t = core.find_issue_slot(earliest, "memory", True)
                    queues.staged_push_time = float(t + 1)
                    if tracer is not None:
                        queues.staged_push_seq = _trace_emit(
                            tracer, core, index, instruction, "comm",
                            t, float(t + 1), raw, deps,
                            queue=instruction.queue)
                    result = context.step()
                    core.complete(t + 1)
                    if tracer is not None:
                        tracer.on_queue_depth(
                            instruction.queue, float(t + 1),
                            len(queues.queues[instruction.queue]))
                elif op is Opcode.CONSUME or op is Opcode.CONSUME_SYNC:
                    result = context.step()
                    if result.status is StepStatus.BLOCKED:
                        break
                    t = core.find_issue_slot(0.0, "memory", True)
                    data_ready = queues.last_popped_time + sa_latency
                    if queue_crossing is not None:
                        data_ready += queue_crossing[instruction.queue]
                    if data_ready > t + 1:
                        core.operand_wait_cycles += data_ready - (t + 1)
                    available = max(float(t + 1), data_ready)
                    if op is Opcode.CONSUME:
                        core.reg_ready[instruction.dest] = available
                    else:
                        core.mem_fence = max(core.mem_fence, available)
                    seq = None
                    if tracer is not None:
                        raw = {}
                        deps = []
                        lateness = data_ready - (t + 1)
                        if lateness > 0.0:
                            raw["sa_queue_empty"] = lateness
                        if queues.last_popped_seq is not None:
                            deps.append((queues.last_popped_seq,
                                         "communication", data_ready))
                        seq = _trace_emit(
                            tracer, core, index, instruction, "comm",
                            t, available, raw, deps,
                            queue=instruction.queue)
                        if op is Opcode.CONSUME:
                            core.reg_source[instruction.dest] = (
                                seq, "consume")
                        else:
                            core.fence_event = seq
                        tracer.on_queue_depth(
                            instruction.queue, float(t + 1),
                            len(queues.queues[instruction.queue]))
                    queues.record_pop_completion(instruction.queue,
                                                 available, seq)
                    core.complete(available)
                else:
                    result = context.step()
                    if result.status is StepStatus.BLOCKED:  # pragma: no cover
                        break
                    _time_plain_instruction(core, hierarchy, config,
                                            instruction, result,
                                            tracer, index)

                progressed = True
                total_steps += 1
                if total_steps > max_steps:
                    raise MTExecutionLimitExceeded(
                        "%s exceeded %d steps"
                        % (memory_owner.name, max_steps))
                per_thread_instructions[index] += 1
                opcode_counts[op] += 1
                if uses_sa:
                    per_thread_communication[index] += 1
                if result.status is StepStatus.EXITED:
                    live[index] = False
                    break
        if not progressed and any(live):
            blocked = [contexts[i].current_instruction()
                       for i in range(n) if live[i]]
            raise DeadlockError("all live threads blocked: %s" % blocked)

    live_outs = {register: contexts[exit_thread].regs.get(register)
                 for register in memory_owner.live_outs}
    # Indexed by *core id* (idle cores report 0.0), so stall attribution
    # and per-core reporting stay exact under any placement.  With the
    # identity placement on a machine sized to the thread count — every
    # legacy call path — this is the per-thread list it always was.
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
    if tracer is not None:
        tracer.on_finish(core_finish, hierarchy.stats(), comm_stats)
    return TimedResult(max(core_finish) if core_finish else 0.0,
                       core_finish, per_thread_instructions,
                       per_thread_communication, opcode_counts, live_outs,
                       memory, hierarchy.stats(), queues, comm_stats)


def _time_plain_instruction(core: CoreTiming, hierarchy: MemoryHierarchy,
                            config: MachineConfig, instruction,
                            result, tracer=None, thread: int = 0) -> None:
    kind = instruction.kind
    min_issue_before = float(core.min_issue)
    if kind is OpKind.LOAD:
        earliest = max(core.ready_time(instruction.srcs), core.mem_fence)
        t = core.find_issue_slot(earliest, "memory", False)
        latency = hierarchy.access(core.core_id, result.mem_address, False)
        if tracer is not None:
            raw, deps = _trace_operand_binding(
                core, instruction.srcs, min_issue_before, use_fence=True)
            level = hierarchy.last_level
            seq = _trace_emit(tracer, core, thread, instruction, "memory",
                              t, t + latency, raw, deps,
                              extra={"cache_level": level})
            core.reg_source[instruction.dest] = (seq, "load_" + level)
            if t + latency >= core.last_mem_complete:
                core.last_mem_event = seq
                core.last_mem_kind = "load_" + level
        core.reg_ready[instruction.dest] = t + latency
        core.last_mem_complete = max(core.last_mem_complete, t + latency)
        core.complete(t + latency)
    elif kind is OpKind.STORE:
        earliest = max(core.ready_time(instruction.srcs), core.mem_fence)
        t = core.find_issue_slot(earliest, "memory", False)
        hierarchy.access(core.core_id, result.mem_address, True)
        if tracer is not None:
            raw, deps = _trace_operand_binding(
                core, instruction.srcs, min_issue_before, use_fence=True)
            seq = _trace_emit(tracer, core, thread, instruction, "memory",
                              t, float(t + 1), raw, deps)
            if t + 1 >= core.last_mem_complete:
                core.last_mem_event = seq
                core.last_mem_kind = "store"
        core.last_mem_complete = max(core.last_mem_complete, float(t + 1))
        core.complete(t + 1)
    elif kind is OpKind.BRANCH:
        t = core.find_issue_slot(core.ready_time(instruction.srcs),
                                 "branch", False)
        penalty = core.branch_redirect(instruction, result.branch_taken)
        if tracer is not None:
            raw, deps = _trace_operand_binding(
                core, instruction.srcs, min_issue_before)
            seq = _trace_emit(tracer, core, thread, instruction, "branch",
                              t, float(t + 1), raw, deps,
                              control_penalty=float(penalty))
            if penalty:
                core.pending_control_dep = (seq, float(t + 1 + penalty))
        if penalty:
            core.min_issue = t + 1 + penalty
        core.complete(t + 1)
    elif kind is OpKind.JUMP:
        t = core.find_issue_slot(0.0, "branch", False)
        if tracer is not None:
            _trace_emit(tracer, core, thread, instruction, "branch",
                        t, float(t + 1), {}, [])
        core.complete(t + 1)
    elif kind is OpKind.EXIT:
        t = core.find_issue_slot(core.ready_time(
            instruction.used_registers()), "branch", False)
        if tracer is not None:
            raw, deps = _trace_operand_binding(
                core, instruction.used_registers(), min_issue_before)
            _trace_emit(tracer, core, thread, instruction, "branch",
                        t, float(t + 1), raw, deps)
        core.complete(t + 1)
    elif kind is OpKind.NOP:
        t = core.find_issue_slot(0.0, "alu", False)
        if tracer is not None:
            _trace_emit(tracer, core, thread, instruction, "alu",
                        t, float(t + 1), {}, [])
        core.complete(t + 1)
    else:
        port = "fp" if kind is OpKind.FP else "alu"
        t = core.find_issue_slot(core.ready_time(instruction.srcs), port,
                                 False)
        latency = config.latency_of(instruction)
        if tracer is not None:
            raw, deps = _trace_operand_binding(
                core, instruction.srcs, min_issue_before)
            seq = _trace_emit(tracer, core, thread, instruction, port,
                              t, t + latency, raw, deps)
            if instruction.dest is not None:
                core.reg_source[instruction.dest] = (seq, "alu")
        if instruction.dest is not None:
            core.reg_ready[instruction.dest] = t + latency
        core.complete(t + latency)
