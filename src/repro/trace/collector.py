"""The trace collector: the instrumentation sink the timing simulator
feeds, one call per issued instruction.

The collector does two jobs with very different memory profiles:

* **event capture** — every instruction and queue sample goes into a
  bounded :class:`~repro.trace.events.RingBuffer` as one plain row, so
  tracing a long run keeps the newest window and counts what it
  evicted; reading the ring yields :class:`~repro.trace.events
  .InstructionEvent` / :class:`~repro.trace.events.QueueSample` views;
* **stall attribution** — per-core/per-thread/per-opcode-class cycle
  accounting is accumulated *outside* the ring and therefore exact over
  the whole run, however long.

Attribution model (per core, an in-order issue timeline): every cycle
up to the core's finish time is either an **execute** cycle (>= 1
instruction issued) or a stall cycle.  The gap of issue-less cycles
before an event is attributed to that event's raw delay components in
the priority order of :data:`~repro.trace.events.STALL_CATEGORIES`,
each take clamped so the attributed total never exceeds the gap; any
remainder lands in ``other`` and the tail between the last issue and
the last completion in ``drain``.  By construction, for every core::

    execute + sum(stall categories) == finish cycles   (exactly)

which is the reconciliation invariant ``verify()`` checks and the
stall report prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .events import (EXECUTE, STALL_CATEGORIES, InstructionEvent,
                     QueueSample, RingBuffer)

#: Default ring capacity: roomy enough for every workload in the repo's
#: registry while bounding worst-case memory on adversarial runs.
DEFAULT_EVENT_LIMIT = 1_000_000

#: The gap-claiming order (``drain`` and ``other`` are synthesized, not
#: claimed from raw components).
_CLAIM_ORDER = tuple(category for category in STALL_CATEGORIES
                     if category not in ("drain", "other"))


def _zero_stalls() -> Dict[str, float]:
    return {category: 0.0 for category in STALL_CATEGORIES}


class CoreAccount:
    """Running attribution state of one core."""

    __slots__ = ("core", "busy_cycles", "last_issue_cycle", "stalls",
                 "pending_control", "events", "finish", "last_thread")

    def __init__(self, core: int):
        self.core = core
        self.busy_cycles = 0
        self.last_issue_cycle = -1
        self.stalls = _zero_stalls()
        self.pending_control = 0.0
        self.events = 0
        self.finish = 0.0
        self.last_thread: Optional[int] = None  # issued last on this core

    def total_attributed(self) -> float:
        return self.busy_cycles + sum(self.stalls.values())


class ClassAccount:
    """Running attribution state of one opcode class (alu/fp/memory/
    branch/comm): dynamic count, busy cycles it opened, and the stall
    cycles attributed to its events."""

    __slots__ = ("op_class", "count", "stalls")

    def __init__(self, op_class: str):
        self.op_class = op_class
        self.count = 0
        self.stalls = _zero_stalls()


class TraceCollector:
    """The tracer object ``simulate_program(tracer=...)`` and
    ``simulate_single(tracer=...)`` drive."""

    def __init__(self, limit: int = DEFAULT_EVENT_LIMIT,
                 queue_sample_limit: Optional[int] = None):
        self.events: RingBuffer = RingBuffer(limit, InstructionEvent)
        self.queue_samples: RingBuffer = RingBuffer(
            queue_sample_limit if queue_sample_limit is not None
            else limit, QueueSample)
        # The rings' own appends: the hooks count in ``appended``.
        self._push_event = self.events.push
        self._push_sample = self.queue_samples.push
        self.cores: Dict[int, CoreAccount] = {}
        self.threads: Dict[int, Dict[str, float]] = {}
        self.op_classes: Dict[str, ClassAccount] = {}
        self.queue_peak: Dict[int, int] = {}
        self.core_finish: List[float] = []
        self.cache_stats: Dict[str, int] = {}
        self.comm_stats: Dict[str, float] = {}
        # Core id -> cluster index (from the simulator's topology hook);
        # empty until on_topology fires, which single-purpose consumers
        # of the collector may never do.
        self.cluster_of: Dict[int, int] = {}
        self.finished = False

    # -- simulator hooks ---------------------------------------------------

    def on_topology(self, cluster_of: Dict[int, int]) -> None:
        """Record the machine's core -> cluster map (the Chrome exporter
        groups core tracks by cluster with it)."""
        self.cluster_of = dict(cluster_of)

    def on_event(self, core: int, thread: int, iid: int, op: str,
                 op_class: str, issue: int, complete: float,
                 stall: Optional[Dict[str, float]] = None,
                 deps=(), queue: Optional[int] = None,
                 control_penalty: float = 0.0,
                 extra: Optional[Dict[str, object]] = None) -> int:
        """Record one issued instruction; returns its event ``seq`` so
        the simulator can thread dependence edges through registers,
        queues, and fences.

        The simulators call this positionally, once per dynamic
        instruction.  ``stall`` is *taken over*, not copied: it becomes
        the event's ``stall`` (with the pending ``control`` redirect
        added), so the caller hands in a fresh dict per event."""
        ring = self.events
        seq = ring.appended
        ring.appended = seq + 1
        try:
            account = self.cores[core]
        except KeyError:
            account = self.cores[core] = CoreAccount(core)
        try:
            klass = self.op_classes[op_class]
        except KeyError:
            klass = self.op_classes[op_class] = ClassAccount(op_class)
        try:
            thread_stalls = self.threads[thread]
        except KeyError:
            thread_stalls = self.threads[thread] = _zero_stalls()
        account.last_thread = thread

        if account.pending_control:
            if not stall:
                stall = {}
            stall["control"] = (stall.get("control", 0.0)
                                + account.pending_control)
            account.pending_control = 0.0

        # Gap attribution: issue-less cycles since the last issue cycle
        # on this core, claimed by the raw components in priority order.
        last_issue = account.last_issue_cycle
        if issue != last_issue:
            account.last_issue_cycle = issue
            account.busy_cycles += 1
            remaining = float(issue - last_issue - 1)
            if remaining > 0.0:
                stalls = account.stalls
                class_stalls = klass.stalls
                if stall:
                    for category in _CLAIM_ORDER:
                        component = stall.get(category, 0.0)
                        if component <= 0.0:
                            continue
                        take = (component if component < remaining
                                else remaining)
                        stalls[category] += take
                        class_stalls[category] += take
                        thread_stalls[category] += take
                        remaining -= take
                        if remaining <= 0.0:
                            break
                if remaining > 0.0:
                    stalls["other"] += remaining
                    class_stalls["other"] += remaining
                    thread_stalls["other"] += remaining

        if control_penalty:
            # The redirect stalls the *next* issue on this core.
            account.pending_control = float(control_penalty)

        account.events += 1
        klass.count += 1
        self._push_event((seq, core, thread, iid, op, op_class, issue,
                          complete, queue, stall, deps, extra))
        return seq

    def on_queue_depth(self, queue: int, cycle: float,
                       depth: int) -> None:
        self.queue_samples.appended += 1
        self._push_sample((queue, cycle, depth))
        if depth > self.queue_peak.get(queue, -1):
            self.queue_peak[queue] = depth

    def on_finish(self, core_finish: List[float],
                  cache_stats: Optional[Dict[str, int]] = None,
                  comm_stats: Optional[Dict[str, float]] = None) -> None:
        """Close the run: attribute each core's completion tail as
        ``drain`` so the per-core accounting sums to its finish time.
        The tail belongs to the thread that issued last on the core
        (``core_finish`` is indexed by core id, the thread table by
        thread index — they differ under any non-identity placement)."""
        self.core_finish = list(core_finish)
        for core, finish in enumerate(core_finish):
            account = self.cores.get(core)
            if account is None:
                account = self.cores[core] = CoreAccount(core)
            account.finish = float(finish)
            issued_through = (account.last_issue_cycle + 1
                              if account.events else 0)
            drain = float(finish) - issued_through
            if drain > 0.0:
                account.stalls["drain"] += drain
                if account.last_thread is not None:
                    self.threads[account.last_thread]["drain"] += drain
        self.cache_stats = dict(cache_stats or {})
        self.comm_stats = dict(comm_stats or {})
        self.finished = True

    # -- views -------------------------------------------------------------

    @property
    def total_events(self) -> int:
        return self.events.appended

    @property
    def total_cycles(self) -> float:
        return max(self.core_finish) if self.core_finish else 0.0

    def core_table(self) -> Dict[int, Dict[str, float]]:
        """Per-core attribution row: execute + every stall category +
        the core's finish time."""
        table: Dict[int, Dict[str, float]] = {}
        for core in sorted(self.cores):
            account = self.cores[core]
            row = {EXECUTE: float(account.busy_cycles)}
            row.update(account.stalls)
            row["total"] = account.total_attributed()
            row["finish"] = account.finish
            row["events"] = float(account.events)
            table[core] = row
        return table

    def class_table(self) -> Dict[str, Dict[str, float]]:
        table: Dict[str, Dict[str, float]] = {}
        for op_class in sorted(self.op_classes):
            account = self.op_classes[op_class]
            row: Dict[str, float] = {"count": float(account.count)}
            row.update(account.stalls)
            row["stall_total"] = sum(account.stalls.values())
            table[op_class] = row
        return table

    def stall_totals(self) -> Dict[str, float]:
        totals = _zero_stalls()
        for account in self.cores.values():
            for category, cycles in account.stalls.items():
                totals[category] += cycles
        return totals

    def top_stall(self) -> "tuple[str, float]":
        """The dominant stall reason (deterministic tie-break by the
        canonical category order)."""
        totals = self.stall_totals()
        best = STALL_CATEGORIES[0]
        for category in STALL_CATEGORIES:
            if totals[category] > totals[best]:
                best = category
        return best, totals[best]

    def verify(self, tolerance: float = 1e-6) -> None:
        """Assert the reconciliation invariant: per core, execute +
        attributed stalls == finish cycles (exactly, up to float
        round-off on the drain tail)."""
        for core, account in self.cores.items():
            attributed = account.total_attributed()
            if abs(attributed - account.finish) > tolerance:
                raise AssertionError(
                    "core %d attribution does not reconcile: "
                    "execute+stalls=%.6f, finish=%.6f"
                    % (core, attributed, account.finish))
