"""Schema-versioned trace event types and the bounded ring buffer.

One :class:`InstructionEvent` is emitted per *dynamic* instruction the
timing simulator issues: which core/thread ran it, the cycle it issued
and the cycle its result became usable, its opcode and port class, the
raw stall components that delayed its issue, and the dependence edges
(register / memory / control / cross-thread communication / in-order
``order``) that constrained it.  :class:`QueueSample` records the
synchronization-array queue occupancy after every produce/consume —
the counter tracks of the Chrome export.

Events live in a :class:`RingBuffer`: tracing a long run keeps the most
recent ``capacity`` events and *counts* what it dropped, while the
aggregate stall attribution (see :mod:`repro.trace.collector`) is
accumulated outside the ring and therefore never loses cycles.  The
collector's rings store plain tuples in the field order of the event
type (:data:`EVENT_FIELDS`); the objects are views, built only when a
reader iterates the ring.

``TRACE_SCHEMA_VERSION`` is bumped on any incompatible change to the
event layout or the exported documents.
"""

from __future__ import annotations

from collections import deque
from itertools import starmap
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

TRACE_SCHEMA_VERSION = "repro.trace/v1"

#: Stall-attribution categories, in *attribution priority order*: when
#: a gap of issue-less cycles precedes an event, its raw delay
#: components claim the gap in this order (clamped so the attributed
#: total never exceeds the gap).  ``drain`` is the tail between a
#: core's last issue and its last completion; ``other`` absorbs any
#: remainder so per-core cycles always reconcile exactly.
STALL_CATEGORIES = (
    "control",             # branch redirect (mispredict / taken penalty)
    "sa_queue_full",       # produce back-pressure: waited for a slot
    "sa_queue_empty",      # consumed value arrived late (or fence wait)
    "cache_miss",          # operand produced by a load that missed L1
    "operand_wait",        # plain register operand not ready
    "sa_port_contention",  # displaced by the shared SA port budget
    "port_conflict",       # issue-width or port-class conflict
    "drain",               # completion tail after the last issue
    "other",               # unattributed remainder (kept for exactness)
)

#: The non-stall bucket: cycles in which the core issued >= 1 instruction.
EXECUTE = "execute"

#: Dependence-edge kinds of the executed dependence graph.
EDGE_KINDS = ("register", "memory", "control", "communication", "order")

#: Map a value-producer kind to the stall category its consumers charge.
PRODUCER_CATEGORY = {
    "consume": "sa_queue_empty",
    "load_l2": "cache_miss",
    "load_l3": "cache_miss",
    "load_mem": "cache_miss",
}

#: A dependence edge: (producing event seq, edge kind, constraint cycle).
#: ``constraint`` is the earliest issue cycle this edge allowed; ``None``
#: means "resolve to the producer's completion time" at analysis time.
Dep = Tuple[int, str, Optional[float]]


#: The fields of an :class:`InstructionEvent`, in constructor order:
#: the layout of an event row in the collector's ring.
EVENT_FIELDS = ("seq", "core", "thread", "iid", "op", "op_class",
                "issue", "complete", "queue", "stall", "deps", "extra")


class InstructionEvent:
    """One dynamic instruction as the timing simulator issued it: built
    from an event row (``InstructionEvent(*row)``) when read."""

    __slots__ = EVENT_FIELDS

    def __init__(self, seq: int, core: int, thread: int, iid: int,
                 op: str, op_class: str, issue: int, complete: float,
                 queue: Optional[int] = None,
                 stall: Optional[Dict[str, float]] = None,
                 deps: Sequence[Dep] = (),
                 extra: Optional[Dict[str, object]] = None):
        self.seq = seq
        self.core = core
        self.thread = thread
        self.iid = iid
        self.op = op
        self.op_class = op_class
        self.issue = issue
        self.complete = complete
        self.queue = queue
        self.stall = stall or {}
        self.deps = tuple(deps)
        self.extra = extra

    def row(self) -> tuple:
        """This event as a ring row."""
        return (self.seq, self.core, self.thread, self.iid, self.op,
                self.op_class, self.issue, self.complete, self.queue,
                self.stall, self.deps, self.extra)

    @property
    def duration(self) -> float:
        return max(0.0, self.complete - self.issue)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seq": self.seq, "core": self.core, "thread": self.thread,
            "iid": self.iid, "op": self.op, "op_class": self.op_class,
            "issue": self.issue, "complete": self.complete,
        }
        if self.queue is not None:
            data["queue"] = self.queue
        if self.stall:
            data["stall"] = {key: value for key, value
                             in self.stall.items() if value}
        if self.deps:
            data["deps"] = [list(dep) for dep in self.deps]
        if self.extra:
            data.update(self.extra)
        return data

    def __repr__(self) -> str:  # pragma: no cover
        return "<event #%d %s core%d @%d..%.1f>" % (
            self.seq, self.op, self.core, self.issue, self.complete)


class QueueSample:
    """SA queue occupancy right after one produce/consume: built from a
    ``(queue, cycle, depth)`` row when read."""

    __slots__ = ("queue", "cycle", "depth")

    def __init__(self, queue: int, cycle: float, depth: int):
        self.queue = queue
        self.cycle = cycle
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover
        return "<q%d depth=%d @%.0f>" % (self.queue, self.depth,
                                         self.cycle)


class RingBuffer:
    """A bounded event store: keeps the newest ``capacity`` items and
    counts evictions, so long traced runs stay memory-safe while the
    caller can still report exactly how much history was lost.

    With a ``view`` type the items are plain rows and iteration (or
    :meth:`snapshot`) yields ``view(*row)`` per row; :meth:`rows` reads
    them as stored.  A hot producer may append through :attr:`push`,
    the store's own ``append``, and count in :attr:`appended` itself."""

    def __init__(self, capacity: int, view=None):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1, got %d"
                             % capacity)
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.view = view
        self.push = self._items.append
        self.appended = 0

    def append(self, item) -> None:
        self._items.append(item)
        self.appended += 1

    @property
    def dropped(self) -> int:
        return self.appended - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        if self.view is None:
            return iter(self._items)
        return starmap(self.view, self._items)

    def snapshot(self) -> List:
        return list(self)

    def rows(self) -> List:
        """The stored items, oldest first, without building views."""
        return list(self._items)
