"""Dynamic critical-path extraction over the executed dependence graph.

Every traced instruction carries the dependence edges that constrained
its issue: ``register`` (operand producer, same core), ``memory``
(fence / prior memory op ordering), ``control`` (branch redirect),
``communication`` (cross-thread: the produce feeding a consume, or the
consume that freed a full queue slot), and ``order`` (the in-order
predecessor on the same core).  The *dynamic critical path* is the
chain found by walking backwards from the last-completing event,
at each step following the edge whose constraint bound the issue
cycle — the dependence chain that determined the run's length.

The walk reports the path itself, its length (the final completion
time), and per-edge-kind cost totals: the cycles each edge kind
contributed along the path (``child.complete - parent.complete``,
clamped at zero), plus the root event's own completion.  When the
event ring evicted part of the history the walk stops at the window
edge and says so (``truncated``), attributing the remaining cycles to
the unobserved prefix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .events import EDGE_KINDS, InstructionEvent

#: Prefer informative edge kinds over the implicit in-order edge when
#: constraints tie.
_KIND_RANK = {"communication": 5, "register": 4, "memory": 3,
              "control": 2, "order": 1}


class CriticalPath:
    """The extracted path, oldest event first."""

    def __init__(self, events: List[InstructionEvent], length: float,
                 edge_kinds: List[str], edge_totals: Dict[str, float],
                 root_cycles: float, truncated: bool,
                 truncated_cycles: float = 0.0):
        self.events = events            # path, program order (root first)
        self.length = length            # == last event's completion time
        self.edge_kinds = edge_kinds    # kind of the edge *into* event i
        self.edge_totals = edge_totals  # per-kind cycle totals
        self.root_cycles = root_cycles  # the root event's own completion
        self.truncated = truncated
        self.truncated_cycles = truncated_cycles

    @property
    def instructions(self) -> int:
        return len(self.events)

    def as_dict(self) -> Dict[str, object]:
        return {
            "length_cycles": self.length,
            "instructions": self.instructions,
            "edge_totals": {kind: cycles for kind, cycles
                            in sorted(self.edge_totals.items())
                            if cycles},
            "root_cycles": self.root_cycles,
            "truncated": self.truncated,
            "truncated_cycles": self.truncated_cycles,
            "events": [event.as_dict() for event in self.events],
        }

    def describe(self, limit: int = 12) -> str:
        lines = ["critical path: %.0f cycles over %d instructions%s"
                 % (self.length, self.instructions,
                    " (window truncated)" if self.truncated else "")]
        for kind in EDGE_KINDS:
            cycles = self.edge_totals.get(kind, 0.0)
            if cycles:
                lines.append("  via %-13s %10.1f cycles"
                             % (kind + ":", cycles))
        shown = self.events[-limit:]
        if len(self.events) > len(shown):
            lines.append("  ... %d earlier path events elided"
                         % (len(self.events) - len(shown)))
        for index, event in enumerate(shown):
            offset = len(self.events) - len(shown)
            kind = self.edge_kinds[offset + index]
            lines.append(
                "  [%s] core %d thread %d iid %-4d %-12s "
                "issue %-8d done %.0f"
                % (kind or "root", event.core, event.thread, event.iid,
                   event.op, event.issue, event.complete))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return "<CriticalPath %.0f cycles, %d events>" % (
            self.length, self.instructions)


def _binding_dep(event: InstructionEvent,
                 by_seq: Dict[int, InstructionEvent]):
    """The dependence edge that bound this event's issue: max
    constraint, informative kinds preferred on ties.  Returns
    ``(pred_or_None, kind, evicted)``.  Only edges to strictly earlier
    events count (the simulator emits no other kind), so the backward
    walk terminates on any input, a hand-built cycle included."""
    best = None
    best_key = None
    evicted = False
    for dep in event.deps:
        pred_seq, kind = dep[0], dep[1]
        if pred_seq >= event.seq:
            continue
        constraint = dep[2] if len(dep) > 2 else None
        pred = by_seq.get(pred_seq)
        if pred is None:
            evicted = True
            continue
        if constraint is None:
            constraint = pred.complete
        key = (float(constraint), _KIND_RANK.get(kind, 0), pred.seq)
        if best_key is None or key > best_key:
            best_key = key
            best = (pred, kind)
    if best is None:
        return None, None, evicted
    return best[0], best[1], evicted


def critical_path(events: Iterable[InstructionEvent]) -> CriticalPath:
    """Extract the dynamic critical path from a window of events."""
    window = list(events)
    if not window:
        return CriticalPath([], 0.0, [], {}, 0.0, truncated=False)
    by_seq = {event.seq: event for event in window}
    # The last-completing event (latest seq on ties).
    current: Optional[InstructionEvent] = window[0]
    length = current.complete
    for event in window:
        if event.complete > length or (event.complete == length
                                       and event.seq > current.seq):
            current = event
            length = event.complete

    path: List[InstructionEvent] = []
    kinds: List[Optional[str]] = []
    edge_totals: Dict[str, float] = {}
    truncated = False
    truncated_cycles = 0.0
    root_cycles = 0.0
    while current is not None:
        path.append(current)
        pred, kind, evicted = _binding_dep(current, by_seq)
        if pred is None:
            if evicted and current.deps:
                # The binding history fell out of the ring window.
                truncated = True
                truncated_cycles = current.complete
            else:
                root_cycles = current.complete
            kinds.append(None)
            break
        cost = current.complete - pred.complete
        if cost < 0.0:
            cost = 0.0
        edge_totals[kind] = edge_totals.get(kind, 0.0) + cost
        kinds.append(kind)
        current = pred

    path.reverse()
    kinds.reverse()
    return CriticalPath(path, length, kinds, edge_totals, root_cycles,
                        truncated, truncated_cycles)
