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

The walk reads event rows (:data:`~repro.trace.events.EVENT_FIELDS`)
by index: the ring holds contiguous seqs, so an edge's producer is
``window[seq - first]`` and a seq below ``first`` was evicted.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional

from .events import EDGE_KINDS, InstructionEvent, RingBuffer

#: Prefer informative edge kinds over the implicit in-order edge when
#: constraints tie.
_KIND_RANK = {"communication": 5, "register": 4, "memory": 3,
              "control": 2, "order": 1}


class CriticalPath:
    """The extracted path, oldest event first."""

    def __init__(self, rows: List[tuple], length: float,
                 edge_kinds: List[str], edge_totals: Dict[str, float],
                 root_cycles: float, truncated: bool,
                 truncated_cycles: float = 0.0):
        self.rows = rows                # path event rows, root first
        self.length = length            # == last event's completion time
        self.edge_kinds = edge_kinds    # kind of the edge *into* event i
        self.edge_totals = edge_totals  # per-kind cycle totals
        self.root_cycles = root_cycles  # the root event's own completion
        self.truncated = truncated
        self.truncated_cycles = truncated_cycles

    @cached_property
    def events(self) -> List[InstructionEvent]:
        """The path, program order (root first), as event views."""
        return [InstructionEvent(*row) for row in self.rows]

    @property
    def instructions(self) -> int:
        return len(self.rows)

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
        shown = [InstructionEvent(*row) for row in self.rows[-limit:]]
        offset = self.instructions - len(shown)
        if offset:
            lines.append("  ... %d earlier path events elided" % offset)
        for index, event in enumerate(shown):
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


def _dense_window(events: Iterable[InstructionEvent]) -> List:
    """Hand-built events as a seq-indexed row window: slot ``i`` holds
    seq ``first + i``, ``None`` where no event has that seq (the walk
    treats it as evicted).  Edges without a constraint get ``None``."""
    rows = [event.row() for event in events]
    if not rows:
        return rows
    first = min(row[0] for row in rows)
    window: List = [None] * (max(row[0] for row in rows) - first + 1)
    for row in rows:
        deps = tuple(dep if len(dep) > 2 else (dep[0], dep[1], None)
                     for dep in row[10])
        window[row[0] - first] = row[:10] + (deps,) + row[11:]
    return window


def critical_path(events: Iterable[InstructionEvent]) -> CriticalPath:
    """Extract the dynamic critical path from a window of events: a
    collector's event ring (walked as stored) or any iterable of
    :class:`InstructionEvent`."""
    if isinstance(events, RingBuffer) and events.view is InstructionEvent:
        window = events.rows()
    else:
        window = _dense_window(events)
    if not window:
        return CriticalPath([], 0.0, [], {}, 0.0, truncated=False)
    # Rows are EVENT_FIELDS tuples: [0] seq, [7] complete, [10] deps.
    first = window[0][0]
    # The last-completing event (latest seq on ties).
    length = max(row[7] for row in window if row is not None)
    tip = len(window) - 1
    while window[tip] is None or window[tip][7] != length:
        tip -= 1
    row = window[tip]
    length = row[7]   # the tip's own value: 5 and 5.0 tie in max()

    path: List[tuple] = []
    kinds: List[Optional[str]] = []
    edge_totals: Dict[str, float] = {}
    truncated = False
    truncated_cycles = 0.0
    root_cycles = 0.0
    rank = _KIND_RANK
    while True:
        path.append(row)
        # The binding edge: max constraint, informative kinds preferred
        # on ties, then the latest producer.  Only edges to strictly
        # earlier events count (the simulator emits no other kind), so
        # the walk terminates on any input, a hand-built cycle included.
        seq = row[0]
        pred = None
        evicted = False
        for pred_seq, kind, constraint in row[10]:
            if pred_seq >= seq:
                continue
            at = pred_seq - first
            if at < 0:
                evicted = True
                continue
            candidate = window[at]
            if candidate is None:
                evicted = True
                continue
            if constraint is None:
                constraint = candidate[7]
            if pred is not None:
                if constraint < best:
                    continue
                if constraint == best:
                    kind_rank = rank.get(kind, 0)
                    best_rank = rank.get(best_kind, 0)
                    if kind_rank < best_rank or (kind_rank == best_rank
                                                 and pred_seq <= best_seq):
                        continue
            pred = candidate
            best = constraint
            best_seq = pred_seq
            best_kind = kind
        if pred is None:
            if evicted:
                # The binding history fell out of the ring window.
                truncated = True
                truncated_cycles = row[7]
            else:
                root_cycles = row[7]
            kinds.append(None)
            break
        cost = row[7] - pred[7]
        if cost < 0.0:
            cost = 0.0
        edge_totals[best_kind] = edge_totals.get(best_kind, 0.0) + cost
        kinds.append(best_kind)
        row = pred

    path.reverse()
    kinds.reverse()
    return CriticalPath(path, length, kinds, edge_totals, root_cycles,
                        truncated, truncated_cycles)
