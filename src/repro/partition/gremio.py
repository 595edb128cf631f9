"""GREMIO: Global multi-threaded instruction scheduling (MICRO 2007).

*** Reconstruction note *********************************************
The MICRO 2007 text was not available to this reproduction (the supplied
full text was the companion ASPLOS 2008 COCO paper).  This module
reconstructs GREMIO from the titled paper's known shape — hierarchical,
list-scheduling-based global MT scheduling over the loop nest, allowing
cyclic inter-thread dependences, generating code via MTCG — with the
following concrete choices, all flagged in DESIGN.md:

* The scheduling hierarchy is the loop-nest forest.  Each level schedules
  the instructions exclusive to that level plus one *supernode* per inner
  loop.
* Each level's dependence graph (the PDG projected onto the level's items)
  is condensed into SCCs; SCCs are indivisible scheduling units (splitting
  a dependence cycle across cores costs an operand-network round trip per
  iteration, which the cost model never wins on).
* Units are list-scheduled onto ``n`` threads: priority is the classic
  "bottom level" (longest latency-weighted path to a sink), and each unit
  goes to the thread with the earliest estimated finish time, charging the
  operand-network latency on cross-thread dependences.
* A loop supernode is either placed *atomically* on one thread or
  *recursively split* across all threads, whichever the cost model
  estimates faster (split estimate: per-iteration list-schedule makespan x
  iterations; pipeline fill ignored).
**********************************************************************

A level is built once as plain data (:class:`Level`).  One walk over
its priority order holds the cost arithmetic: the greedy search is that
walk with an argmin chooser, the forward-only floor and the split gate;
:meth:`Level.estimate` is the walk with fixed choices, so it scores any
partition of the level (the search's own at exactly its makespan).  Each
loop body is list-scheduled once per ``partition()`` call: the per-call
:class:`_Nest` memoises its cycles per header execution (read by the
split gate) and its assignment (copied by a committed split).
"""

from __future__ import annotations

import math
from typing import (Callable, Collection, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from ..analysis.loops import Loop, loop_nest_forest
from ..analysis.pdg import PDG, DepKind
from ..graphs import condense, topological_sort
from ..interp.profile import EdgeProfile
from ..ir.cfg import Function
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from .base import Partition, Partitioner


class _Item(NamedTuple):
    """One schedulable item at some hierarchy level: a single
    instruction, a control-equivalent region or a loop supernode.
    Weights are in estimated cycles *per entry of the level being
    scheduled*."""

    key: object
    iids: List[int]
    loop: Optional[Loop]
    weight: float
    order: Tuple


class GremioPartitioner(Partitioner):
    name = "gremio"

    # Per-dynamic-execution issue-slot overhead when a dependence crosses
    # threads: a communicated value costs a produce + a consume (charged
    # once per distinct (defining instruction, register) — MTCG dedups
    # repeats); a replicated branch costs its condition communication plus
    # the duplicate itself (charged once per branch, however many
    # instructions it controls).
    _DATA_CHANNEL_OVERHEAD = 2.0
    _CONTROL_CHANNEL_OVERHEAD = 3.0

    def __init__(self, config: MachineConfig = DEFAULT_CONFIG,
                 split_threshold: float = 1.0,
                 occupancy_factor: float = 1.5,
                 hierarchical: bool = True,
                 region_grouping: bool = False,
                 latency_factor: float = 1.0):
        """``hierarchical=False`` degrades to flat list scheduling over the
        whole region with loops kept atomic only if they are dependence
        cycles (the ablation of experiment GREMIO-E3).

        ``split_threshold`` scales the atomic cost a recursive loop split
        must beat (1.0 = split at estimated parity, favoring parallelism,
        as a latency-oriented list scheduler does).  ``occupancy_factor``
        scales the issue-slot charge of communication instructions — on a
        6-issue core, produces/consumes largely fill spare slots, so the
        full charge overestimates their cost.

        ``region_grouping`` schedules conditionally-executed regions
        (hammock arms and other control-equivalent instruction groups) as
        atomic units.  Instruction granularity (the default) lets the
        forward-flow discipline and occupancy charges do the clustering
        and measures better on the CMP model; the flag remains as an
        ablation (the ``ablation_hierarchy`` bench spec, GREMIO-E3).
        """
        self.config = config
        self.split_threshold = split_threshold
        self.occupancy_factor = occupancy_factor
        self.hierarchical = hierarchical
        self.region_grouping = region_grouping
        # Scales the charged operand-network latency in the EFT model.
        # Values > 1 discourage chains that zig-zag between cores (each
        # crossing adds real latency the steady-state estimate otherwise
        # underweights).
        self.latency_factor = latency_factor

    # -- public API ---------------------------------------------------------

    def partition(self, function: Function, pdg: PDG,
                  profile: EdgeProfile, n_threads: int) -> Partition:
        nest = _Nest(self, function, pdg, profile, n_threads)
        _, assignment = nest.schedule(nest.root_level())
        for instruction in function.instructions():
            assignment.setdefault(instruction.iid, 0)
        return Partition(function, n_threads, assignment)

    def body_level(self, function: Function, pdg: PDG,
                   profile: EdgeProfile, n_threads: int,
                   header: Optional[str] = None) -> "Level":
        """The level this partitioner schedules for the body of the loop
        headed by ``header`` (costs per header execution), or its root
        level when ``header`` is None: the function minus its loops, or
        the whole function when not ``hierarchical``."""
        nest = _Nest(self, function, pdg, profile, n_threads)
        if header is None:
            return nest.root_level()
        return nest.body_level(nest.forest.by_header[header])


class _Nest:
    """The state of one ``partition()`` call: its inputs, the operand
    latency matrix, and the body memo (one schedule per loop header)."""

    def __init__(self, partitioner: GremioPartitioner, function: Function,
                 pdg: PDG, profile: EdgeProfile, n_threads: int):
        self.partitioner = partitioner
        self.function = function
        self.pdg = pdg
        self.profile = profile
        self.n = max(1, n_threads)
        # Topology-aware operand-network latency per thread pair (identity
        # thread->core assumption — the placement stage may later refine
        # the mapping, but at partition time identity is the estimate):
        # the scalar comm_latency plus the clusters' crossing penalty.
        # On any flat topology every entry is comm_latency * latency_factor,
        # i.e. exactly the legacy scalar model.
        config = partitioner.config
        topo = config.resolve_topology()
        last_core = topo.n_cores - 1
        self.comm = [[(float(config.comm_latency)
                       + topo.crossing(min(a, last_core), min(b, last_core)))
                      * partitioner.latency_factor
                      for b in range(self.n)]
                     for a in range(self.n)]
        self.block_of = function.block_of()
        self.position = function.position_of()
        self.by_iid = function.by_iid()
        self.forest = loop_nest_forest(function)
        self.bodies: Dict[str, Tuple[float, Dict[int, int]]] = {}

    # -- levels ---------------------------------------------------------------

    def root_level(self) -> "Level":
        if not self.partitioner.hierarchical:
            items = [self.instruction_item(instruction.iid, 1.0)
                     for instruction in self.function.instructions()]
            return Level(self, items, 1.0, pipelined=False)
        top_blocks = set(b.label for b in self.function.blocks)
        for loop in self.forest.top_level:
            top_blocks -= loop.blocks
        scale = 1.0 / max(
            self.profile.block_weight(self.function.entry.label), 1.0)
        return Level(self, self.level_items(top_blocks,
                                            self.forest.top_level, scale),
                     scale, pipelined=False)

    def body_level(self, loop: Loop) -> "Level":
        scale = 1.0 / self.header_weight(loop)
        return Level(self, self.level_items(loop.exclusive_blocks,
                                            loop.children, scale, loop),
                     scale, pipelined=True)

    def header_weight(self, loop: Loop) -> float:
        return max(self.profile.block_weight(loop.header), 1.0)

    def body(self, loop: Loop) -> Tuple[float, Dict[int, int]]:
        """``(cycles per header execution, assignment)`` of the loop's
        body split across all threads — list-scheduled on first use."""
        if loop.header not in self.bodies:
            self.bodies[loop.header] = self.schedule(self.body_level(loop))
        return self.bodies[loop.header]

    def schedule(self, level: "Level") -> Tuple[float, Dict[int, int]]:
        """Search ``level``; the bodies of the loops it splits contribute
        their memoised assignments."""
        makespan, assignment, split = level.search()
        for header in split:
            assignment.update(self.bodies[header][1])
        return makespan, assignment

    # -- item construction ----------------------------------------------------

    def instruction_weight(self, iid: int, scale: float) -> float:
        count = max(self.profile.block_weight(self.block_of[iid]), 0.0)
        return (self.partitioner.config.latency_of(self.by_iid[iid])
                * count * scale)

    def instruction_item(self, iid: int, scale: float) -> _Item:
        return _Item(("i", iid), [iid], None,
                     self.instruction_weight(iid, scale),
                     self.position[iid])

    def loop_item(self, loop: Loop, scale: float) -> _Item:
        iids = [instruction.iid
                for label in sorted(loop.blocks)
                for instruction in self.function.block(label)]
        weight = sum(self.instruction_weight(iid, scale) for iid in iids)
        order = min(self.position[iid] for iid in iids)
        return _Item(("loop", loop.header), iids, loop, weight, order)

    def level_items(self, region_blocks: Set[str],
                    child_loops: Sequence[Loop], scale: float,
                    level_loop: Optional[Loop] = None) -> List[_Item]:
        items: List[_Item] = []
        region_groups: Dict[frozenset, List[int]] = {}
        # Control dependences shared by the whole level (the loop's own
        # continuation conditions) do not distinguish regions.
        baseline_deps: frozenset = frozenset()
        if level_loop is not None:
            baseline_deps = frozenset(
                self.pdg.cdg.deps_of(level_loop.header))
        for label in sorted(region_blocks):
            deps: frozenset = frozenset()
            if self.partitioner.region_grouping:
                deps = frozenset(
                    d for d in self.pdg.cdg.deps_of(label) - baseline_deps
                    if d[0] in region_blocks)
            for instruction in self.function.block(label):
                if deps:
                    region_groups.setdefault(deps, []).append(
                        instruction.iid)
                else:
                    items.append(self.instruction_item(instruction.iid,
                                                       scale))
        for deps in sorted(region_groups, key=sorted):
            iids = region_groups[deps]
            weight = math.fsum(self.instruction_weight(iid, scale)
                               for iid in iids)
            order = min(self.position[iid] for iid in iids)
            items.append(_Item(("cd", min(iids)), sorted(iids), None,
                               weight, order))
        for loop in child_loops:
            items.append(self.loop_item(loop, scale))
        return items


class Level:
    """One hierarchy level as plain data, scheduled onto ``n`` threads.

    ``units`` are the SCCs of the PDG projected onto the level's items
    (lists of iids); ``loops[u]`` is the loop of a unit that is a lone
    loop supernode (a split candidate), else None.  Costs are in cycles
    per entry of the level (per header execution for a loop body).

    ``pipelined`` marks loop-body levels: iterations overlap and
    dependence cycles were condensed into units, so the operand-network
    *latency* (inter-cluster crossings included) is a one-time skew, not
    a per-iteration cost — the schedule optimizes throughput (balance +
    communication occupancy).  Acyclic levels run once, where latency is
    the real cost.  Pipelined levels also search only *forward* flow (a
    unit goes to a thread >= its producers' threads): values zig-zagging
    between cores would re-couple them with a round-trip latency per
    iteration, destroying the decoupling the split exists for.
    """

    def __init__(self, nest: _Nest, items: List[_Item], scale: float,
                 pipelined: bool):
        self._nest = nest
        self.scale = scale
        self.pipelined = pipelined
        by_key = {item.key: item for item in items}
        # Project PDG arcs onto the items, noting the communication
        # *channel* each crossing would need: ("d", def iid, register)
        # for data, ("c", branch iid) for control replication.
        item_of = {iid: item.key for item in items for iid in item.iids}
        successors: Dict[object, Set[object]] = {key: set()
                                                 for key in by_key}
        crossings = []
        for arc in nest.pdg.arcs:
            source = item_of.get(arc.source)
            target = item_of.get(arc.target)
            if source is None or target is None or source == target:
                continue
            successors[source].add(target)
            crossings.append((source, target, ("c", arc.source)
                              if arc.kind is DepKind.CONTROL
                              else ("d", arc.source, arc.register)))
        # Deterministic adjacency order (set iteration order depends on
        # the hash seed, which would leak into SCC numbering and FP sums).
        components, component_of, dag = condense(
            list(by_key), {key: sorted(targets, key=repr)
                           for key, targets in successors.items()})
        self.units = [[iid for key in component for iid in by_key[key].iids]
                      for component in components]
        self.loops = [by_key[component[0]].loop if len(component) == 1
                      else None for component in components]
        self.weights = [math.fsum(by_key[key].weight for key in component)
                        for component in components]

        # Required channels per (predecessor, unit) and their
        # per-execution occupancy.
        unit_channels: Dict[Tuple[int, int], Set[Tuple]] = {}
        for source, target, channel in crossings:
            pair = (component_of[source], component_of[target])
            if pair[0] != pair[1]:
                unit_channels.setdefault(pair, set()).add(channel)
        partitioner = nest.partitioner
        overhead = {"c": partitioner._CONTROL_CHANNEL_OVERHEAD,
                    "d": partitioner._DATA_CHANNEL_OVERHEAD}
        self.channel_cost: Dict[Tuple, float] = {
            channel: overhead[channel[0]] * (max(nest.profile.block_weight(
                nest.block_of[channel[1]]), 0.0) * scale)
            * partitioner.occupancy_factor
            for channels in unit_channels.values() for channel in channels}
        # Every condensed arc carries at least one channel.
        self.inputs: List[List[Tuple[int, Set[Tuple]]]] = [
            [] for _ in components]
        for (source, target), channels in unit_channels.items():
            self.inputs[target].append((source, channels))

        bottom: List[float] = [0.0] * len(components)
        for index in reversed(range(len(components))):
            succ_best = max((bottom[succ] for succ in dag[index]),
                            default=0.0)
            bottom[index] = self.weights[index] + succ_best
        unit_order = [min(by_key[key].order for key in component)
                      for component in components]
        self.order = topological_sort(
            range(len(components)), dag,
            priority={i: (-bottom[i], unit_order[i])
                      for i in range(len(components))})

    def split_cost(self, index: int) -> float:
        """Cycles per level entry of unit ``index``'s loop split across
        all threads (its memoised body schedule)."""
        loop = self.loops[index]
        cycles, _ = self._nest.body(loop)
        return cycles * self._nest.header_weight(loop) * self.scale

    # -- the one walk -------------------------------------------------------

    def _walk(self, choose: Callable) -> Tuple[float, List[int], Set[int]]:
        """Place the units in priority order.  ``choose(index, place,
        earliest, ready)`` returns ``(thread, split?, place(index,
        thread))``; ``earliest(index)`` is the earliest-finishing
        ``(thread, place(index, thread))``, first on ties, at or above
        every producer's thread in a pipelined level.  Returns
        ``(makespan, thread per unit, split units)``."""
        n = self._nest.n
        comm = self._nest.comm
        ready = [0.0] * n
        finish = [0.0] * len(self.units)
        thread_of = [0] * len(self.units)
        # Channels already charged, per receiving thread (MTCG communicates
        # each channel once per target thread, however many units use it).
        paid: Set[Tuple[Tuple, int]] = set()
        split: Set[int] = set()

        def place(index: int, thread: int) -> Tuple[float, float, Set]:
            # Cross-thread dependences pay per-execution communication
            # occupancy, once per channel per receiving thread.
            start = ready[thread]
            pending = {channel
                       for pred, channels in self.inputs[index]
                       if thread_of[pred] != thread
                       for channel in channels
                       if (channel, thread) not in paid}
            # math.fsum: exact, hence independent of set iteration order
            # (keeps the scheduler deterministic across runs).
            occupancy = math.fsum(self.channel_cost[channel]
                                  for channel in pending)
            if not self.pipelined:
                # One-shot level: intra-level precedence and operand
                # latency gate the start.  (In a pipelined loop body,
                # iteration i+1 overlaps iteration i, so precedence
                # within one iteration costs throughput nothing.)
                for pred, _ in self.inputs[index]:
                    arrival = finish[pred]
                    if thread_of[pred] != thread:
                        arrival += comm[thread_of[pred]][thread]
                    start = max(start, arrival)
            return start, start + self.weights[index] + occupancy, pending

        def earliest(index: int) -> Tuple[int, Tuple[float, float, Set]]:
            floor = 0
            if self.pipelined:
                floor = max((thread_of[pred]
                             for pred, _ in self.inputs[index]), default=0)
            return min(((thread, place(index, thread))
                        for thread in range(floor, n)),
                       key=lambda option: option[1][1])

        for index in self.order:
            thread, split_here, (start, end, pending) = choose(
                index, place, earliest, ready)
            if split_here:
                # A split occupies every core from when all are free.
                end = max(max(ready), start) + self.split_cost(index)
                ready[:] = [end] * n
                split.add(index)
            else:
                paid.update((channel, thread) for channel in pending)
                ready[thread] = end
            finish[index] = end
            # A split loop's thread is its "home" for later arcs.
            thread_of[index] = thread
        return max(ready), thread_of, split

    def search(self) -> Tuple[float, Dict[int, int], Set[str]]:
        """Greedy EFT list scheduling.  Returns ``(makespan, {iid:
        thread} of the units not split, split loop headers)``; a split
        loop's instructions are its body schedule's (:meth:`_Nest.body`).

        Split gate: a split occupies every core.  When there is enough
        other work around to fill the other cores, the split must also
        win on total core-time; when this loop is essentially the whole
        remaining level, a latency win (estimated finish) suffices."""
        n = self._nest.n
        partitioner = self._nest.partitioner
        threshold = partitioner.split_threshold
        total_weight, scheduled_weight = sum(self.weights), 0.0

        def choose(index, place, earliest, ready):
            nonlocal scheduled_weight
            thread, placed = earliest(index)
            weight = self.weights[index]
            split_here = False
            if (self.loops[index] is not None and partitioner.hierarchical
                    and n > 1 and weight > 0):
                split_cost = self.split_cost(index)
                other_work = total_weight - scheduled_weight - weight
                if other_work >= 0.5 * weight:
                    split_here = split_cost * n <= weight * threshold
                else:
                    split_here = (max(max(ready), placed[0]) + split_cost
                                  <= placed[1] * threshold)
            scheduled_weight += weight
            return thread, split_here, placed

        makespan, thread_of, split = self._walk(choose)
        assignment = {iid: thread_of[index]
                      for index, unit in enumerate(self.units)
                      if index not in split for iid in unit}
        return makespan, assignment, {self.loops[i].header for i in split}

    def estimate(self, assignment: Mapping[int, int],
                 split: Collection[str] = ()) -> float:
        """The level's makespan under ``assignment`` (``{iid: thread}``),
        with the loop units headed by ``split`` split across all threads
        at their body schedule's cost (other headers are ignored).  Every
        other unit goes where its instructions are; raises ``ValueError``
        if they sit on more than one thread.
        ``estimate(*search()[1:]) == search()[0]``."""
        fixed: Dict[int, int] = {}
        for index, unit in enumerate(self.units):
            loop = self.loops[index]
            if loop is not None and loop.header in split:
                continue
            threads = {assignment[iid] for iid in unit}
            if len(threads) != 1 or not 0 <= min(threads) < self._nest.n:
                raise ValueError(
                    "unit of iids %s sits on threads %s; it needs one "
                    "thread in range(%d)"
                    % (unit[:6], sorted(threads), self._nest.n))
            fixed[index] = threads.pop()

        def choose(index, place, earliest, ready):
            if index in fixed:
                return fixed[index], False, place(index, fixed[index])
            thread, placed = earliest(index)
            return thread, True, placed

        return self._walk(choose)[0]
