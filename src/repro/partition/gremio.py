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
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.loops import Loop, loop_nest_forest
from ..analysis.pdg import PDG
from ..graphs import condense, topological_sort
from ..interp.profile import EdgeProfile
from ..ir.cfg import Function
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from .base import Partition, Partitioner


class _Item:
    """One schedulable unit at some hierarchy level: either a single
    instruction or a loop supernode.  Weights are in estimated cycles *per
    entry of the level being scheduled*; ``count`` is the unit's execution
    frequency per level entry (used to charge per-execution communication
    overhead on cross-thread dependences)."""

    __slots__ = ("key", "iids", "loop", "weight", "order", "count")

    def __init__(self, key, iids: List[int], loop: Optional[Loop],
                 weight: float, order: Tuple, count: float):
        self.key = key
        self.iids = iids
        self.loop = loop
        self.weight = weight
        self.order = order
        self.count = count


class GremioPartitioner(Partitioner):
    name = "gremio"

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
        self._function = function
        self._pdg = pdg
        self._profile = profile
        self._n = max(1, n_threads)
        # Topology-aware operand-network latency per thread pair (identity
        # thread->core assumption — the placement stage may later refine
        # the mapping, but at partition time identity is the estimate):
        # the scalar comm_latency plus the clusters' crossing penalty.
        # On any flat topology every entry is comm_latency * latency_factor,
        # i.e. exactly the legacy scalar model.
        topo = self.config.resolve_topology()
        last_core = topo.n_cores - 1
        self._comm_matrix = [
            [(float(self.config.comm_latency)
              + topo.crossing(min(a, last_core), min(b, last_core)))
             * self.latency_factor
             for b in range(self._n)]
            for a in range(self._n)]
        self._block_of = function.block_of()
        self._position = function.position_of()
        self._by_iid = function.by_iid()
        forest = loop_nest_forest(function)

        assignment: Dict[int, int] = {}
        if self.hierarchical:
            top_blocks = set(b.label for b in function.blocks)
            for loop in forest.top_level:
                top_blocks -= loop.blocks
            entry_weight = max(
                profile.block_weight(function.entry.label), 1.0)
            self._schedule_level(top_blocks, forest.top_level, entry_weight,
                                 assignment)
        else:
            items = [self._instruction_item(instruction.iid, 1.0)
                     for instruction in function.instructions()]
            self._list_schedule(items, assignment, commit=True)

        for instruction in function.instructions():
            assignment.setdefault(instruction.iid, 0)
        return Partition(function, n_threads, assignment)

    # -- item construction ------------------------------------------------------

    def _instruction_weight(self, iid: int, scale: float) -> float:
        instruction = self._by_iid[iid]
        count = max(self._profile.block_weight(self._block_of[iid]), 0.0)
        return self.config.latency_of(instruction) * count * scale

    def _instruction_item(self, iid: int, scale: float) -> _Item:
        count = max(
            self._profile.block_weight(self._block_of[iid]), 0.0) * scale
        return _Item(("i", iid), [iid], None,
                     self._instruction_weight(iid, scale),
                     self._position[iid], count)

    def _loop_item(self, loop: Loop, scale: float) -> _Item:
        iids = [instruction.iid
                for label in sorted(loop.blocks)
                for instruction in self._function.block(label)]
        weight = sum(self._instruction_weight(iid, scale) for iid in iids)
        order = min(self._position[iid] for iid in iids)
        # A loop supernode communicates per loop *entry*, not per iteration.
        entries = 0.0
        preds = self._function.predecessors_map()
        for pred in preds.get(loop.header, ()):
            if pred not in loop.blocks:
                entries += self._profile.edge_weight(pred, loop.header)
        count = max(entries, 1.0) * scale
        return _Item(("loop", loop.header), iids, loop, weight, order, count)

    def _level_items(self, region_blocks: Set[str],
                     child_loops: Sequence[Loop],
                     scale: float,
                     level_loop: Optional[Loop] = None) -> List[_Item]:
        items: List[_Item] = []
        region_groups: Dict[frozenset, List[int]] = {}
        # Control dependences shared by the whole level (the loop's own
        # continuation conditions) do not distinguish regions.
        baseline_deps: frozenset = frozenset()
        if level_loop is not None:
            baseline_deps = frozenset(
                self._pdg.cdg.deps_of(level_loop.header))
        for label in sorted(region_blocks):
            if self.region_grouping:
                deps = frozenset(self._pdg.cdg.deps_of(label)
                                 - baseline_deps)
                deps = frozenset(d for d in deps
                                 if d[0] in region_blocks)
            else:
                deps = frozenset()
            for instruction in self._function.block(label):
                if deps:
                    region_groups.setdefault(deps, []).append(
                        instruction.iid)
                else:
                    items.append(self._instruction_item(instruction.iid,
                                                        scale))
        for deps in sorted(region_groups, key=sorted):
            iids = region_groups[deps]
            weight = math.fsum(self._instruction_weight(iid, scale)
                               for iid in iids)
            count = max(
                max(self._profile.block_weight(self._block_of[iid]), 0.0)
                * scale for iid in iids)
            order = min(self._position[iid] for iid in iids)
            items.append(_Item(("cd", min(iids)), sorted(iids), None,
                               weight, order, count))
        for loop in child_loops:
            items.append(self._loop_item(loop, scale))
        return items

    # -- hierarchical scheduling ---------------------------------------------------

    def _schedule_level(self, region_blocks: Set[str],
                        child_loops: Sequence[Loop], entry_weight: float,
                        assignment: Dict[int, int],
                        level_loop: Optional[Loop] = None) -> float:
        """Schedule one hierarchy level (commits assignments and recurses
        into loops the scheduler decided to split); returns the estimated
        makespan per entry of the level."""
        scale = 1.0 / max(entry_weight, 1e-12)
        items = self._level_items(region_blocks, child_loops, scale,
                                  level_loop)
        makespan, split_loops = self._list_schedule(
            items, assignment, commit=True, scale=scale,
            pipelined=level_loop is not None)
        for loop in child_loops:
            if loop.header in split_loops:
                header_weight = max(
                    self._profile.block_weight(loop.header), 1.0)
                self._schedule_level(loop.exclusive_blocks, loop.children,
                                     header_weight, assignment,
                                     level_loop=loop)
        return makespan

    def _estimate_split(self, loop: Loop, scale: float) -> float:
        """Estimated cycles-per-level-entry if the loop body is scheduled
        across all threads, comparable to the supernode's atomic weight."""
        header_weight = max(self._profile.block_weight(loop.header), 1.0)
        body_scale = 1.0 / header_weight
        items = self._level_items(loop.exclusive_blocks, loop.children,
                                  body_scale, level_loop=loop)
        per_iteration, _ = self._list_schedule(items, assignment={},
                                               commit=False,
                                               scale=body_scale,
                                               pipelined=True)
        # per_iteration is cycles per header execution; the loop executes
        # header_weight times overall; scale converts to per-level-entry.
        return per_iteration * header_weight * scale

    # -- list scheduling of one level ----------------------------------------------

    # Per-dynamic-execution issue-slot overhead when a dependence crosses
    # threads: a communicated value costs a produce + a consume (charged
    # once per distinct (defining instruction, register) — MTCG dedups
    # repeats); a replicated branch costs its condition communication plus
    # the duplicate itself (charged once per branch, however many
    # instructions it controls).
    _DATA_CHANNEL_OVERHEAD = 2.0
    _CONTROL_CHANNEL_OVERHEAD = 3.0

    def _project_arcs(self, items: List[_Item]
                      ) -> Tuple[Dict[object, Set[object]],
                                 Dict[Tuple[object, object], Set[Tuple]]]:
        """Project PDG arcs to item-level adjacency.  The second result
        maps (source item, target item) to the distinct communication
        *channels* the crossing would require: ("d", def iid, register)
        for data, ("c", branch iid) for control replication."""
        from ..analysis.pdg import DepKind
        item_of: Dict[int, object] = {}
        for item in items:
            for iid in item.iids:
                item_of[iid] = item.key
        successors: Dict[object, Set[object]] = {item.key: set()
                                                 for item in items}
        channels: Dict[Tuple[object, object], Set[Tuple]] = {}
        for arc in self._pdg.arcs:
            source = item_of.get(arc.source)
            target = item_of.get(arc.target)
            if source is None or target is None or source == target:
                continue
            successors[source].add(target)
            if arc.kind is DepKind.CONTROL:
                channel = ("c", arc.source)
            else:
                channel = ("d", arc.source, arc.register)
            channels.setdefault((source, target), set()).add(channel)
        # Deterministic adjacency order (set iteration order depends on
        # the hash seed, which would leak into SCC numbering and FP sums).
        ordered = {key: sorted(targets, key=repr)
                   for key, targets in successors.items()}
        return ordered, channels

    def _list_schedule(self, items: List[_Item], assignment: Dict[int, int],
                       commit: bool,
                       scale: float = 1.0,
                       pipelined: bool = False) -> Tuple[float, Set[str]]:
        """Greedy EFT list scheduling onto n threads.

        Returns ``(makespan, split loop headers)``.  When ``commit`` is
        set, thread choices for covered instructions are written into
        ``assignment`` (instructions of split loops are left to the
        recursion).  ``scale`` converts raw profile counts to
        per-level-entry frequencies (for communication-overhead charges).

        ``pipelined`` marks loop-body levels: the body executes many
        iterations, and cross-thread dependences within one iteration are
        pipelineable (dependence cycles were condensed into single units),
        so the operand-network *latency* is a one-time skew, not a
        per-iteration cost — the scheduler then optimizes throughput
        (balance + communication occupancy) rather than latency.  Acyclic
        levels run once, where latency is the real cost.

        Pipelined levels additionally enforce *forward-only* cross-thread
        flow (a unit may only be placed on a thread >= all its producers'
        threads): values zig-zagging between cores would re-couple the
        threads with a round-trip operand latency per iteration, which
        destroys the decoupling the split exists for.
        """
        n = self._n
        # Per-pair operand-network latency (see partition()); in pipelined
        # loop bodies the latency — including any inter-cluster crossing —
        # is a one-time skew rather than a per-iteration cost, so it does
        # not gate the throughput estimate.
        comm = self._comm_matrix if not pipelined else None
        by_key = {item.key: item for item in items}
        successors, arc_channels = self._project_arcs(items)
        components, component_of, dag = condense(
            [item.key for item in items], successors)

        # Aggregate required communication channels to the unit level.
        unit_channels: Dict[Tuple[int, int], Set[Tuple]] = {}
        for (source_key, target_key), channel_set in arc_channels.items():
            source_unit = component_of[source_key]
            target_unit = component_of[target_key]
            if source_unit == target_unit:
                continue
            unit_channels.setdefault(
                (source_unit, target_unit), set()).update(channel_set)

        def channel_cost(channel: Tuple) -> float:
            source_iid = channel[1]
            frequency = max(self._profile.block_weight(
                self._block_of[source_iid]), 0.0) * scale
            factor = (self._CONTROL_CHANNEL_OVERHEAD if channel[0] == "c"
                      else self._DATA_CHANNEL_OVERHEAD)
            return factor * frequency * self.occupancy_factor

        unit_weight = [math.fsum(by_key[key].weight for key in component)
                       for component in components]
        unit_order = [min(by_key[key].order for key in component)
                      for component in components]

        bottom: List[float] = [0.0] * len(components)
        for index in reversed(range(len(components))):
            succ_best = max((bottom[succ] for succ in dag[index]),
                            default=0.0)
            bottom[index] = unit_weight[index] + succ_best

        order = topological_sort(
            range(len(components)), dag,
            priority={i: (-bottom[i], unit_order[i])
                      for i in range(len(components))})

        predecessors: Dict[int, List[int]] = {i: [] for i in dag}
        for source, targets in dag.items():
            for target in targets:
                predecessors[target].append(source)

        thread_ready = [0.0] * n
        finish: Dict[int, float] = {}
        unit_thread: Dict[int, int] = {}
        split_loops: Set[str] = set()
        total_weight = sum(unit_weight)
        scheduled_weight = 0.0
        # Channels already charged, per receiving thread (MTCG communicates
        # each channel once per target thread, however many units use it).
        paid: Set[Tuple[Tuple, int]] = set()

        def pending_channels(index: int, thread: int) -> List[Tuple]:
            required: List[Tuple] = []
            for pred in predecessors[index]:
                if unit_thread.get(pred, thread) == thread:
                    continue
                for channel in unit_channels.get((pred, index), ()):
                    if (channel, thread) not in paid:
                        required.append(channel)
            return required

        for index in order:
            weight = unit_weight[index]
            component = components[index]
            lone_loop = (len(component) == 1
                         and by_key[component[0]].loop is not None)

            # Earliest-finish-time thread choice; cross-thread dependences
            # pay the operand-network latency once plus per-execution
            # communication occupancy (charged once per channel per
            # receiving thread).
            minimum_thread = 0
            if pipelined:
                for pred in predecessors[index]:
                    minimum_thread = max(minimum_thread,
                                         unit_thread.get(pred, 0))

            best_thread, best_finish, best_start = 0, float("inf"), 0.0
            for thread in range(minimum_thread, n):
                start = thread_ready[thread]
                # math.fsum: exact, hence independent of set iteration
                # order (keeps the scheduler deterministic across runs).
                occupancy = math.fsum(
                    channel_cost(c)
                    for c in set(pending_channels(index, thread)))
                if not pipelined:
                    # One-shot level: intra-level precedence and operand
                    # latency gate the start.  (In a pipelined loop body,
                    # iteration i+1 overlaps iteration i, so precedence
                    # within one iteration costs throughput nothing.)
                    for pred in predecessors[index]:
                        arrival = finish.get(pred, 0.0)
                        pred_thread = unit_thread.get(pred, thread)
                        if pred_thread != thread:
                            arrival += comm[pred_thread][thread]
                        start = max(start, arrival)
                candidate = start + weight + occupancy
                if candidate < best_finish:
                    best_thread, best_finish, best_start = (thread,
                                                            candidate, start)

            if lone_loop and self.hierarchical and n > 1 and weight > 0:
                loop = by_key[component[0]].loop
                # Item weights carry the level's scale implicitly; recover
                # it (scale = scaled weight / raw cycles) so the split
                # estimate comes out in the same units.
                level_scale = weight / max(_raw_loop_cycles(self, loop),
                                           1e-12)
                split_cost = self._estimate_split(loop, level_scale)
                # A split occupies every core.  When there is enough other
                # work around to fill the other cores, demand that the
                # split also wins on total core-time; when this loop is
                # essentially the whole remaining program, a latency win
                # (estimated finish) suffices.
                other_work = total_weight - scheduled_weight - weight
                if other_work >= 0.5 * weight:
                    use_split = (split_cost * n
                                 <= weight * self.split_threshold)
                else:
                    split_start = max(max(thread_ready), best_start)
                    use_split = (split_start + split_cost
                                 <= best_finish * self.split_threshold)
                if use_split:
                    start = max(max(thread_ready), best_start)
                    end = start + split_cost
                    thread_ready = [end] * n
                    finish[index] = end
                    # Mark for recursion; any thread may be recorded as the
                    # "home" for dependence estimation purposes.
                    unit_thread[index] = best_thread
                    scheduled_weight += weight
                    if commit:
                        split_loops.add(loop.header)
                    continue

            for channel in pending_channels(index, best_thread):
                paid.add((channel, best_thread))
            thread_ready[best_thread] = best_finish
            finish[index] = best_finish
            unit_thread[index] = best_thread
            scheduled_weight += weight
            if commit:
                for key in component:
                    for iid in by_key[key].iids:
                        assignment[iid] = best_thread

        makespan = max(thread_ready) if thread_ready else 0.0
        return makespan, split_loops


def _raw_loop_cycles(partitioner: GremioPartitioner, loop: Loop) -> float:
    """Unscaled estimated total cycles spent in the loop (profile-weighted
    instruction latencies over all member blocks)."""
    total = 0.0
    for label in sorted(loop.blocks):
        for instruction in partitioner._function.block(label):
            total += partitioner._instruction_weight(instruction.iid, 1.0)
    return total
