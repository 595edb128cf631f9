"""Tests for dynamic critical-path extraction: handcrafted dependence
chains with known answers, the telescoping identity
``sum(edge_totals) + root_cycles + truncated_cycles == length``,
communication edges showing up on real MT traces, and the index walk
against a dict-based reference walk on every registry workload."""

import pytest

from repro.analysis import build_pdg
from repro.interp import run_function
from repro.machine import DEFAULT_CONFIG, simulate_program
from repro.mtcg import generate
from repro.partition.dswp import DSWPPartitioner
from repro import evaluate_workload, get_workload
from repro.trace import (DEFAULT_EVENT_LIMIT, InstructionEvent,
                         TraceCollector, critical_path)
from repro.workloads import workload_names

from ._pipeline_fixture import build_pipeline_loop


def _event(seq, issue, complete, deps=(), core=0, op="add",
           op_class="alu"):
    return InstructionEvent(seq, core, core, seq, op, op_class,
                            issue, float(complete), deps=tuple(deps))


class TestHandcraftedChains:
    def test_empty_window(self):
        path = critical_path([])
        assert path.length == 0.0
        assert path.instructions == 0
        assert not path.truncated

    def test_single_event_is_its_own_path(self):
        path = critical_path([_event(0, 0, 5.0)])
        assert path.length == 5.0
        assert path.instructions == 1
        assert path.root_cycles == 5.0
        assert path.edge_totals == {}

    def test_linear_register_chain(self):
        events = [
            _event(0, 0, 3.0),
            _event(1, 3, 7.0, deps=[(0, "register", 3.0)]),
            _event(2, 7, 12.0, deps=[(1, "register", 7.0)]),
        ]
        path = critical_path(events)
        assert path.length == 12.0
        assert [e.seq for e in path.events] == [0, 1, 2]
        assert path.edge_totals == {"register": 9.0}
        assert path.root_cycles == 3.0

    def test_binding_edge_is_the_max_constraint(self):
        """The walk follows the edge that actually bound the issue
        cycle, not the first or the program-order edge."""
        events = [
            _event(0, 0, 2.0),                 # cheap producer
            _event(1, 0, 10.0, core=1),        # the slow producer
            _event(2, 10, 11.0, deps=[(0, "register", 2.0),
                                      (1, "communication", 10.0),
                                      (0, "order", 1.0)]),
        ]
        path = critical_path(events)
        assert [e.seq for e in path.events] == [1, 2]
        assert path.edge_kinds[-1] == "communication"
        assert path.edge_totals == {"communication": 1.0}

    def test_kind_rank_breaks_constraint_ties(self):
        events = [
            _event(0, 0, 5.0),
            _event(1, 0, 5.0, core=1),
            _event(2, 5, 9.0, deps=[(0, "order", 5.0),
                                    (1, "register", 5.0)]),
        ]
        path = critical_path(events)
        # register outranks order on equal constraints.
        assert path.edge_kinds[-1] == "register"

    def test_telescoping_identity_handcrafted(self):
        events = [
            _event(0, 0, 4.0),
            _event(1, 4, 6.0, deps=[(0, "register", 4.0)]),
            _event(2, 6, 6.5, deps=[(1, "memory", 6.0)]),
            _event(3, 7, 20.0, deps=[(2, "communication", 6.5)]),
        ]
        path = critical_path(events)
        total = (sum(path.edge_totals.values()) + path.root_cycles
                 + path.truncated_cycles)
        assert total == pytest.approx(path.length)

    def test_truncated_window_attributes_missing_prefix(self):
        """A dep pointing at an evicted seq truncates the walk and
        charges the unobserved prefix."""
        events = [
            _event(5, 10, 14.0, deps=[(4, "register", 10.0)]),
            _event(6, 14, 19.0, deps=[(5, "register", 14.0)]),
        ]
        path = critical_path(events)
        assert path.truncated
        assert path.truncated_cycles == 14.0
        total = (sum(path.edge_totals.values()) + path.root_cycles
                 + path.truncated_cycles)
        assert total == pytest.approx(path.length)

    def test_negative_edge_cost_clamped(self):
        events = [
            _event(0, 0, 9.0),
            # Completes *before* its producer (latency overlap): the
            # edge contributes zero, never negative.
            _event(1, 5, 7.0, deps=[(0, "register", 5.0)]),
        ]
        path = critical_path(events)
        assert path.length == 9.0  # seq 0 completes last -> is the tip
        assert all(cycles >= 0.0
                   for cycles in path.edge_totals.values())

    def test_cyclic_deps_terminate(self):
        """Edges to an event's own or a later seq are never followed:
        a hand-built cycle ends the walk instead of spinning in it."""
        events = [
            _event(0, 0, 3.0, deps=[(1, "register", 9.0)]),
            _event(1, 3, 7.0, deps=[(1, "register", 8.0),
                                    (0, "register", 3.0)]),
            _event(2, 7, 12.0, deps=[(2, "order", 12.0),
                                     (1, "register", 7.0)]),
        ]
        path = critical_path(events)
        assert [e.seq for e in path.events] == [0, 1, 2]
        assert not path.truncated
        assert path.root_cycles == 3.0
        assert path.edge_totals == {"register": 9.0}


class TestRealTraces:
    @pytest.fixture(scope="class")
    def analysis_parts(self):
        f = build_pipeline_loop()
        args = {"r_n": 150}
        profile = run_function(f, args).profile
        pdg = build_pdg(f)
        p = DSWPPartitioner().partition(f, pdg, profile, 2)
        mt = generate(f, pdg, p, None)
        collector = TraceCollector()
        result = simulate_program(mt, args,
                                  config=DEFAULT_CONFIG.for_dswp(),
                                  tracer=collector)
        return collector, result

    def test_path_length_is_total_cycles(self, analysis_parts):
        collector, result = analysis_parts
        path = critical_path(collector.events)
        assert path.length == result.cycles
        assert not path.truncated

    def test_telescoping_identity_real(self, analysis_parts):
        collector, _ = analysis_parts
        path = critical_path(collector.events)
        total = (sum(path.edge_totals.values()) + path.root_cycles
                 + path.truncated_cycles)
        assert total == pytest.approx(path.length)

    def test_communication_edges_on_mt_path(self, analysis_parts):
        """A DSWP-pipelined loop's critical path crosses the SA at
        least once (produce -> consume), so communication edges exist
        in the event graph and are eligible for the path."""
        collector, _ = analysis_parts
        comm_deps = [dep for event in collector.events
                     for dep in event.deps
                     if dep[1] == "communication"]
        assert comm_deps, "MT trace must carry communication edges"
        path = critical_path(collector.events)
        # The path walks *executed* dependences only.
        assert set(path.edge_totals) <= {"register", "memory", "control",
                                         "communication", "order"}

    def test_describe_renders(self, analysis_parts):
        collector, _ = analysis_parts
        text = critical_path(collector.events).describe()
        assert "critical path:" in text
        assert "issue" in text


# ---------------------------------------------------------------------------
# The reference walk: events looked up by seq in a dict, the binding
# edge picked by a tuple key per dependence.

_KIND_RANK = {"communication": 5, "register": 4, "memory": 3,
              "control": 2, "order": 1}


def _binding_dep(event, by_seq):
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


def _reference_critical_path(events):
    """Every observable of the critical path, by the reference walk."""
    window = list(events)
    by_seq = {event.seq: event for event in window}
    current = window[0]
    length = current.complete
    for event in window:
        if event.complete > length or (event.complete == length
                                       and event.seq > current.seq):
            current = event
            length = event.complete
    path, kinds, edge_totals = [], [], {}
    truncated, truncated_cycles, root_cycles = False, 0.0, 0.0
    while current is not None:
        path.append(current)
        pred, kind, evicted = _binding_dep(current, by_seq)
        if pred is None:
            if evicted and current.deps:
                truncated = True
                truncated_cycles = current.complete
            else:
                root_cycles = current.complete
            kinds.append(None)
            break
        edge_totals[kind] = (edge_totals.get(kind, 0.0)
                             + max(0.0, current.complete - pred.complete))
        kinds.append(kind)
        current = pred
    path.reverse()
    kinds.reverse()
    return {"length": length, "instructions": len(path),
            "edge_kinds": kinds, "edge_totals": edge_totals,
            "root_cycles": root_cycles, "truncated": truncated,
            "truncated_cycles": truncated_cycles,
            "seqs": [event.seq for event in path]}


def _observables(path):
    return {"length": path.length, "instructions": path.instructions,
            "edge_kinds": path.edge_kinds, "edge_totals": path.edge_totals,
            "root_cycles": path.root_cycles, "truncated": path.truncated,
            "truncated_cycles": path.truncated_cycles,
            "seqs": [event.seq for event in path.events]}


class TestAgainstReferenceWalk:
    """The index walk over the ring's rows equals the dict-based walk
    over the materialised events, value and type, on real traces —
    whole, and cut by a 4 096- and a 64-event ring."""

    @pytest.mark.parametrize("technique", ["gremio", "dswp"])
    @pytest.mark.parametrize("limit", [64, 4096, DEFAULT_EVENT_LIMIT])
    def test_registry_traces(self, technique, limit):
        truncated = 0
        for name in workload_names():
            evaluation = evaluate_workload(
                get_workload(name), technique, scale="train", trace=True,
                trace_limit=limit)
            events = evaluation.trace.collector.events
            got = _observables(critical_path(events))
            want = _reference_critical_path(list(events))
            assert repr(got) == repr(want), name
            truncated += got["truncated"]
        if limit == 64:
            assert truncated, "no 64-event window cut the path"

    def test_hand_built_lists_match(self):
        """Unsorted input with a seq gap: the hole reads as evicted."""
        events = [
            _event(7, 9, 12.0, deps=[(6, "register", 9.0),
                                     (3, "order", 2.0)]),
            _event(3, 0, 2.0),
            _event(6, 2, 9.0, deps=[(4, "memory", 2.0),
                                    (3, "register", 2.0)]),
        ]
        assert repr(_observables(critical_path(events))) == repr(
            _reference_critical_path(events))
