"""Tests for dynamic critical-path extraction: handcrafted dependence
chains with known answers, the telescoping identity
``sum(edge_totals) + root_cycles + truncated_cycles == length``, and
communication edges showing up on real MT traces."""

import pytest

from repro.analysis import build_pdg
from repro.interp import run_function
from repro.machine import DEFAULT_CONFIG, simulate_program
from repro.mtcg import generate
from repro.partition.dswp import DSWPPartitioner
from repro.trace import InstructionEvent, TraceCollector, critical_path

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
