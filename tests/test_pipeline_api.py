"""Tests for the end-to-end pipeline API, stats, and reporting helpers."""

import pytest

from repro import (TECHNIQUES, evaluate_workload, get_workload,
                   parallelize)
from repro.api import make_partitioner, technique_config
from repro.machine import DEFAULT_CONFIG, run_mt_program
from repro.report import bar_chart, grouped_bar_chart, table
from repro.stats import (arithmetic_mean, breakdown_rows, geomean,
                         relative_communication)

from .helpers import build_counted_loop, build_nested_loops


class TestParallelizeApi:
    def test_profile_from_args(self):
        result = parallelize(build_counted_loop(), technique="dswp",
                             profile_args={"r_n": 20})
        assert result.program.n_threads == 2
        mt = run_mt_program(result.program, {"r_n": 35})
        assert mt.live_outs == {"r_s": sum(range(35))}

    def test_static_profile_fallback(self):
        result = parallelize(build_nested_loops(), technique="gremio")
        assert result.profile is not None
        mt = run_mt_program(result.program, {"r_n": 3, "r_m": 4})
        expected = sum(i * j for i in range(3) for j in range(4))
        assert mt.live_outs["r_s"] == expected

    def test_coco_attaches_result(self):
        result = parallelize(build_counted_loop(), technique="dswp",
                             coco=True, profile_args={"r_n": 20})
        assert result.coco_result is not None
        assert result.coco_result.iterations >= 1

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError):
            parallelize(build_counted_loop(), technique="magic")
        with pytest.raises(ValueError):
            make_partitioner("magic", DEFAULT_CONFIG)

    def test_technique_config_queue_sizes(self):
        assert technique_config("dswp").sa_queue_size == 32
        assert technique_config("gremio").sa_queue_size == 1
        assert technique_config("gremio-flat").sa_queue_size == 1

    def test_all_techniques_listed(self):
        for technique in TECHNIQUES:
            assert make_partitioner(technique, DEFAULT_CONFIG) is not None

    def test_alias_mode_threads_through(self):
        precise = parallelize(build_counted_loop(), technique="dswp",
                              profile_args={"r_n": 10},
                              alias_mode="annotated")
        coarse = parallelize(build_counted_loop(), technique="dswp",
                             profile_args={"r_n": 10}, alias_mode="none")
        assert precise.pdg.alias.mode == "annotated"
        assert coarse.pdg.alias.mode == "none"


class TestEvaluateWorkload:
    def test_evaluation_fields(self):
        ev = evaluate_workload(get_workload("mpeg2enc"), technique="dswp",
                               scale="train")
        assert ev.st_result.cycles > 0
        assert ev.mt_result.cycles > 0
        assert 0 <= ev.communication_fraction < 1
        assert (ev.computation_instructions
                + ev.communication_instructions
                == ev.mt_result.dynamic_instructions)

    def test_check_catches_mismatch(self):
        """The built-in verification compares live-outs and memory; it
        passes on real runs (a failure would raise)."""
        ev = evaluate_workload(get_workload("ks"), technique="gremio",
                               scale="train", check=True)
        assert ev.speedup > 0


class TestStats:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([2.0, 0.0, 8.0]) == pytest.approx(4.0)  # zeros skipped

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_relative_communication(self):
        def cell(n):
            return {"communication_instructions": float(n)}
        assert relative_communication(cell(50), cell(100)) == 50.0
        assert relative_communication(cell(5), cell(0)) == 100.0

    def test_breakdown_rows(self):
        ev = evaluate_workload(get_workload("ks"), technique="dswp",
                               scale="train")
        rows = breakdown_rows([ev])
        assert len(rows) == 1
        name, comp, comm = rows[0]
        assert name == "ks"
        assert comp + comm == pytest.approx(100.0)

    def test_queue_traffic(self):
        from repro.stats import queue_traffic
        ev = evaluate_workload(get_workload("ks"), technique="dswp",
                               scale="train")
        rows = queue_traffic(ev.parallelization.program, ev.mt_result)
        assert rows
        total = sum(messages for _, _, messages in rows)
        # Every message is one produce; produces + consumes = comm count.
        assert total * 2 == ev.communication_instructions
        assert all("T" in description for _, description, _ in rows)


class TestReport:
    def test_table_alignment(self):
        text = table(["a", "bb"], [("x", 1.5), ("long", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "1.50" in text
        assert "22" in text

    def test_bar_chart_scales_to_reference(self):
        text = bar_chart([("x", 50.0), ("y", 100.0)], reference=100.0,
                         width=10, unit="%")
        x_line, y_line = text.splitlines()
        assert x_line.count("#") == 5
        assert y_line.count("#") == 10

    def test_bar_chart_empty(self):
        assert bar_chart([], title="t") == "t"

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart([("k", [1.0, 2.0])], ["a", "b"])
        assert "k [a]" in text
        assert "k [b]" in text
