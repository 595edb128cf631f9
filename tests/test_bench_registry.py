"""Tests for the bench-spec registry and the ``python -m repro bench``
CLI flows (list, run, baseline update, compare gate)."""

import json
from pathlib import Path

import pytest

from repro.api import configure_cache, get_cache
from repro.bench import (FULL, SMOKE, all_specs, clear_memo, get_spec,
                         register, run_bench, spec_ids)
from repro.cli import main
from repro.pipeline import MatrixCell

EXPECTED_SPECS = [
    "ablation_hierarchy",
    "ablation_machine",
    "branch_prediction",
    "compile_time",
    "ext_scaling",
    "fig1_breakdown",
    "fig6_setup",
    "fig7_comm_reduction",
    "fig8_speedup",
    "gremio_speedup",
    "gremio_vs_dswp",
    "memory_disambiguation",
    "overhead_breakdown",
    "profile_sensitivity",
    "region_selection",
    "scheduler_interaction",
    "synthetic_frontend",
    "topology_scaling",
    "trace_attribution",
    "tune_smoke",
]


class TestRegistry:
    def test_all_twenty_specs_registered(self):
        assert spec_ids() == EXPECTED_SPECS

    def test_every_spec_is_complete(self):
        for spec in all_specs():
            assert spec.title, spec.id
            assert spec.source.startswith("benchmarks/bench_"), spec.id
            assert (Path(__file__).parents[1] / spec.source).is_file(), \
                spec.source
            assert callable(spec.collect), spec.id

    def test_unknown_spec_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="fig8_speedup"):
            get_spec("nonsense")

    def test_duplicate_registration_rejected(self):
        spec = get_spec("fig6_setup")
        with pytest.raises(ValueError, match="duplicate"):
            register(spec)

    def test_prewarm_cells_are_matrix_cells(self):
        cells = get_spec("fig8_speedup").prewarm_cells(SMOKE)
        assert cells
        assert all(isinstance(cell, MatrixCell) for cell in cells)
        assert all(cell.scale == SMOKE.scale for cell in cells)

    def test_modes(self):
        assert SMOKE.is_smoke and not FULL.is_smoke
        assert SMOKE.pick(["a", "b", "c"]) == ["a", "b"]
        assert FULL.pick(["a", "b", "c"]) == ["a", "b", "c"]
        assert SMOKE.pick(["a", "b", "c"], limit=1) == ["a"]

    def test_cheap_spec_collect(self):
        """fig6_setup is pure configuration — no simulation — and is
        the canary that collect() returns a well-formed MetricMap."""
        metrics = get_spec("fig6_setup").collect(SMOKE)
        assert metrics["workloads/count"].value == 11
        assert metrics["machine/sa_queues"].value == 256
        for metric in metrics.values():
            assert metric.tolerance == 0.0  # deterministic → exact


class TestRunBench:
    def test_single_spec_run(self):
        results = run_bench(SMOKE, spec_ids=["fig6_setup"])
        assert results.mode == "smoke"
        assert set(results.specs) == {"fig6_setup"}
        assert results.total_seconds >= 0.0
        assert results.host["python"]
        assert results.telemetry is not None

    def test_unknown_spec_id_raises(self):
        with pytest.raises(KeyError):
            run_bench(SMOKE, spec_ids=["nope"])


def _exact(results):
    """The deterministic values of a run — what the baseline gate pins."""
    return {(spec_id, name): metric.value
            for spec_id, name, metric in results.metric_items()
            if metric.tolerance == 0.0}


class TestSmokeOnTheResultEntry:
    """``repro bench`` reads numbers, so it takes them from the
    cell-level result entry like ``sweep`` and ``tune``: a warm run is
    entry loads, and ``--jobs`` changes nothing but the wall time."""

    @pytest.fixture(autouse=True)
    def isolated(self):
        previous = get_cache()
        clear_memo()
        yield
        clear_memo()
        configure_cache(previous.directory, previous.enabled)

    def test_warm_run_is_one_entry_load_per_cell(self, tmp_path):
        configure_cache(str(tmp_path / "cache"))
        cold = run_bench(SMOKE)
        clear_memo()  # a new process starts without the memo
        warm = run_bench(SMOKE)
        assert _exact(warm) == _exact(cold)
        assert len(_exact(warm)) > 280

        cells = {cell for spec in all_specs()
                 for cell in spec.prewarm_cells(SMOKE)}
        tuned = warm.specs["tune_smoke"].metrics[
            "candidates_evaluated"].value
        stages = warm.telemetry.stages
        assert stages["evaluation"].cache_hits == len(cells) + tuned
        assert stages["evaluation"].runs == 0
        # Only trace_attribution's evaluations walk the stages: an entry
        # cannot replay an event stream.
        traced = len(warm.specs["trace_attribution"].metrics) // 3
        assert traced == 4
        for stage in ("profile", "pdg", "partition", "mtcg",
                      "simulate-st"):
            record = stages[stage]
            assert (record.runs, record.cache_hits) == (0, traced), stage
        assert stages["simulate-mt"].runs == traced
        assert warm.cache["misses"] == warm.cache["stores"] == 0

    def test_jobs_change_no_value_cold_or_warm(self, tmp_path):
        configure_cache(str(tmp_path / "serial"))
        serial = _exact(run_bench(SMOKE, jobs=1))
        configure_cache(str(tmp_path / "pooled"))
        for _cache_state in ("cold", "warm"):
            clear_memo()
            assert _exact(run_bench(SMOKE, jobs=2)) == serial


class TestBenchCli:
    def out(self, tmp_path):
        return str(tmp_path / "BENCH_RESULTS.json")

    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for spec_id in ("fig8_speedup", "compile_time", "ext_scaling"):
            assert spec_id in out

    def test_run_writes_schema_versioned_document(self, tmp_path,
                                                  capsys):
        out = self.out(tmp_path)
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out]) == 0
        document = json.loads(open(out).read())
        assert document["schema"] == "repro.bench/v1"
        assert document["mode"] == "smoke"
        assert "fig6_setup" in document["specs"]
        assert "1 specs" in capsys.readouterr().out

    def test_compare_clean_then_perturbed(self, tmp_path, capsys):
        out = self.out(tmp_path)
        baseline = str(tmp_path / "baselines" / "baseline.json")
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--baseline", baseline,
                     "--update-baseline"]) == 0
        # Clean HEAD vs its own baseline: gate passes.
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--compare", baseline]) == 0
        capsys.readouterr()
        # Perturb one exact-tolerance metric: gate fails, table names it.
        document = json.loads(open(baseline).read())
        document["specs"]["fig6_setup"]["metrics"][
            "workloads/count"]["value"] = 99
        with open(baseline, "w") as handle:
            json.dump(document, handle)
        summary = str(tmp_path / "summary.md")
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--compare", baseline,
                     "--summary", summary]) == 1
        printed = capsys.readouterr().out
        assert "`workloads/count`" in printed
        assert "regression" in printed
        written = open(summary).read()
        assert "Benchmark regression gate" in written
        assert "`workloads/count`" in written

    def test_compare_missing_baseline(self, tmp_path, capsys):
        out = self.out(tmp_path)
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out,
                     "--compare", str(tmp_path / "absent.json")]) == 1
        assert "--update-baseline" in capsys.readouterr().out

    def test_compare_schema_mismatch(self, tmp_path, capsys):
        out = self.out(tmp_path)
        stale = str(tmp_path / "stale.json")
        with open(stale, "w") as handle:
            json.dump({"schema": "repro.bench/v0", "mode": "smoke"},
                      handle)
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--compare", stale]) == 1
        assert "cannot compare" in capsys.readouterr().out

    def test_update_baseline_env_var(self, tmp_path, monkeypatch,
                                     capsys):
        monkeypatch.setenv("REPRO_UPDATE_BASELINE", "1")
        baseline = str(tmp_path / "baseline.json")
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", self.out(tmp_path),
                     "--baseline", baseline]) == 0
        assert "baseline updated" in capsys.readouterr().out
        assert json.loads(open(baseline).read())["mode"] == "smoke"
