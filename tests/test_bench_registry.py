"""Tests for the bench-spec registry, the paper claims the specs carry,
and the ``python -m repro bench`` CLI flows (list, run, baseline update,
compare gate)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import EvaluateRequest, configure_cache, get_cache
from repro.bench import (FULL, HOLDS, NA, SMOKE, TIME_BAND, Claim, Metric,
                         all_specs, clear_memo, get_spec, register,
                         run_bench, spec_ids)
from repro.bench.specs.hostperf import COMPILE_PASSES, compile_passes
from repro.cli import main
from repro.machine import DEFAULT_CONFIG

ROOT = Path(__file__).parents[1]

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
            assert callable(spec.collect), spec.id
            for claim in spec.claims:
                assert re.fullmatch(r"[A-Z][A-Za-z0-9-]*/[a-z0-9-]+",
                                    claim.id), claim.id
                assert claim.paper and callable(claim.check), claim.id
        # Host wall times are not deterministic: the one spec that
        # judges no claim.
        assert [spec.id for spec in all_specs()
                if not spec.claims] == ["compile_time"]

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
        assert all(isinstance(cell, EvaluateRequest) for cell in cells)
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
        assert (metrics["machine/sa_queues"].value
                == DEFAULT_CONFIG.sa_queues)
        assert (metrics["machine/sa_access_latency"].value
                == DEFAULT_CONFIG.sa_access_latency)
        for metric in metrics.values():
            assert metric.tolerance == 0.0  # deterministic → exact


class TestClaims:
    def test_claim_ids_are_unique(self):
        ids = [claim.id for spec in all_specs() for claim in spec.claims]
        assert len(ids) == len(set(ids))

    def test_missing_metric_reads_na_never_a_default(self):
        claim = Claim("X-E1/misspelt", "paper",
                      lambda m: ("%d" % m["speedup/gremio/ks"], True))
        scan = Claim("X-E1/empty-scan", "paper",
                     lambda m: ("%d" % len(m.under("speedup/nope/")), True))
        metrics = {"speedup/dswp/ks": Metric(2.0)}
        assert claim.judge(metrics).status == NA
        assert "speedup/gremio/ks" in claim.judge(metrics).measured
        assert scan.judge(metrics).status == NA
        assert claim.judge({"speedup/gremio/ks": Metric(2.0)}).status \
            == HOLDS

    def test_every_claim_reads_metrics_its_spec_emits_at_full(self):
        """EXPERIMENTS.md's generated block is the full-scale scorecard
        (``benchmarks/`` fails when it is stale).  A claim reads ``n/a``
        exactly when a name it reads is not emitted, so at full scale
        every registered claim must appear there with another status."""
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        block = text.split("<!-- BEGIN GENERATED", 1)[1].split(
            "<!-- END GENERATED -->", 1)[0]
        statuses = dict(re.findall(r"^\| `([^`]+)` \|.*\| ([a-z/]+) \|$",
                                   block, re.MULTILINE))
        registered = {claim.id for spec in all_specs()
                      for claim in spec.claims}
        assert set(statuses) == registered
        assert NA not in statuses.values()


class TestMachineSweepsAreCells:
    """EXT-E2's and EXT-E5's machine variants are ``machine.*`` override
    requests: declared once, prewarmed on the pool, read by ``collect``."""

    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path):
        previous = get_cache()
        configure_cache(str(tmp_path / "cache"))
        clear_memo()
        yield
        clear_memo()
        configure_cache(previous.directory, previous.enabled)

    @pytest.mark.parametrize("spec_id", ["ablation_machine",
                                         "branch_prediction"])
    def test_collect_reads_only_prewarmed_cells(self, spec_id,
                                                monkeypatch):
        import repro.bench.harness as harness
        evaluate, read = harness.evaluate, []

        def recording(request, *args, **kwargs):
            read.append(request)
            return evaluate(request, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate", recording)
        spec = get_spec(spec_id)
        spec.collect(SMOKE)
        cells = spec.prewarm_cells(SMOKE)
        assert read and set(read) <= set(cells)
        assert all(name.startswith("machine.")
                   for request in read for name, _ in request.overrides)

    def test_no_bench_spec_passes_a_machine_config(self):
        """A machine variant is a request; ``evaluate_summary`` is left
        for what no request names (an explicit partition)."""
        import ast
        package = ROOT / "src" / "repro" / "bench"
        configured = sorted(
            "%s:%d" % (source.relative_to(package), node.lineno)
            for source in package.rglob("*.py")
            for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "evaluate_summary"
            and any(keyword.arg == "config" for keyword in node.keywords))
        assert configured == []


class TestCompileTime:
    def test_passes_make_two_thread_code(self):
        passes = compile_passes()
        assert list(passes) == list(COMPILE_PASSES)
        assert passes["pdg_build"]().arcs
        assert passes["gremio_partition"]().n_threads == 2
        assert passes["dswp_partition"]().n_threads == 2
        assert passes["mtcg_codegen"]().n_threads == 2
        assert passes["coco_optimize"]().iterations >= 1

    def test_metrics_are_banded_wall_times(self):
        metrics = get_spec("compile_time").collect(SMOKE)
        assert set(metrics) == {"seconds/" + name
                                for name in COMPILE_PASSES}
        for name, metric in metrics.items():
            assert metric.unit == "s", name
            assert metric.tolerance == TIME_BAND, name
            assert metric.value >= 0.0, name


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

    def test_derived_counts_match_their_inputs(self):
        """``wins/*`` and ``placer_gain/*`` recomputed here from the
        speedups and cycles the same specs emit (the claims over them
        trust the spec's own arithmetic)."""
        results = run_bench(SMOKE, spec_ids=["gremio_vs_dswp",
                                             "topology_scaling"])
        versus = {name: metric.value for name, metric
                  in results.specs["gremio_vs_dswp"].metrics.items()}
        names = [name.split("/", 2)[2] for name in versus
                 if name.startswith("speedup/gremio/")]
        assert len(names) == 11
        for technique, other in (("gremio", "dswp"), ("dswp", "gremio")):
            leads = [name for name in names
                     if versus["speedup/%s/%s" % (technique, name)]
                     > versus["speedup/%s/%s" % (other, name)] + 0.02]
            assert versus["wins/" + technique] == len(leads), technique
        placed = {name: metric.value for name, metric
                  in results.specs["topology_scaling"].metrics.items()}
        gains = [name for name in placed if name.startswith("placer_gain/")]
        assert gains
        for name in gains:
            run = name[len("placer_gain/"):]
            assert placed[name] == (placed["placer_cycles/%s/identity" % run]
                                    - placed["placer_cycles/%s/affinity"
                                             % run]), run


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

        def counted(spec_id, prefix):
            return len([name for name in warm.specs[spec_id].metrics
                        if name.startswith(prefix)])

        cells = {cell for spec in all_specs()
                 for cell in spec.prewarm_cells(SMOKE)}
        tuned = warm.specs["tune_smoke"].metrics[
            "candidates_evaluated"].value
        # The one evaluation no request names — GREMIO's region-grouped
        # partition — is one entry load each, like a cell.
        summaries = counted("ablation_hierarchy", "speedup/grouped/")
        stages = warm.telemetry.stages
        assert stages["evaluation"].cache_hits \
            == len(cells) + tuned + summaries
        assert stages["evaluation"].runs == 0
        # Only trace_attribution's evaluations walk every stage (an entry
        # cannot replay an event stream); the specs that read a generated
        # program walk the parallelize stages.  Warm, every walk loads.
        traced = counted("trace_attribution", "critical_path_cycles/")
        assert traced == 4
        walks = stages["profile"].cache_hits - traced
        assert walks > 0
        for stage in ("profile", "pdg", "partition", "mtcg"):
            record = stages[stage]
            assert (record.runs, record.cache_hits) \
                == (0, traced + walks), stage
        record = stages["simulate-st"]
        assert (record.runs, record.cache_hits) == (0, traced)
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
        assert "claims" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("fig7_comm_reduction "))
        assert row.split()[-1] == str(
            len(get_spec("fig7_comm_reduction").claims))

    def test_run_writes_schema_versioned_document(self, tmp_path,
                                                  capsys):
        out = self.out(tmp_path)
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out]) == 0
        document = json.loads(Path(out).read_text())
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
        document = json.loads(Path(baseline).read_text())
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
        written = Path(summary).read_text()
        assert "Benchmark regression gate" in written
        assert "`workloads/count`" in written

    def test_flipped_claim_fails_the_gate(self, tmp_path, capsys):
        out = self.out(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--baseline", baseline,
                     "--update-baseline"]) == 0
        printed = capsys.readouterr().out
        assert "| `COCO-Fig6/eleven-functions` |" in printed  # scorecard
        document = json.loads(Path(baseline).read_text())
        metric = document["specs"]["fig6_setup"]["metrics"][
            "claim/COCO-Fig6/eleven-functions"]
        assert (metric["value"], metric["tolerance"]) == (1, 0.0)
        metric["value"] = -1
        with open(baseline, "w") as handle:
            json.dump(document, handle)
        assert main(["bench", "--smoke", "--spec", "fig6_setup",
                     "--out", out, "--compare", baseline]) == 1
        printed = capsys.readouterr().out
        assert "`claim/COCO-Fig6/eleven-functions`" in printed
        assert "1 regression" in printed

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
        assert json.loads(Path(baseline).read_text())["mode"] == "smoke"


def test_bench_stays_lazily_imported():
    """The CLI, the facade, the daemon and the cluster load
    ``repro.bench`` only when a bench command runs."""
    code = ("import sys, repro.cli, repro.api, repro.service, "
            "repro.cluster; print(sorted(m for m in sys.modules "
            "if m.startswith('repro.bench')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ,
                                  PYTHONPATH=str(ROOT / "src"))).stdout
    assert out.strip() == "[]"
