"""Tests for the differential fuzzing driver (:mod:`repro.check.fuzz`):
the CPython-to-simulator chain, its sketch rendering, shrinking, and
replayable corpus."""

import json
import random

import pytest

import repro.check.fuzz as fuzz_mod
from repro.check.fuzz import FuzzReport, _Cell, _shrink, replay, run_fuzz
from repro.check.generate import (ProgramSketch, random_sketch,
                                  render_program, shrink_candidates,
                                  sketch_from_json, sketch_size,
                                  sketch_to_json, sketch_to_python)
from repro.ir.printer import format_function


def _patch_simulator(monkeypatch, should_flip):
    """Make the production core report ``__ret0`` off by one on every
    program ``should_flip`` accepts."""
    real = fuzz_mod.simulate_program_fast

    def flipped(program, args, memory, config):
        result = real(program, args, memory, config=config)
        if should_flip(program):
            result.live_outs["__ret0"] += 1
        return result

    monkeypatch.setattr(fuzz_mod, "simulate_program_fast", flipped)


class TestRunFuzz:
    def test_clean_run_with_corpus(self, tmp_path):
        report = run_fuzz(seed=0, iterations=3, corpus_dir=str(tmp_path))
        assert report.ok, [f.detail for f in report.failures]
        # 2 techniques x 2 coco modes + 2 random partitions x 2 coco.
        assert report.cells_run == 3 * 8
        counters = report.counters
        assert counters["frontend_agreed"] == 3 * 3  # every arg set
        assert counters["oracle_ok"] == report.cells_run
        assert counters["programs_validated"] == report.cells_run
        assert (counters["simulator_agreed"]
                + counters.get("simulator_both_raised", 0)
                == report.cells_run)
        data = json.loads((tmp_path / "report-seed0.json").read_text())
        assert data["failures"] == []
        assert data["cells_run"] == report.cells_run
        assert data["counters"] == report.counters

    def test_deterministic_in_seed(self):
        first = run_fuzz(seed=7, iterations=2)
        second = run_fuzz(seed=7, iterations=2)
        assert first.counters == second.counters
        assert first.cells_run == second.cells_run

    def test_injected_failure_is_persisted_and_shrunk(self, monkeypatch,
                                                      tmp_path):
        """Force every cell to fail: the driver must shrink, record the
        failure, and write both the JSON reproducer and the Python
        source into the corpus."""
        def always_fail(function, expected, arg_sets, cell, report):
            return "synthetic", "injected"

        monkeypatch.setattr(fuzz_mod, "_check_cell", always_fail)
        report = run_fuzz(seed=0, iterations=1,
                          corpus_dir=str(tmp_path))
        assert not report.ok
        assert len(report.failures) == 8
        failure = report.failures[0]
        assert failure.kind == "synthetic"
        assert failure.shrunk_size <= failure.original_size
        stems = {p.name for p in tmp_path.iterdir()}
        assert "report-seed0.json" in stems
        reproducers = sorted(name for name in stems
                             if name.startswith("failure-seed0-000-")
                             and name.endswith(".json"))
        assert len(reproducers) == 8
        assert any(name.endswith(".py") for name in stems)
        payload = json.loads((tmp_path / reproducers[0]).read_text())
        assert payload["kind"] == "synthetic"
        assert "sketch" in payload and len(payload["arg_sets"]) == 3

    def test_simulator_divergence_is_reported(self, monkeypatch):
        """The production core is the last link of the chain: a wrong
        ``__ret`` live-out there is a failure of that cell even though
        the frontend and the oracle agree."""
        _patch_simulator(monkeypatch, lambda program: True)
        report = run_fuzz(seed=1, iterations=1)
        assert report.cells_run == 8
        assert [f.kind for f in report.failures] \
            == ["simulator-divergence"] * 8
        assert report.counters["oracle_ok"] == 8
        assert "return mismatch" in report.failures[0].detail

    def test_inputs_where_cpython_raises_agree_when_every_side_raises(self):
        """Squaring 50 sixteen times overflows ``float(r0)`` in the
        epilogue: CPython, the IR and the simulator all raise, which
        counts as agreement, and the oracle has nothing to compare."""
        sketch = ProgramSketch(
            [("loop", 4, [("loop", 4, [("alu", "mul", 0, 0, 0)])])])
        arg_sets = [{"in0": 50, "in1": 1, "memory": [0] * 32},
                    {"in0": 1, "in1": 1, "memory": [0] * 32}]
        for cell in (_Cell("gremio", "gremio", None, 2, True, 1),
                     _Cell("random-0", None, 5, 3, False, 2)):
            report = FuzzReport(0, 0)
            assert fuzz_mod._evaluate(sketch, arg_sets, cell, report) \
                is None
            assert report.counters["frontend_both_raised"] == 1
            assert report.counters["frontend_agreed"] == 1
            assert report.counters["oracle_skipped"] == 1
            assert report.counters["simulator_both_raised"] == 1

    def test_frontend_divergence_is_flagged(self, monkeypatch):
        """A deliberately wrong compiled program must be caught against
        CPython before any cell runs."""
        real = fuzz_mod.compile_source

        def miscompile(source, name=None):
            return real(source.replace("return (r0,", "return (r0 + 1,"),
                        name=name)

        monkeypatch.setattr(fuzz_mod, "compile_source", miscompile)
        report = run_fuzz(seed=3, iterations=1)
        assert report.cells_run == 0
        [failure] = report.failures
        assert failure.kind == "frontend-divergence"
        assert failure.label == "frontend"
        assert "return mismatch" in failure.detail


class TestShrinking:
    def test_candidates_are_strictly_smaller(self):
        rng = random.Random(3)
        sketch = random_sketch(rng, depth=2)
        size = sketch_size(sketch)
        candidates = list(shrink_candidates(sketch))
        assert candidates
        for candidate in candidates:
            assert sketch_size(candidate) < size

    def test_greedy_shrink_reaches_minimal_reproducer(self, monkeypatch):
        """With a synthetic predicate ('fails iff a store exists
        anywhere'), greedy deletion must converge to the single store
        statement."""
        def has_store(statements):
            for statement in statements:
                if statement[0] == "store":
                    return True
                if statement[0] == "if" and (has_store(statement[2])
                                             or has_store(statement[3])):
                    return True
                if statement[0] == "loop" and has_store(statement[2]):
                    return True
            return False

        def fake_evaluate(sketch, arg_sets, cell, report):
            if has_store(sketch.statements):
                return "synthetic", "store present"
            return None

        monkeypatch.setattr(fuzz_mod, "_evaluate", fake_evaluate)
        sketch = ProgramSketch([
            ("alu", "add", 0, 1, 2),
            ("loop", 3, [("movi", 2, 5),
                         ("if", 1, [("store", 0, 1)], [("movi", 3, 1)])]),
            ("movi", 4, -2),
        ])
        cell = _Cell("synthetic", None, 1, 2, False, 32)
        report = FuzzReport(0, 0)
        shrunk, failure = _shrink(sketch, [], cell,
                                  ("synthetic", "store present"), report)
        assert sketch_size(shrunk) == 1
        assert shrunk.statements[0][0] == "store"
        assert failure == ("synthetic", "store present")
        assert report.shrink_attempts > 0


class TestCorpusReplay:
    def test_random_partition_reproducer_replays_from_json(
            self, monkeypatch, tmp_path):
        """A reproducer holds everything needed to rebuild its cell:
        with a fault that depends on the partition (odd queue counts),
        every random-partition failure read back from the corpus fails
        again the same way."""
        _patch_simulator(monkeypatch,
                         lambda program: program.n_queues % 2 == 1)
        report = run_fuzz(seed=1, iterations=1, corpus_dir=str(tmp_path))
        random_failures = [f for f in report.failures
                           if f.cell.technique is None]
        assert random_failures
        for failure in random_failures:
            path = tmp_path / (failure.stem + ".json")
            payload = json.loads(path.read_text())
            assert payload["cell"]["partition_seed"] \
                == failure.cell.partition_seed
            assert payload["arg_sets"][0]["memory"]
            outcome = replay(payload)
            assert outcome is not None and outcome[0] == payload["kind"]

    def test_two_seeds_share_one_corpus(self, monkeypatch, tmp_path):
        def always_fail(function, expected, arg_sets, cell, report):
            return "synthetic", "injected"

        monkeypatch.setattr(fuzz_mod, "_check_cell", always_fail)
        for seed in (0, 1):
            run_fuzz(seed=seed, iterations=1, corpus_dir=str(tmp_path))
        names = {path.name for path in tmp_path.iterdir()}
        assert {"report-seed0.json", "report-seed1.json"} <= names
        for seed in (0, 1):
            assert len([name for name in names
                        if name.startswith("failure-seed%d-" % seed)
                        and name.endswith(".json")]) == 8


class TestSketchPersistence:
    def test_json_roundtrip_preserves_structure(self):
        for seed in range(10):
            sketch = random_sketch(random.Random(seed), depth=2)
            restored = sketch_from_json(sketch_to_json(sketch))
            assert restored.statements == sketch.statements

    def test_json_roundtrip_preserves_rendering(self):
        sketch = random_sketch(random.Random(42), depth=2)
        restored = sketch_from_json(sketch_to_json(sketch))
        assert (format_function(render_program(restored))
                == format_function(render_program(sketch)))


class TestSketchToPython:
    def test_rendered_sketches_are_diverse_and_deterministic(self):
        rng = random.Random(11)
        sources = {sketch_to_python(random_sketch(rng, depth=2))
                   for _ in range(10)}
        assert len(sources) > 1
        rng_a, rng_b = random.Random(5), random.Random(5)
        assert (sketch_to_python(random_sketch(rng_a, depth=2))
                == sketch_to_python(random_sketch(rng_b, depth=2)))


class TestFuzzCLI:
    def test_fuzz_command_exit_code_and_report(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["fuzz", "--seed", "0", "--iterations", "2",
                     "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: seed 0" in out
        assert "simulator_agreed" in out
        assert (tmp_path / "report-seed0.json").exists()

    def test_frontend_option_is_gone(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--frontend"])
        assert info.value.code == 2

    @pytest.mark.slow
    @pytest.mark.fuzz
    def test_smoke_profile(self, tmp_path):
        """The CI smoke configuration (seed 0), scaled down: zero
        failures is the acceptance bar."""
        report = run_fuzz(seed=0, iterations=10,
                          corpus_dir=str(tmp_path))
        assert report.ok, [f.detail for f in report.failures]
