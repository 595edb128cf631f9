"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "ks"])
        assert args.technique == "gremio"
        assert args.threads == 2
        assert not args.coco

    def test_shared_flags_are_consistent_across_subcommands(self):
        # --timings/--no-cache come from one shared parent parser.
        for command in (["run", "ks"], ["sweep"], ["report"], ["bench"],
                        ["serve"]):
            args = build_parser().parse_args(
                command + ["--timings", "--no-cache"])
            assert args.timings and args.no_cache, command
        # --jobs comes from another, shared by the fan-out commands.
        for command in (["sweep"], ["bench"]):
            args = build_parser().parse_args(command + ["--jobs", "3"])
            assert args.jobs == 3, command

    def test_simulator_is_not_an_option(self, capsys):
        """One production simulator: no command takes ``--backend``, no
        config object carries the choice, and a request's ``backend``
        enters neither its request key nor its cell key."""
        import dataclasses
        from repro.api import (EvaluateRequest, ProgramSpec, TuneRequest,
                               get_workload)
        from repro.pipeline import core, stages
        from repro.service.config import ServiceConfig
        for command in (["run", "ks"], ["sweep"], ["bench"],
                        ["trace", "ks"], ["tune"], ["serve"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--backend", "fast"])
            assert "unrecognized arguments: --backend" \
                in capsys.readouterr().err, command
        for config in (ServiceConfig, TuneRequest):
            assert "backend" not in {
                field.name for field in dataclasses.fields(config)}
        request = EvaluateRequest(program=ProgramSpec.registry("ks"))
        assert request.request_key() == EvaluateRequest(
            program=ProgramSpec.registry("ks"),
            backend="reference").request_key()
        workload = get_workload("ks")
        keys = set()
        for backend in ("fast", "reference"):
            ctx = core._evaluation_context(workload, scale="train",
                                           cache=False, backend=backend)
            core._walk(ctx, workload, ("normalize",))
            keys.add(stages.cell_key(ctx, True))
        assert len(keys) == 1

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.workers >= 0
        assert args.queue_limit >= 1
        assert args.request_timeout > 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FindMaxGpAndSwap" in out
        assert "adpcm_decoder" in out

    def test_machine(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "L1D" in out
        assert "141" in out

    def test_run_train_scale(self, capsys):
        assert main(["run", "ks", "--technique", "dswp", "--coco",
                     "--scale", "train"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "verified vs single-threaded" in out

    def test_dump_ir(self, capsys):
        assert main(["dump", "mpeg2enc"]) == 0
        out = capsys.readouterr().out
        assert "func dist1(" in out

    def test_dump_threads(self, capsys):
        assert main(["dump", "ks", "--technique", "dswp",
                     "--threads-code"]) == 0
        out = capsys.readouterr().out
        assert "; ===== thread 0 =====" in out
        assert "; ===== thread 1 =====" in out
        assert "produce" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "not-a-workload", "--scale", "train"])

    def test_unknown_workload_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'ks'"):
            main(["run", "kss", "--scale", "train"])

    def test_unknown_bench_spec_exits_2_with_the_known_ids(self, capsys):
        assert main(["bench", "--spec", "nope"]) == 2
        captured = capsys.readouterr()
        assert "unknown bench spec 'nope'" in captured.err
        assert "fig8_speedup" in captured.err  # the known ids
        assert "Traceback" not in captured.err and not captured.out

    def test_dot_cfg(self, capsys):
        assert main(["dot", "mpeg2enc"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_dot_threads(self, capsys):
        assert main(["dot", "ks", "--what", "threads",
                     "--technique", "dswp"]) == 0
        out = capsys.readouterr().out
        assert "t0 -> t1" in out

    def test_report_markdown_shape(self, capsys):
        assert main(["report", "--scale", "train"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| benchmark |")
        assert "geomean" in out
        # One row per workload plus header/rule/geomean.
        from repro.workloads import workload_names
        assert out.count("\n") == len(workload_names()) + 3

    def test_run_with_local_schedule(self, capsys):
        assert main(["run", "ks", "--technique", "dswp", "--coco",
                     "--scale", "train", "--schedule", "late"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_run_timings_table(self, capsys, tmp_path):
        """A cold ``run`` walks the stages; the same ``run`` again is
        one load of the cell's result entry, with the same rows."""
        from repro.pipeline import configure_cache, get_cache
        previous = get_cache()
        configure_cache(str(tmp_path / "cache"))
        try:
            assert main(["run", "ks", "--scale", "train",
                         "--timings"]) == 0
            cold = capsys.readouterr().out
            assert main(["run", "ks", "--scale", "train",
                         "--timings"]) == 0
            warm = capsys.readouterr().out
        finally:
            configure_cache(previous.directory, previous.enabled)
        assert "per-stage timings" in cold
        assert "simulate-mt" in cold
        assert "artifact cache:" in cold
        assert "simulate-mt" not in warm
        assert "artifact cache: 1 hits, 0 misses" in warm
        assert warm.split("per-stage timings")[0] \
            == cold.split("per-stage timings")[0]

    def test_sweep_prints_summary_and_telemetry(self, capsys):
        from repro.pipeline import configure_cache, get_cache
        previous = get_cache()
        try:
            assert main(["sweep", "--scale", "train", "--no-cache"]) == 0
        finally:
            configure_cache(previous.directory, previous.enabled)
        out = capsys.readouterr().out
        assert "geomean" in out
        assert "per-stage timings" in out
        assert "artifact cache:" in out

    def test_top_level_sweep_alias(self, capsys, tmp_path):
        from repro.pipeline import configure_cache, get_cache
        previous = get_cache()
        configure_cache(str(tmp_path / "cache"))
        try:
            assert main(["--sweep", "--scale", "train"]) == 0
            first = capsys.readouterr().out
            assert main(["--sweep", "--scale", "train"]) == 0
            second = capsys.readouterr().out
        finally:
            configure_cache(previous.directory, previous.enabled)
        # All three techniques swept, warm run hits the artifact cache.
        for technique in ("gremio", "gremio-flat", "dswp"):
            assert technique in first

        import re

        def cache_counts(text):
            match = re.search(r"artifact cache: (\d+) hits, (\d+) misses",
                              text)
            assert match, "no cache summary printed"
            return int(match.group(1)), int(match.group(2))

        _cold_hits, cold_misses = cache_counts(first)
        warm_hits, warm_misses = cache_counts(second)
        assert cold_misses > 0
        assert warm_hits > 0 and warm_misses == 0
