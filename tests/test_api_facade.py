"""The ``repro.api`` facade: typed requests, schema versioning,
idempotency keys, deprecation shims, and the layering covenant
(cli/bench/service import the pipeline only through the facade, and no
production path imports the two oracles)."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.pipeline
from repro.api import (API_SCHEMA_VERSION, EvaluateRequest, EvaluateResult,
                       ProgramSpec, RequestValidationError,
                       configure_cache, evaluate, evaluate_workload)
from repro.workloads import get_workload


def _request(**overrides):
    fields = dict(program=ProgramSpec.registry("ks"),
                  technique="gremio", n_threads=2, scale="train")
    fields.update(overrides)
    return EvaluateRequest(**fields)


class TestEvaluateRequest:
    def test_round_trips_through_dict(self):
        request = _request(coco=True, alias_mode="provenance")
        again = EvaluateRequest.from_dict(request.as_dict())
        assert again == request
        assert again.schema_version == API_SCHEMA_VERSION

    def test_from_dict_rejects_unknown_fields(self):
        body = _request().as_dict()
        body["threds"] = 4  # typo must 400, not silently default
        with pytest.raises(RequestValidationError, match="threds"):
            EvaluateRequest.from_dict(body)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(RequestValidationError, match="JSON object"):
            EvaluateRequest.from_dict(["ks"])

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(program=ProgramSpec.registry("no-such-workload")),
         "unknown workload"),
        (dict(technique="magic"), "unknown technique"),
        (dict(n_threads=0), "n_threads"),
        (dict(n_threads=True), "n_threads"),
        (dict(scale="huge"), "unknown scale"),
        (dict(alias_mode="psychic"), "unknown alias_mode"),
        (dict(local_schedule="sometime"), "local_schedule"),
        (dict(schema_version="repro.api/v999"), "schema mismatch"),
    ])
    def test_validate_rejects(self, overrides, fragment):
        with pytest.raises(RequestValidationError, match=fragment):
            _request(**overrides).validate()

    def test_request_key_is_stable_and_discriminating(self):
        base = _request()
        assert base.request_key() == _request().request_key()
        assert base.request_key() != _request(n_threads=4).request_key()
        assert base.request_key() != _request(coco=True).request_key()
        assert base.request_key() != _request(check=False).request_key()
        assert re.fullmatch(r"[0-9a-f]{16,}", base.request_key())


class TestEvaluateResult:
    def test_round_trips_through_dict(self):
        result = EvaluateResult(request=_request(),
                                metrics={"speedup": 1.25},
                                fingerprints={"pdg": "ab12"},
                                stale=True, stale_age_seconds=3.5)
        again = EvaluateResult.from_dict(result.as_dict())
        assert again == result
        assert again.speedup == 1.25

    def test_from_dict_rejects_schema_mismatch(self):
        document = EvaluateResult(request=_request()).as_dict()
        document["schema_version"] = "repro.api/v0"
        with pytest.raises(RequestValidationError, match="schema"):
            EvaluateResult.from_dict(document)

    def test_marked_copies_without_mutating(self):
        result = EvaluateResult(request=_request())
        marked = result.marked(stale=True, stale_age_seconds=7.0)
        assert marked.stale and marked.stale_age_seconds == 7.0
        assert not result.stale and result.stale_age_seconds is None


class TestFacadeEvaluate:
    def test_matches_evaluate_workload(self, tmp_path):
        previous = configure_cache(str(tmp_path / "artifacts"))
        try:
            result = evaluate(_request())
            direct = evaluate_workload(get_workload("ks"),
                                       technique="gremio", n_threads=2,
                                       scale="train")
        finally:
            configure_cache(previous.directory, previous.enabled)
        assert result.schema_version == API_SCHEMA_VERSION
        assert result.speedup == pytest.approx(direct.speedup)
        assert result.metrics["mt_cycles"] == float(direct.mt_result.cycles)
        assert result.fingerprints  # per-stage cache keys present

    def test_evaluate_workload_rejects_unknown_keywords(self):
        with pytest.raises(TypeError, match="n_thread"):
            evaluate_workload(get_workload("ks"), "gremio", n_thread=2)

    def test_rejects_invalid_before_running(self):
        with pytest.raises(RequestValidationError):
            evaluate(_request(
                program=ProgramSpec.registry("no-such-workload")))


class TestDeprecationShims:
    """The 1.2 shims (``repro.Telemetry``, ``repro.pipeline
    .evaluate_workload``, ...) served their one release and are gone:
    the names live on ``repro.api`` only."""

    TOP_LEVEL = ("ArtifactCache", "Telemetry", "configure_cache",
                 "get_cache", "global_telemetry", "make_partitioner",
                 "normalize", "technique_config")
    PIPELINE = ("Evaluation", "Parallelization", "evaluate_workload",
                "parallelize", "evaluate_matrix", "make_partitioner",
                "normalize", "technique_config", "_check_results")

    def test_top_level_shims_are_retired(self):
        for name in self.TOP_LEVEL:
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert getattr(repro.api, name) is not None

    def test_pipeline_shims_are_retired(self):
        for name in self.PIPELINE:
            with pytest.raises(AttributeError):
                getattr(repro.pipeline, name)

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol
        with pytest.raises(AttributeError):
            repro.pipeline.no_such_symbol

    def test_stable_surface_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert callable(repro.evaluate_workload)
            assert callable(repro.pipeline.configure_cache)

    def test_dir_does_not_list_retired_names(self):
        assert not set(self.TOP_LEVEL) & set(dir(repro))
        assert not set(self.PIPELINE) & set(dir(repro.pipeline))


class TestLayeringCovenant:
    """cli, bench, service, and cluster must consume the pipeline only
    via the facade — a direct ``repro.pipeline`` import outside
    ``repro.api`` (and the pipeline itself) is a layering regression."""

    FORBIDDEN = re.compile(
        r"^\s*(from\s+(repro)?\.*pipeline[.\s]|import\s+repro\.pipeline)",
        re.MULTILINE)

    def _sources(self):
        package = Path(repro.__file__).parent
        yield package / "cli.py"
        for sub in ("bench", "service", "cluster"):
            yield from sorted((package / sub).rglob("*.py"))

    def test_no_direct_pipeline_imports(self):
        offenders = []
        for source in self._sources():
            if self.FORBIDDEN.search(source.read_text()):
                offenders.append(source.name)
        assert not offenders, (
            "direct repro.pipeline imports outside the facade: %s"
            % ", ".join(offenders))

    @staticmethod
    def _holders(pattern):
        """The library modules whose text matches ``pattern``."""
        package = Path(repro.__file__).parent
        return sorted(
            str(source.relative_to(package))
            for source in package.rglob("*.py")
            if re.search(pattern, source.read_text(), re.MULTILINE))

    def test_one_wire_layer(self):
        """One module serves HTTP, one module dials it, the body cap is
        defined once: a second copy of any of them is a regression to
        the per-daemon handler factories."""
        package = Path(repro.__file__).parent
        holders = self._holders
        assert holders(r"\bBaseHTTPRequestHandler\b") == ["service/wire.py"]
        assert holders(r"\bThreadingHTTPServer\b") == ["service/wire.py"]
        assert holders(r"^MAX_BODY_BYTES\s*=") == ["service/wire.py"]
        assert holders(r"\bHTTPS?Connection\(") == ["pipeline/store.py"]
        assert holders(r"\burlopen\(|^\s*(import|from)\s+urllib\.request") \
            == []
        assert holders(r"^\s*(import|from)\s+http\.client") \
            == ["pipeline/store.py"]
        assert holders(r"^\s*(import|from)\s+http\.server") \
            == ["service/wire.py"]
        # A daemon parses a request once: the front end leaves it to
        # the service's shared intake.
        daemon = (package / "service" / "daemon.py").read_text()
        assert "from_dict" not in daemon

    def test_one_partition_path(self):
        """MTCG and COCO run in the staged pipeline's stages, and are
        imported elsewhere only by the host-time spec that times them as
        passes; partitioners run there and in the partition package.  A
        partition -> COCO -> MTCG chain anywhere else bypasses the
        cache, telemetry and validators: give the pipeline the
        assignment instead (``parallelize(..., partition=...)``).
        ``pipeline/core.py`` imports only the ``CocoResult`` type."""
        assert self._holders(
            r"^\s*from\s+[.\w]*\b(mtcg|coco)(\.codegen|\.driver)?\s+import"
            r"\s+(\([^)]*|[^(\n]*)\b(generate|optimize)\b") \
            == ["bench/specs/hostperf.py", "pipeline/stages.py"]
        assert self._holders(r"^from \.\.coco\.driver import CocoResult$") \
            == ["pipeline/core.py"]
        callers = self._holders(r"\.partition\(\s*[\w.]+\s*,")
        assert [name for name in callers
                if not name.startswith(("pipeline/", "partition/"))] \
            == ["bench/specs/hostperf.py"]

    #: The library modules allowed to import an oracle — the step
    #: interpreter (``interp/step_oracle.py``) or the reference timed
    #: loop (``machine/timing_oracle.py``): the differential checker,
    #: the pipeline's ``backend="reference"`` arm (on use only), the
    #: inline-IR reference, and the oracles themselves.
    ORACLE_IMPORTERS = {"check/differential_backend.py",
                        "interp/step_oracle.py",
                        "machine/timing_oracle.py", "pipeline/stages.py",
                        "workloads/inline.py"}

    def test_oracles_are_fenced(self):
        package = Path(repro.__file__).parent
        importers = {}
        for source in package.rglob("*.py"):
            tree = ast.parse(source.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [(node.module or "") + "." + alias.name
                             for alias in node.names] + [node.module or ""]
                else:
                    continue
                if any(part in ("step_oracle", "timing_oracle")
                       for name in names for part in name.split(".")):
                    importers.setdefault(
                        str(source.relative_to(package)), []).append(
                            node in tree.body)
        assert set(importers) <= self.ORACLE_IMPORTERS, sorted(importers)
        assert importers["pipeline/stages.py"] == [False]  # lazy

    def test_product_imports_load_no_oracle(self):
        """A fresh interpreter that imports the product packages and
        runs one default evaluation has loaded neither oracle."""
        probe = ("import sys, repro.api, repro.machine, repro.executor, "
                 "repro.interp\n"
                 "from repro.api import evaluate_workload, get_workload\n"
                 "evaluate_workload(get_workload('ks'), scale='train', "
                 "cache=False, trace=True)\n"
                 "print(sorted(m for m in sys.modules "
                 "if m.endswith('_oracle')))")
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(repro.__file__).parent.parent)},
            check=True)
        assert completed.stdout.strip() == "[]"

    def test_facade_exports_the_classic_surface(self):
        for name in ("parallelize", "evaluate_workload", "evaluate_many",
                     "EvaluateRequest", "configure_cache", "ensure_cache",
                     "get_cache", "Telemetry", "global_telemetry"):
            assert name in repro.api.__all__, name
            assert getattr(repro.api, name) is not None
        # Removed in 1.3 with the engine they belonged to, and in 1.4
        # (``MatrixCell``: the request is the cell) — no shim.
        for name in ("evaluate_matrix", "build_cells", "pool_payload",
                     "run_cell_payload", "MatrixCell"):
            assert name not in repro.api.__all__, name
            assert not hasattr(repro.api, name), name
            assert not hasattr(repro, name), name

    def test_one_batch_engine(self):
        """One pool, one materialising call, one cell type:
        ``api/facade.py`` is the only library module that fans
        evaluations across processes (the daemon's supervised pool
        aside), and its ``evaluate_many`` pools traced requests like
        any other; the CLI's ``trace`` is the only caller of the
        materialising ``evaluate_workload`` outside the pipeline; and
        the engine deleted in 1.3 and the cell type deleted in 1.4 are
        spelled nowhere."""
        import inspect
        assert self._holders(r"^\s*(import|from)\s+multiprocessing\b") \
            == ["api/facade.py", "service/workers.py"]
        assert "trace" not in inspect.getsource(repro.api.evaluate_many)

        root = Path(repro.__file__).parents[2]
        package = root / "src" / "repro"
        callers = sorted(
            str(source.relative_to(package))
            for source in package.rglob("*.py")
            if any(isinstance(node, ast.Call)  # a docstring is no call
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                   == "evaluate_workload"
                   for node in ast.walk(ast.parse(source.read_text()))))
        assert [name for name in callers
                if not name.startswith("pipeline/")] == ["cli.py"]

        spelled = sorted(
            str(source.relative_to(root))
            for folder in ("src", "tools", "perf", "benchmarks",
                           "examples")
            for source in (root / folder).rglob("*.py")
            if re.search(r"evaluate_matrix|build_cells|MatrixCell|"
                         r"from_cell|evaluate_cells|pipeline[./]matrix",
                         source.read_text()))
        assert spelled == []
