"""The ProgramSpec program-input redesign: the registry/ir/source
union, request-key stability against pre-redesign goldens, the
completed removal of the one-release ``workload=`` shim, inline-program
materialization, and the registered ``synthetic`` frontend family."""

from __future__ import annotations

import io

import pytest

from repro.api import (EvaluateRequest, ProgramSpec,
                       RequestValidationError, ServiceClient, evaluate,
                       resolve_program)
from repro.workloads import get_workload, unknown_workload_message
from repro.workloads.synthetic import SYNTHETIC_NAMES

SAXPY = '''
def saxpy(a: int, x: "int[16]", y: "int[16]"):
    s = 0
    for i in range(16):
        y[i] = a * x[i] + y[i]
        s = s + y[i]
    return s
'''

#: Request keys recorded before ProgramSpec existed (PR 8), now
#: expressed through the canonical ``program=`` path.  They must stay
#: byte-identical forever (short of a schema bump), or the artifact
#: cache and serve memo invalidate.
GOLDEN_KEYS = [
    (dict(program=ProgramSpec.registry("ks")),
     "7aeadf595a8d78a35321500dd3389d83b1bc1fd529760ab99f4bf39fec5d6dc2"),
    (dict(program=ProgramSpec.registry("ks"), technique="gremio",
          n_threads=2, scale="train"),
     "8690542d997dac687cbe38c58244c300532a7a17ca747cc5316b8dac6a63c602"),
    (dict(program=ProgramSpec.registry("adpcmdec"), technique="dswp",
          coco=True, n_threads=4),
     "da3955f9953e17d4b787301276e4b90d43bcd0525462836aad035341bde0209f"),
    (dict(program=ProgramSpec.registry("mcf"), trace=True),
     "5d0ca4097d623d042d89d6e9744648e9524045ff802cbbf72f4298d9fef15dd0"),
    (dict(program=ProgramSpec.registry("ks"),
          overrides=(("machine.comm_latency", 2),)),
     "832769aa0eba80ecc2a605bc4bf4458a1204de792d2c5f0ca3681706acf9607d"),
    # Every other key field away from its default, one at a time.
    (dict(program=ProgramSpec.registry("ks"), alias_mode="provenance"),
     "6e7702ad57bb9e671f83186f5e2cc93d3e0edaa5a9ceabc5c5ed0a97aeabd7fe"),
    (dict(program=ProgramSpec.registry("ks"), local_schedule="late"),
     "b6698b9cbf2004b8a841e1e18628a52f5ce0a8aec3d6b4ac7c655893165af136"),
    (dict(program=ProgramSpec.registry("ks"), mt_check=True),
     "34569ebdb8f76b1c0e68215e3124aad31ee3709c8ff19ca2409b3ebd51fa3a33"),
    (dict(program=ProgramSpec.registry("ks"), n_threads=4,
          topology="quad-2x2", placer="affinity"),
     "26d13cb1c8a0bb57884827e907c07653060fc67c44f67518ce4f89a494d19267"),
    (dict(program=ProgramSpec.registry("ks"), check=False),
     "1e36cd124d0197e437352cdf7fc328d07fdc9bc72ab96fbc6cf54761b19f3641"),
    (dict(program=ProgramSpec.registry("mcf"), scale="train"),
     "86f3222535ad40ba15c361dd678eb4501387b211f8811c5c400f42bb77265747"),
    # Two overrides out of order: the key sorts them.
    (dict(program=ProgramSpec.registry("ks"),
          overrides=(("partitioner.split_threshold", 0.5),
                     ("machine.comm_latency", 2))),
     "b5131f8f75d5f9815f5f715f931b00bdf4a0c213165bd7b5334036bb7d07eecc"),
    # The same pairs as JSON lists, as a wire body carries them.
    (dict(program=ProgramSpec.registry("ks"),
          overrides=(["partitioner.split_threshold", 0.5],
                     ["machine.comm_latency", 2])),
     "b5131f8f75d5f9815f5f715f931b00bdf4a0c213165bd7b5334036bb7d07eecc"),
]


class TestRequestKeyStability:
    def test_golden_keys_byte_identical(self):
        for kwargs, expected in GOLDEN_KEYS:
            assert EvaluateRequest(**kwargs).request_key() == expected, \
                kwargs

    def test_workload_field_derived_from_program(self):
        request = EvaluateRequest(program=ProgramSpec.registry("ks"),
                                  technique="dswp", coco=True)
        assert request.workload == "ks"

    def test_identical_inline_content_shares_keys(self):
        a = EvaluateRequest(program=ProgramSpec.source(SAXPY))
        b = EvaluateRequest(program=ProgramSpec.source(SAXPY))
        c = EvaluateRequest(program=ProgramSpec.source(SAXPY + "\n# x"))
        assert a.request_key() == b.request_key()
        assert a.request_key() != c.request_key()
        assert a.workload == b.workload
        assert a.workload.startswith("inline-py-")


class TestShimRemoval:
    def test_workload_kwarg_now_rejected(self):
        # The PR-9 one-release shim has expired: a workload=-only
        # construction is an error, with a migration hint.
        with pytest.raises(RequestValidationError) as info:
            EvaluateRequest(workload="ks")
        assert "program=ProgramSpec.registry('ks')" in str(info.value)

    def test_wire_dict_workload_only_rejected(self):
        with pytest.raises(RequestValidationError):
            EvaluateRequest.from_dict({"workload": "ks"})

    def test_as_dict_round_trip_still_carries_workload(self):
        # as_dict() emits both fields; the round-trip form (workload
        # consistent with program) stays valid on the wire forever.
        body = EvaluateRequest(
            program=ProgramSpec.registry("ks")).as_dict()
        assert body["workload"] == "ks"
        again = EvaluateRequest.from_dict(body)
        assert again.program == ProgramSpec.registry("ks")

    def test_round_trip_preserves_program(self):
        request = EvaluateRequest(program=ProgramSpec.source(SAXPY),
                                  technique="dswp", scale="train")
        again = EvaluateRequest.from_dict(request.as_dict())
        assert again == request
        assert again.request_key() == request.request_key()


class TestProgramSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestValidationError):
            ProgramSpec(kind="wasm", value="x").validate()

    def test_empty_value_rejected(self):
        with pytest.raises(RequestValidationError):
            ProgramSpec.inline_ir("   ").validate()

    def test_unknown_registry_name_suggests_close_match(self):
        with pytest.raises(RequestValidationError) as info:
            EvaluateRequest(program=ProgramSpec.registry("kss")).validate()
        assert "did you mean 'ks'" in str(info.value)

    def test_unknown_workload_message_fallback(self):
        message = unknown_workload_message("zzz-nothing-close")
        assert "repro list" in message

    def test_size_cap(self):
        with pytest.raises(RequestValidationError) as info:
            ProgramSpec.inline_ir("x" * 70000).validate()
        assert "too large" in str(info.value)

    def test_invalid_source_carries_diagnostic(self):
        with pytest.raises(RequestValidationError) as info:
            ProgramSpec.source("def f(:\n").validate()
        assert "invalid inline program" in str(info.value)
        assert "1:" in str(info.value)

    def test_invalid_ir_rejected(self):
        with pytest.raises(RequestValidationError):
            ProgramSpec.inline_ir("not ir at all").validate()

    def test_unknown_program_dict_field_rejected(self):
        with pytest.raises(RequestValidationError):
            ProgramSpec.from_dict({"kind": "ir", "value": "x",
                                   "bogus": 1})

    def test_workload_program_mismatch_rejected(self):
        with pytest.raises(RequestValidationError):
            EvaluateRequest(
                workload="ks",
                program=ProgramSpec.registry("adpcmdec")).validate()


class TestInlineMaterialization:
    def test_source_program_evaluates_and_checks(self):
        request = EvaluateRequest(program=ProgramSpec.source(SAXPY),
                                  technique="dswp", scale="train")
        result = evaluate(request)
        assert result.speedup > 0
        assert result.request.workload.startswith("inline-py-")

    def test_resolve_program_returns_session_workload(self):
        workload = resolve_program(ProgramSpec.source(SAXPY))
        assert workload is get_workload(workload.name)
        inputs = workload.make_inputs("train")
        reference = workload.reference(inputs)
        assert "__ret0" in reference
        assert "y" in reference

    def test_source_compiles_once_per_build(self, monkeypatch):
        """The compile that validates the source also answers
        ``make_inputs`` and ``reference``; only ``build()`` compiles
        again, to a fresh ``Function`` each time."""
        from repro import frontend
        from repro.workloads.inline import source_workload
        calls = []
        compile_source = frontend.compile_source

        def counting(text, name=None):
            calls.append(name)
            return compile_source(text, name=name)

        monkeypatch.setattr(frontend, "compile_source", counting)
        workload = source_workload("compile-count", SAXPY)
        assert len(calls) == 1
        workload.reference(workload.make_inputs("train"))
        workload.make_inputs("ref")
        assert len(calls) == 1
        first, second = workload.build(), workload.build()
        assert len(calls) == 3
        assert first is not second
        assert first.blocks[0] is not second.blocks[0]

    def test_ir_program_round_trips_through_spec(self):
        from repro.ir.printer import format_function
        workload = resolve_program(ProgramSpec.source(SAXPY))
        text = format_function(workload.build())
        ir_workload = resolve_program(ProgramSpec.inline_ir(text))
        assert ir_workload.name.startswith("inline-ir-")
        inputs = ir_workload.make_inputs("train")
        assert ir_workload.reference(inputs)


class TestSyntheticFamily:
    def test_family_registered(self):
        for name in SYNTHETIC_NAMES:
            workload = get_workload(name)
            assert workload.suite == "synthetic"
            assert workload.build().blocks

    def test_reference_matches_interpreter(self):
        from repro.interp import run_function
        for name in SYNTHETIC_NAMES:
            workload = get_workload(name)
            inputs = workload.make_inputs("train")
            expected = workload.reference(inputs)
            run = run_function(
                workload.build(), dict(inputs.args),
                initial_memory={k: list(v)
                                for k, v in inputs.memory.items()})
            observed = dict(run.live_outs)
            for obj in workload.output_objects:
                observed[obj] = run.mem_object(obj)
            assert observed == expected, name

    def test_one_kernel_through_full_pipeline(self):
        result = evaluate(EvaluateRequest(
            program=ProgramSpec.registry("syn.dotsat"),
            technique="dswp", scale="train"))
        assert result.speedup > 0


class TestServeInlinePrograms:
    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.api import configure_cache
        from repro.service import ServiceConfig, ServiceDaemon
        previous = configure_cache(str(tmp_path / "artifacts"))
        instance = ServiceDaemon(ServiceConfig(
            host="127.0.0.1", port=0, workers=0, queue_limit=8,
            request_timeout=120.0, log_stream=io.StringIO()))
        instance.start()
        try:
            yield instance
        finally:
            instance.close()
            configure_cache(previous.directory, previous.enabled)

    def _post(self, daemon, body):
        return ServiceClient(daemon.address).evaluate_raw(body)

    def test_inline_program_body(self, daemon):
        status, document = self._post(daemon, {
            "program": {"kind": "source", "value": SAXPY},
            "technique": "gremio", "scale": "train"})
        assert status == 200
        assert document["metrics"]["speedup"] > 0
        assert document["request"]["workload"].startswith("inline-py-")

    def test_oversized_program_is_400(self, daemon):
        status, document = self._post(daemon, {
            "program": {"kind": "ir", "value": "x" * 70000}})
        assert status == 400
        assert "too large" in document["error"]

    def test_uncompilable_program_is_400(self, daemon):
        status, document = self._post(daemon, {
            "program": {"kind": "source", "value": "def f(:"}})
        assert status == 400
        assert "invalid inline program" in document["error"]
