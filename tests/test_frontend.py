"""The Python-to-IR frontend: compilation, CPython-exact semantics,
precise diagnostics, the printer/parser round-trip over emitted IR,
its place in the layering, and the frontend stage of ``repro fuzz``
(the whole chain is tests/test_check_fuzz.py)."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.check.fuzz as fuzz_mod
from repro.check.fuzz import replay, run_fuzz
from repro.check.generate import random_sketch, sketch_to_python
from repro.frontend import (FrontendError, compile_source,
                            python_callable, random_inputs)
from repro.interp.interpreter import run_function
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.ir.verify import verify_function


def _run_both(source, args, arrays=None, name=None):
    """Execute source on CPython and as compiled IR; return both
    (result, arrays) observables."""
    program = compile_source(source, name=name)
    fn = python_callable(source, name=program.name)
    py_arrays = {k: list(v) for k, v in (arrays or {}).items()}
    ordered = [py_arrays[p.name] if p.kind == "array" else args[p.name]
               for p in program.params]
    py_result = fn(*ordered)
    run = run_function(program.function, dict(args),
                       initial_memory={k: list(v)
                                       for k, v in (arrays or {}).items()})
    ir_result = tuple(run.live_outs["__ret%d" % i]
                      for i in range(program.n_returns))
    if program.n_returns == 1:
        ir_result = ir_result[0]
    ir_arrays = {k: run.mem_object(k) for k in (arrays or {})}
    return (py_result, py_arrays), (ir_result, ir_arrays)


def _assert_agree(source, args, arrays=None, name=None):
    (py_result, py_arrays), (ir_result, ir_arrays) = _run_both(
        source, args, arrays, name=name)
    assert py_result == ir_result
    assert py_arrays == ir_arrays


class TestCompilation:
    def test_verified_function_with_params_and_liveouts(self):
        program = compile_source(
            'def f(a: int, b: float, xs: "int[8]"):\n'
            '    return a + int(b)\n')
        verify_function(program.function)
        assert program.function.params == ["a", "b", "p__xs"]
        assert program.function.live_outs == ["__ret0"]
        assert [p.name for p in program.scalar_params] == ["a", "b"]
        assert [p.name for p in program.array_params] == ["xs"]
        assert program.n_returns == 1

    def test_second_function_selected_by_name(self):
        source = ("def first(a: int):\n    return a\n"
                  "def second(a: int):\n    return a + 1\n")
        assert compile_source(source).name == "first"
        assert compile_source(source, name="second").name == "second"

    def test_tuple_return_arity(self):
        program = compile_source(
            "def f(a: int):\n"
            "    if a > 0:\n        return a, a * 2\n"
            "    return 0, a\n")
        assert program.n_returns == 2
        assert program.function.live_outs == ["__ret0", "__ret1"]


class TestSemantics:
    def test_floor_division_and_modulo_all_sign_combos(self):
        source = ("def f(a: int, b: int):\n"
                  "    return a // b, a % b\n")
        for a in (-7, -1, 0, 1, 7, 13):
            for b in (-3, -1, 1, 3, 5):
                _assert_agree(source, {"a": a, "b": b})

    def test_negative_index_wraparound(self):
        source = ('def f(i: int, m: "int[8]"):\n'
                  "    m[i] = 99\n"
                  "    return m[i]\n")
        for i in range(-8, 8):
            _assert_agree(source, {"i": i},
                          {"m": [10, 20, 30, 40, 50, 60, 70, 80]})

    def test_for_range_variable_semantics_match_cpython(self):
        # The loop variable keeps its last bound value after the loop,
        # stays unbound... bound to its prior value on an empty range,
        # and body reassignment is overwritten next iteration.
        source = ("def f(n: int):\n"
                  "    i = -1\n"
                  "    total = 0\n"
                  "    for i in range(n):\n"
                  "        total = total + i\n"
                  "        i = 100\n"
                  "    return i, total\n")
        for n in (0, 1, 2, 5):
            _assert_agree(source, {"n": n})

    def test_range_with_step_and_bounds(self):
        source = ("def f(lo: int, hi: int):\n"
                  "    total = 0\n"
                  "    for i in range(lo, hi, -3):\n"
                  "        total = total + i\n"
                  "    return total\n")
        for lo, hi in ((10, -5), (0, 0), (-2, 4), (9, 1)):
            _assert_agree(source, {"lo": lo, "hi": hi})

    def test_while_break_continue(self):
        source = ("def f(n: int):\n"
                  "    total = 0\n"
                  "    i = 0\n"
                  "    while True:\n"
                  "        i = i + 1\n"
                  "        if i > n:\n            break\n"
                  "        if i % 2 == 0:\n            continue\n"
                  "        total = total + i\n"
                  "    return total, i\n")
        for n in (0, 1, 7, 10):
            _assert_agree(source, {"n": n})

    def test_short_circuit_values_and_chained_comparison(self):
        source = ("def f(a: int, b: int):\n"
                  "    x = a or b\n"
                  "    y = a and b\n"
                  "    z = 0 <= a < b\n"
                  "    return x, y, int(z)\n")
        for a in (-2, 0, 3):
            for b in (0, 1, 5):
                _assert_agree(source, {"a": a, "b": b})

    def test_float_intrinsics_are_exact(self):
        source = ("def f(a: int, b: float):\n"
                  "    c = float(a) * b + sqrt(abs(b) + 1.0)\n"
                  "    return int(c), min(c, b), max(c, 0.25)\n")
        rng = random.Random(7)
        for _ in range(50):
            _assert_agree(source, {"a": rng.randint(-40, 40),
                                   "b": rng.randint(-200, 200) / 16.0})

    def test_int_only_float_only_op_flavors(self):
        source = ("def f(a: int, b: int):\n"
                  "    x = (a << 2) ^ (b >> 1) | (a & b)\n"
                  "    y = float(a) / 4.0 - float(b) * 0.5\n"
                  "    return x, y\n")
        for a in (-9, 0, 17):
            for b in (1, 6, 31):
                _assert_agree(source, {"a": a, "b": b})

    def test_both_sides_trap_identically(self):
        program = compile_source("def f(a: int):\n    return 10 // a\n")
        fn = python_callable("def f(a: int):\n    return 10 // a\n")
        with pytest.raises(ZeroDivisionError):
            fn(0)
        with pytest.raises(Exception):
            run_function(program.function, {"a": 0})

    def test_compiled_against_reference_values(self):
        source = ('def dot(n: int, xs: "int[4]", ys: "int[4]"):\n'
                  "    acc = 0\n"
                  "    for i in range(n):\n"
                  "        acc = acc + xs[i] * ys[i]\n"
                  "    return acc\n")
        program = compile_source(source)
        run = run_function(program.function, {"n": 4},
                           initial_memory={"xs": [1, 2, 3, 4],
                                           "ys": [10, 20, 30, 40]})
        assert run.live_outs["__ret0"] == 300
        assert math.isfinite(run.live_outs["__ret0"])


class TestDiagnostics:
    def _error(self, source):
        with pytest.raises(FrontendError) as info:
            compile_source(source)
        return info.value

    def test_syntax_error_position(self):
        error = self._error("def f(a: int):\n    return a +\n")
        assert error.line == 2
        assert "invalid Python" in str(error)

    def test_missing_annotation(self):
        error = self._error("def f(a):\n    return a\n")
        assert "annotation" in error.message
        assert error.line == 1

    def test_unsupported_call_names_the_callee(self):
        error = self._error("def f(a: int):\n    print(a)\n    return a\n")
        assert "print" in error.message
        assert error.line == 2

    def test_undefined_variable(self):
        error = self._error("def f(a: int):\n    return a + ghost\n")
        assert "ghost" in error.message

    def test_reserved_prefix_rejected(self):
        error = self._error("def f(a: int):\n    __t1 = a\n    return a\n")
        assert "reserved" in error.message

    def test_error_renders_file_line_col(self):
        with pytest.raises(FrontendError) as info:
            compile_source("def f(a):\n    return a\n",
                           filename="bad.py")
        assert str(info.value).startswith("bad.py:1:")


class TestPrinterParserRoundTrip:
    def test_frontend_emitted_functions_round_trip(self):
        # Property: for frontend-emitted IR, parse(print(fn)) is
        # observationally identical — same structure fingerprint and
        # same behavior on random inputs.
        rng = random.Random(42)
        for iteration in range(25):
            sketch = random_sketch(rng, depth=2)
            source = sketch_to_python(sketch)
            try:
                program = compile_source(source, name="fuzz_program")
            except FrontendError:
                pytest.fail("generated source must compile:\n" + source)
            printed = format_function(program.function)
            reparsed = parse_function(printed)
            verify_function(reparsed)
            assert format_function(reparsed) == printed
            args = {"in0": rng.randint(-50, 50),
                    "in1": rng.randint(-50, 50)}
            memory = {"m": [rng.randint(-50, 50) for _ in range(32)]}
            original = run_function(
                program.function, dict(args),
                initial_memory={k: list(v) for k, v in memory.items()})
            again = run_function(
                reparsed, dict(args),
                initial_memory={k: list(v) for k, v in memory.items()})
            assert original.live_outs == again.live_outs
            assert original.mem_object("m") == again.mem_object("m")

    def test_float_immediates_round_trip(self):
        program = compile_source(
            "def f(a: float):\n    return a * 0.1 + 2.5e-3\n")
        printed = format_function(program.function)
        assert format_function(parse_function(printed)) == printed


class TestRandomInputs:
    def test_random_inputs_match_declared_shapes(self):
        program = compile_source(
            'def f(a: int, b: float, ok: bool, xs: "float[6]"):\n'
            "    return a\n")
        args, arrays = random_inputs(program, random.Random(3))
        assert set(args) == {"a", "b", "ok"}
        assert isinstance(args["a"], int)
        assert isinstance(args["b"], float)
        assert args["ok"] in (0, 1)
        assert set(arrays) == {"xs"}
        assert len(arrays["xs"]) == 6
        assert all(isinstance(v, float) for v in arrays["xs"])

    def test_random_inputs_deterministic_in_seed(self):
        program = compile_source(
            'def f(a: int, xs: "int[4]"):\n    return a\n')
        first = random_inputs(program, random.Random(9))
        second = random_inputs(program, random.Random(9))
        assert first == second


class TestFrontendFuzz:
    """The frontend stage of ``repro fuzz`` on its own: with no
    partition cells the driver only checks the compiled IR against
    CPython on every input set."""

    FRONTEND_ONLY = {"techniques": (), "random_partitions": 0}

    def test_fixed_seed_run_is_clean(self):
        report = run_fuzz(seed=0, iterations=25, **self.FRONTEND_ONLY)
        assert report.ok, [f.detail for f in report.failures]
        assert report.cells_run == 0
        assert report.counters["frontend_agreed"] == 25 * 3  # every arg set

    def test_failures_persist_to_corpus(self, tmp_path, monkeypatch):
        """A miscompiled program is a frontend failure of the iteration:
        its reproducer (no cell) and source land in the corpus, and the
        JSON alone replays it."""
        real = fuzz_mod.compile_source

        def miscompile(source, name=None):
            return real(source.replace("return (r0,", "return (r0 + 1,"),
                        name=name)

        monkeypatch.setattr(fuzz_mod, "compile_source", miscompile)
        report = run_fuzz(seed=3, iterations=1, corpus_dir=str(tmp_path),
                          **self.FRONTEND_ONLY)
        assert not report.ok
        names = {path.name for path in tmp_path.iterdir()}
        assert {"report-seed3.json", "failure-seed3-000-frontend.json",
                "failure-seed3-000-frontend.py"} <= names
        payload = json.loads(
            (tmp_path / "failure-seed3-000-frontend.json").read_text())
        assert payload["cell"] is None
        assert payload["kind"] == "frontend-divergence"
        assert replay(payload)[0] == "frontend-divergence"


class TestLayering:
    def test_import_loads_no_checker_pipeline_or_simulator(self):
        """The frontend sits below the checker: importing it in a fresh
        interpreter loads nothing of ``repro.check``, the pipeline, the
        simulators or the tracer."""
        code = ("import sys, repro.frontend\n"
                "print('\\n'.join(sorted(sys.modules)))\n")
        source_root = str(Path(compile_source.__code__.co_filename)
                          .parents[2])
        env = dict(os.environ, PYTHONPATH=source_root)
        loaded = subprocess.run([sys.executable, "-c", code], check=True,
                                stdout=subprocess.PIPE, env=env,
                                text=True).stdout.split()
        assert "repro.frontend.compiler" in loaded
        forbidden = [name for name in loaded
                     if name.split(".")[:2] in (["repro", "check"],
                                                ["repro", "pipeline"],
                                                ["repro", "machine"],
                                                ["repro", "trace"])]
        assert not forbidden, forbidden
