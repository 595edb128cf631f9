"""Differential equivalence of the untimed compiled executor and its
oracles.

The contract under test (``src/repro/executor/untimed.py``): on every
program :func:`repro.executor.run_function` — the one-thread case, what
the ``profile`` stage runs — produces the
:class:`~repro.executor.untimed.RunResult` of the step oracle,
:func:`repro.interp.step_oracle.run_step_oracle`: the ``EdgeProfile``
(counts, key order, float value types, ``fingerprint_profile``), registers and
live-outs, the final memory image, ``dynamic_instructions`` and
``opcode_counts``; and a run that fails raises the same exception type
with the same message.  The grid is every registry workload (the five
``syn.*`` kernels included) x {train, ref}, the ``check.generate``
programs of 25 fuzz seeds, the frontend fuzzer's programs, and one case
per error path.

The many-thread case, :func:`repro.machine.run_mt_program`, produces the
functional observables of the reference timed loop
(``timing_oracle.simulate_threads_oracle``): live-outs, memory, per-thread instruction
and communication counts, opcode counts and pushes per queue — on every
workload's GREMIO and DSWP build, on the random partitions of the 25
fuzz seeds at queue capacities 1 and 32, and with the same exception
type on a trap, a deadlock and the step limit.
"""

import io

import pytest

from repro.api import ServiceClient, configure_cache
from repro.check.differential_backend import (
    run_executor_error_cases, run_executor_frontend_case,
    run_executor_fuzz_case, run_executor_workload_case,
    run_functional_error_cases, run_functional_fuzz_cases,
    run_functional_workload_case)
from repro.executor import run_function
from repro.interp import ExecutionLimitExceeded, MemoryError_, TrapError
from repro.interp.step_oracle import run_step_oracle
from repro.ir.builder import FunctionBuilder
from repro.service import ServiceConfig, ServiceDaemon
from repro.workloads import workload_names


def _assert_ok(case):
    assert case.ok, "%s diverged:\n%s" % (
        case.label, "\n".join(case.divergences[:10]))


@pytest.mark.parametrize("scale", ("train", "ref"))
@pytest.mark.parametrize("name", workload_names())
def test_workload_runs_identical(name, scale):
    _assert_ok(run_executor_workload_case(name, scale))


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_identical(seed):
    _assert_ok(run_executor_fuzz_case(seed))


@pytest.mark.parametrize("iteration", range(10))
def test_frontend_fuzz_programs_identical(iteration):
    _assert_ok(run_executor_frontend_case(iteration))


_ERROR_CASES = run_executor_error_cases()


@pytest.mark.parametrize("case", _ERROR_CASES,
                         ids=[case.label for case in _ERROR_CASES])
def test_error_paths_raise_identically(case):
    """Same exception type and message on both executors, and the type
    each case is there for (``expect`` in the harness)."""
    _assert_ok(case)


@pytest.mark.parametrize("technique", ("gremio", "dswp"))
@pytest.mark.parametrize("name", workload_names())
def test_mt_workload_runs_identical(name, technique):
    _assert_ok(run_functional_workload_case(name, technique))


@pytest.mark.parametrize("seed", range(25))
def test_mt_generated_programs_identical(seed):
    for case in run_functional_fuzz_cases(seed):
        _assert_ok(case)


@pytest.mark.parametrize("case", run_functional_error_cases(),
                         ids=lambda case: case.label)
def test_mt_error_paths_raise_identically(case):
    _assert_ok(case)


def test_error_cases_cover_every_path():
    labels = {case.label.rsplit("/", 1)[-1] for case in _ERROR_CASES}
    assert {"undef-first-source", "idiv-zero", "imod-zero", "fdiv-zero",
            "load-out-of-bounds", "store-out-of-bounds",
            "load-float-address", "max-steps-14", "produce",
            "unknown-argument"} <= labels


def _looping():
    builder = FunctionBuilder("looping", params=["r_n"], live_outs=["r_i"])
    builder.label("entry")
    builder.movi("r_i", 0)
    builder.jmp("loop")
    builder.label("loop")
    builder.add("r_i", "r_i", 1)
    builder.cmplt("r_c", "r_i", "r_n")
    builder.br("r_c", "loop", "done")
    builder.label("done")
    builder.exit()
    return builder.build()


class TestExceptionsAreTheOracles:
    """The harness compares type *names*; these pin the classes."""

    def test_trap(self):
        builder = FunctionBuilder("f", params=["r_n"], live_outs=["r_s"])
        builder.label("entry")
        builder.idiv("r_s", "r_n", 0)
        builder.exit()
        function = builder.build()
        for run in (run_step_oracle, run_function):
            with pytest.raises(TrapError, match="integer division by zero"):
                run(function, {"r_n": 1})

    def test_step_limit(self):
        for run in (run_step_oracle, run_function):
            with pytest.raises(ExecutionLimitExceeded,
                               match="looping exceeded 10 steps"):
                run(_looping(), {"r_n": 100}, max_steps=10)

    def test_unknown_argument(self):
        for run in (run_step_oracle, run_function):
            with pytest.raises(MemoryError_, match="unknown arguments"):
                run(_looping(), {"r_n": 1, "r_other": 2})

    def test_both_branch_arms_to_one_block(self):
        """``br c, next, next``: one edge key takes both arms' counts."""
        builder = FunctionBuilder("f", params=["r_n"], live_outs=["r_n"])
        builder.label("entry")
        builder.br("r_n", "next", "next")
        builder.label("next")
        builder.exit()
        function = builder.build()
        for n in (0, 1):
            compiled = run_function(function, {"r_n": n}).profile
            oracle = run_step_oracle(function, {"r_n": n}).profile
            assert compiled.edge_counts == oracle.edge_counts \
                == {("entry", "next"): 1.0}


TRAPPING_SOURCE = '''
def trapping(n: int, a: "int[8]"):
    total = 0
    for i in range(8):
        total = total + a[i] // (n - n)
    return total
'''


def test_trapping_inline_program_error_document(tmp_path):
    """A program that traps in the ``profile`` stage is answered with
    the error document of the step interpreter's trap."""
    previous = configure_cache(str(tmp_path / "artifacts"))
    daemon = ServiceDaemon(ServiceConfig(
        host="127.0.0.1", port=0, workers=1, queue_limit=4,
        request_timeout=60.0, log_stream=io.StringIO()))
    daemon.start()
    try:
        status, document = ServiceClient(
            daemon.address, timeout=90).evaluate_raw({
                "program": {"kind": "source", "value": TRAPPING_SOURCE},
                "technique": "gremio", "n_threads": 2, "scale": "train"})
    finally:
        daemon.close()
        configure_cache(previous.directory, previous.enabled)
    assert status == 500
    assert document == {"error": "TrapError: integer division by zero",
                        "kind": "evaluation"}
