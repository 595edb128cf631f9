"""Workload oracle tests: every IR kernel matches its pure-Python reference
on train and ref inputs, and the registry matches the papers' Figure 6(b).
"""

import pytest

from repro.interp import run_function
from repro.ir import verify_function
from repro.workloads import (all_workloads, benchmark_table, get_workload,
                             workload_names)

EXPECTED_NAMES = ["177.mesa", "181.mcf", "183.equake", "188.ammp",
                  "300.twolf", "435.gromacs", "458.sjeng", "adpcmdec",
                  "adpcmenc", "ks", "mpeg2enc",
                  # Frontend-compiled synthetic family (PR 9).
                  "syn.argmin", "syn.blur3", "syn.dotsat", "syn.prefix",
                  "syn.quant"]


def _check_against_reference(workload, scale):
    inputs = workload.make_inputs(scale)
    function = workload.build()
    result = run_function(function, inputs.args, inputs.memory)
    expected = workload.reference(inputs)
    for register_name in function.live_outs:
        assert register_name in expected, (
            "reference for %s must provide %s" % (workload.name,
                                                  register_name))
        got = result.live_outs[register_name]
        want = expected[register_name]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12), register_name
        else:
            assert got == want, register_name
    for object_name in workload.output_objects:
        want = expected[object_name]
        got = result.mem_object(object_name)[:len(want)]
        for index, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-12), (
                    "%s[%d]" % (object_name, index))
            else:
                assert g == w, "%s[%d]" % (object_name, index)
    return result


class TestRegistry:
    def test_all_expected_workloads_present(self):
        assert workload_names() == EXPECTED_NAMES

    def test_functions_verify(self):
        for workload in all_workloads():
            verify_function(workload.build())

    def test_benchmark_table_lists_functions(self):
        table = benchmark_table()
        # The eleven functions of the papers' Figure 6(b).
        for function in ("adpcm_decoder", "adpcm_coder", "FindMaxGpAndSwap",
                         "dist1", "general_textured_triangle",
                         "refresh_potential", "smvp", "mm_fv_update_nonbon",
                         "new_dbox_a", "inl1130", "std_eval"):
            assert function in table

    def test_exec_percentages_match_paper(self):
        paper = {"adpcmdec": 100, "adpcmenc": 100, "ks": 100,
                 "mpeg2enc": 58, "177.mesa": 32, "181.mcf": 32,
                 "183.equake": 63, "188.ammp": 79, "300.twolf": 30,
                 "435.gromacs": 75, "458.sjeng": 26}
        for name, percent in paper.items():
            assert get_workload(name).exec_percent == percent


@pytest.mark.parametrize("name", EXPECTED_NAMES)
class TestOracles:
    def test_train_inputs_match_reference(self, name):
        _check_against_reference(get_workload(name), "train")

    def test_ref_inputs_match_reference(self, name):
        _check_against_reference(get_workload(name), "ref")

    def test_ref_larger_than_train(self, name):
        workload = get_workload(name)
        function = workload.build()
        train = workload.make_inputs("train")
        ref = workload.make_inputs("ref")
        train_run = run_function(function, train.args, train.memory)
        ref_run = run_function(function, ref.args, ref.memory)
        assert ref_run.dynamic_instructions > train_run.dynamic_instructions


class TestDynamicSizes:
    def test_ref_workloads_are_simulation_sized(self):
        """Ref runs must be big enough to be meaningful but small enough
        for cycle-level simulation in CI (single-digit seconds each)."""
        for workload in all_workloads():
            inputs = workload.make_inputs("ref")
            result = run_function(workload.build(), inputs.args,
                                  inputs.memory)
            assert 3_000 <= result.dynamic_instructions <= 400_000, (
                workload.name, result.dynamic_instructions)
