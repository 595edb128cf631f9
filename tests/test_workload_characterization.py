"""Characterization tests: each benchmark kernel has the structural
signature of the function it reproduces (loop shape, instruction mix,
branchiness).  These pin the *nature* of each workload so future edits
cannot quietly turn, say, the FP-heavy gromacs kernel into integer code.
"""

from collections import Counter

from repro.analysis import loop_nest_forest
from repro.interp import run_function
from repro.ir import OpKind
from repro.stats import overhead_breakdown
from repro.workloads import get_workload


def _dynamic_mix(name):
    workload = get_workload(name)
    inputs = workload.make_inputs("ref")
    result = run_function(workload.build(), inputs.args, inputs.memory)
    total = result.dynamic_instructions
    by_kind = Counter()
    f = workload.build()
    # Weight static kinds by dynamic opcode counts.
    for opcode, count in result.opcode_counts.items():
        from repro.ir import SIGNATURES
        by_kind[SIGNATURES[opcode].kind] += count
    return {kind: value / total for kind, value in by_kind.items()}, result


class TestLoopShapes:
    def test_adpcm_single_loop(self):
        for name in ("adpcmdec", "adpcmenc"):
            forest = loop_nest_forest(get_workload(name).build())
            assert len(forest.top_level) == 1
            assert forest.top_level[0].children == []

    def test_ks_two_level_search_plus_swap(self):
        forest = loop_nest_forest(get_workload("ks").build())
        headers = sorted(loop.header for loop in forest.top_level)
        assert headers == ["outer", "swap_loop"]
        outer = forest.by_header["outer"]
        assert len(outer.children) == 1  # the inner gain scan

    def test_mpeg2_doubly_nested(self):
        forest = loop_nest_forest(get_workload("mpeg2enc").build())
        assert len(forest.top_level) == 1
        assert len(forest.top_level[0].children) == 1

    def test_mcf_traversal_with_climb_loop(self):
        forest = loop_nest_forest(get_workload("181.mcf").build())
        assert "visit" in forest.by_header
        assert "climb" in forest.by_header
        assert forest.by_header["climb"].depth == 2

    def test_equake_csr_nest(self):
        forest = loop_nest_forest(get_workload("183.equake").build())
        assert len(forest.top_level) == 1
        assert len(forest.top_level[0].children) == 1


class TestInstructionMix:
    def test_fp_kernels_are_fp_heavy(self):
        for name in ("435.gromacs", "188.ammp", "183.equake"):
            mix, _ = _dynamic_mix(name)
            assert mix.get(OpKind.FP, 0) > 0.15, name

    def test_integer_kernels_have_no_fp(self):
        for name in ("adpcmdec", "adpcmenc", "ks", "mpeg2enc",
                     "300.twolf", "458.sjeng", "181.mcf"):
            mix, _ = _dynamic_mix(name)
            assert mix.get(OpKind.FP, 0) == 0, name

    def test_branchy_kernels(self):
        """sjeng and the adpcm coder branch far more than smvp."""
        sjeng, _ = _dynamic_mix("458.sjeng")
        equake, _ = _dynamic_mix("183.equake")
        assert sjeng[OpKind.BRANCH] > equake[OpKind.BRANCH] * 1.5

    def test_memory_intensity(self):
        """mcf's pointer chase is load-dominated."""
        mix, _ = _dynamic_mix("181.mcf")
        assert mix.get(OpKind.LOAD, 0) > 0.2

    def test_reference_inputs_exercise_both_branch_arms(self):
        """adpcm's sign branch must take both directions on ref inputs
        (a degenerate input would hide half the kernel)."""
        workload = get_workload("adpcmenc")
        inputs = workload.make_inputs("ref")
        result = run_function(workload.build(), inputs.args, inputs.memory)
        assert result.profile.block_weight("negdiff") > 10
        assert result.profile.block_weight("posdiff") > 10


class TestOverheadBreakdownHelper:
    def test_single_thread_partition_has_no_overhead(self):
        from repro.machine import run_mt_program
        from repro.partition import single_thread_partition
        from tests.mt_utils import make_mt
        workload = get_workload("mpeg2enc")
        inputs = workload.make_inputs("train")
        f = workload.build()
        mt = make_mt(f, single_thread_partition(f))
        run = run_mt_program(mt, inputs.args, inputs.memory)
        classes = overhead_breakdown(mt, run)
        assert classes["communication"] == 0.0
        assert classes["replicated_control"] == 0.0
        assert classes["computation"] > 70.0

    def test_split_partition_shows_overheads(self):
        from repro.machine import run_mt_program
        from tests.helpers import build_paper_figure3
        from tests.mt_utils import make_mt, round_robin_partition
        f = build_paper_figure3()
        mt = make_mt(f, round_robin_partition(f, 2))
        run = run_mt_program(mt, {"r_n": 6},
                             {"f3_in": [1, 200, 3, 9, 150, 7]})
        classes = overhead_breakdown(mt, run)
        assert classes["communication"] > 0
        assert classes["replicated_control"] > 0
        assert abs(sum(classes.values()) - 100.0) < 1e-9

    def test_threads_sharing_an_iid_are_counted_apart(self):
        """MTCG's threads reuse iids: here thread 0's ``jmp`` (glue) and
        thread 1's replicated ``br`` both carry iid 1.  Counting by iid
        alone would file both under whichever class it saw last."""
        from repro.ir import FunctionBuilder
        from repro.machine import run_mt_program
        from repro.mtcg.program import MTProgram
        from repro.partition import Partition

        def thread(name, branch):
            builder = FunctionBuilder(name, live_outs=["r0"])
            builder.label("entry")
            builder.movi("r0", 0)
            if branch:
                builder.br("r0", "done", "done")
            else:
                builder.jmp("done")
            builder.label("done")
            builder.exit()
            return builder.build(verify=False)

        t0, t1 = thread("shared.t0", False), thread("shared.t1", True)
        jmp, br = list(t0.instructions())[1], list(t1.instructions())[1]
        assert jmp.iid == br.iid
        br.origin = br.iid
        original = thread("shared", False)
        program = MTProgram(
            original, Partition(original, 2, {
                i.iid: 0 for i in original.instructions()}),
            [t0, t1], [], exit_thread=0)
        classes = overhead_breakdown(program, run_mt_program(program))
        # movi x2 | jmp + exit x2 | br, of 6 dynamic instructions.
        assert classes["computation"] == 100.0 * 2 / 6
        assert classes["glue"] == 100.0 * 3 / 6
        assert classes["replicated_control"] == 100.0 * 1 / 6
        assert classes["communication"] == 0.0
