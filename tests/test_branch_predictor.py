"""Tests for the branch-predictor models in the timing simulator."""

import dataclasses

from repro.machine import DEFAULT_CONFIG, simulate_single
from repro.machine.timing import SAPortSchedule
from repro.machine.timing_oracle import CoreTiming
from repro.ir import FunctionBuilder, Instruction, Opcode

from .helpers import build_counted_loop


def _config(mode, **kw):
    return dataclasses.replace(DEFAULT_CONFIG, branch_predictor=mode, **kw)


def _core(config):
    return CoreTiming(0, config, SAPortSchedule(config.sa_ports))


def _branch(iid=1):
    instruction = Instruction(Opcode.BR, srcs=["r_c"],
                              labels=["a", "b"], iid=iid)
    return instruction


class TestBimodalCounter:
    def test_warm_loop_branch_predicts_taken(self):
        core = _core(_config("bimodal"))
        branch = _branch()
        # Initialized weakly-taken: a taken stream never mispredicts.
        penalties = [core.branch_redirect(branch, True) for _ in range(10)]
        assert penalties == [0] * 10
        assert core.mispredictions == 0

    def test_loop_exit_mispredicts_once(self):
        core = _core(_config("bimodal"))
        branch = _branch()
        for _ in range(10):
            core.branch_redirect(branch, True)
        assert core.branch_redirect(branch, False) \
            == DEFAULT_CONFIG.mispredict_penalty
        assert core.mispredictions == 1

    def test_alternating_pattern_hurts(self):
        core = _core(_config("bimodal"))
        branch = _branch()
        outcomes = [True, False] * 20
        penalties = [core.branch_redirect(branch, taken)
                     for taken in outcomes]
        assert sum(1 for p in penalties if p) >= 10

    def test_counters_are_per_branch(self):
        core = _core(_config("bimodal"))
        a, b = _branch(1), _branch(2)
        for _ in range(5):
            core.branch_redirect(a, True)
            core.branch_redirect(b, False)
        # Each branch is biased to its own direction.
        assert core.branch_redirect(a, True) == 0
        assert core.branch_redirect(b, False) == 0


class TestModes:
    def test_perfect_never_penalizes(self):
        core = _core(_config("perfect"))
        branch = _branch()
        assert all(core.branch_redirect(branch, taken) == 0
                   for taken in (True, False, True, False))

    def test_static_charges_taken_only(self):
        core = _core(_config("static"))
        branch = _branch()
        assert core.branch_redirect(branch, True) \
            == DEFAULT_CONFIG.taken_branch_penalty
        assert core.branch_redirect(branch, False) == 0


class TestEndToEnd:
    def test_loop_faster_with_bimodal_than_static(self):
        """A hot counted loop's back edge is taken every iteration: the
        bimodal predictor learns it; the static model pays every time."""
        f = build_counted_loop()
        static = simulate_single(f, {"r_n": 200},
                                 config=_config("static"))
        bimodal = simulate_single(f, {"r_n": 200},
                                  config=_config("bimodal"))
        perfect = simulate_single(f, {"r_n": 200},
                                  config=_config("perfect"))
        assert bimodal.cycles < static.cycles
        assert perfect.cycles <= bimodal.cycles
        assert static.live_outs == bimodal.live_outs == perfect.live_outs

    def test_data_dependent_branches_cost_more_under_bimodal(self):
        """Random outcomes mispredict ~half the time: worse than the flat
        1-cycle static charge."""
        b = FunctionBuilder("noisy", params=["p_a", "r_n"],
                            live_outs=["r_s"])
        b.mem("bits", 256, ptr="p_a")
        b.label("entry")
        b.movi("r_s", 0)
        b.movi("r_i", 0)
        b.jmp("head")
        b.label("head")
        b.cmplt("r_c", "r_i", "r_n")
        b.br("r_c", "body", "done")
        b.label("body")
        b.add("r_p", "p_a", "r_i")
        b.load("r_bit", "r_p")
        b.br("r_bit", "one", "zero")
        b.label("one")
        b.add("r_s", "r_s", 3)
        b.jmp("latch")
        b.label("zero")
        b.add("r_s", "r_s", 1)
        b.jmp("latch")
        b.label("latch")
        b.add("r_i", "r_i", 1)
        b.jmp("head")
        b.label("done")
        b.exit()
        f = b.build()
        import random
        rng = random.Random(7)
        bits = [rng.randrange(2) for _ in range(256)]
        static = simulate_single(f, {"r_n": 200},
                                 initial_memory={"bits": bits},
                                 config=_config("static"))
        bimodal = simulate_single(f, {"r_n": 200},
                                  initial_memory={"bits": bits},
                                  config=_config("bimodal"))
        assert bimodal.cycles > static.cycles
