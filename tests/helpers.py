"""Shared fixtures: small IR programs used across the test suite.

Several of these encode the running examples of the GMT scheduling papers
(Figure 3, 4 and 5 of the ASPLOS 2008 companion text), so analysis and
codegen behaviour can be checked against the published walk-throughs.
"""

from __future__ import annotations

import functools

from repro.ir import Function, FunctionBuilder


def build_straightline() -> Function:
    """entry -> exit, pure arithmetic."""
    b = FunctionBuilder("straightline", params=["r_a", "r_b"],
                        live_outs=["r_x", "r_y"])
    b.label("entry")
    b.add("r_x", "r_a", "r_b")
    b.mul("r_y", "r_x", 3)
    b.sub("r_x", "r_y", "r_a")
    b.exit()
    return b.build()


def build_diamond() -> Function:
    """if/else diamond joining before exit."""
    b = FunctionBuilder("diamond", params=["r_a"], live_outs=["r_x"])
    b.label("entry")
    b.cmpgt("r_c", "r_a", 0)
    b.br("r_c", "then", "else_")
    b.label("then")
    b.mov("r_x", "r_a")
    b.jmp("join")
    b.label("else_")
    b.neg("r_x", "r_a")
    b.jmp("join")
    b.label("join")
    b.add("r_x", "r_x", 1)
    b.exit()
    return b.build()


def build_counted_loop(n_param: str = "r_n") -> Function:
    """for (i = 0; i < n; i++) s += i; with s live-out."""
    b = FunctionBuilder("counted_loop", params=[n_param],
                        live_outs=["r_s"])
    b.label("entry")
    b.movi("r_s", 0)
    b.movi("r_i", 0)
    b.jmp("header")
    b.label("header")
    b.cmplt("r_c", "r_i", n_param)
    b.br("r_c", "body", "done")
    b.label("body")
    b.add("r_s", "r_s", "r_i")
    b.add("r_i", "r_i", 1)
    b.jmp("header")
    b.label("done")
    b.exit()
    return b.build()


def build_nested_loops() -> Function:
    """Two-level loop nest: sum of i*j products."""
    b = FunctionBuilder("nested_loops", params=["r_n", "r_m"],
                        live_outs=["r_s"])
    b.label("entry")
    b.movi("r_s", 0)
    b.movi("r_i", 0)
    b.jmp("outer")
    b.label("outer")
    b.cmplt("r_c0", "r_i", "r_n")
    b.br("r_c0", "outer_body", "done")
    b.label("outer_body")
    b.movi("r_j", 0)
    b.jmp("inner")
    b.label("inner")
    b.cmplt("r_c1", "r_j", "r_m")
    b.br("r_c1", "inner_body", "outer_latch")
    b.label("inner_body")
    b.mul("r_t", "r_i", "r_j")
    b.add("r_s", "r_s", "r_t")
    b.add("r_j", "r_j", 1)
    b.jmp("inner")
    b.label("outer_latch")
    b.add("r_i", "r_i", 1)
    b.jmp("outer")
    b.label("done")
    b.exit()
    return b.build()


def build_memory_loop() -> Function:
    """out[i] = in[i] * 2 over an array; exercises loads/stores/alias."""
    b = FunctionBuilder("memory_loop", params=["p_in", "p_out", "r_n"],
                        live_outs=[])
    b.mem("arr_in", 64, ptr="p_in")
    b.mem("arr_out", 64, ptr="p_out")
    b.label("entry")
    b.movi("r_i", 0)
    b.jmp("header")
    b.label("header")
    b.cmplt("r_c", "r_i", "r_n")
    b.br("r_c", "body", "done")
    b.label("body")
    b.add("r_pa", "p_in", "r_i")
    b.load("r_v", "r_pa")
    b.mul("r_v", "r_v", 2)
    b.add("r_pb", "p_out", "r_i")
    b.store("r_pb", "r_v")
    b.add("r_i", "r_i", 1)
    b.jmp("header")
    b.label("done")
    b.exit()
    return b.build()


def build_paper_figure3() -> Function:
    """The running example of the companion text's Figure 3.

        B1:  A: r1 = M[r5]        (modeled: r1 = load in[r5])
             B: r2 = r1 < 10      (cmplt)
             C: branch r2, B3     (br)
        B2:  D: branch r3, B4     (loop-ish side branch; here: br r3)
             E: r1 = r1 + 1       (on the fall-through path)
        B3:  F: M[r6] = r1        (store out)
             G: jump B1 / exit    (here: back-edge guarded to terminate)

    We reproduce the shape: A,B,C in B1; D,E in B2; F,G in B3, with the
    register dependences (A->F), (E->F) on r1 and control dependence via D.
    A loop guard makes the function executable and terminating.
    """
    b = FunctionBuilder("figure3", params=["p_in", "p_out", "r_n"],
                        live_outs=["r1"])
    b.mem("f3_in", 32, ptr="p_in")
    b.mem("f3_out", 32, ptr="p_out")
    b.label("B0")            # loop counter setup (not in the paper figure)
    b.movi("r_i", 0)
    b.jmp("B1")
    b.label("B1")
    b.add("r_a", "p_in", "r_i")
    b.load("r1", "r_a")                    # A: r1 = ...
    b.cmplt("r2", "r1", 10)                # B: r2 = r1 < 10
    b.br("r2", "B3", "B2")                 # C: branch to B3 or fall to B2
    b.label("B2")
    b.cmpgt("r3", "r1", 100)               # feeds D
    b.br("r3", "B3", "B2b")                # D: branch
    b.label("B2b")
    b.add("r1", "r1", 1)                   # E: r1 = r1 + 1
    b.jmp("B3")
    b.label("B3")
    b.add("r_b", "p_out", "r_i")
    b.store("r_b", "r1")                   # F: store r1
    b.add("r_i", "r_i", 1)
    b.cmplt("r_c", "r_i", "r_n")
    b.br("r_c", "B1", "B4")                # G: loop / exit
    b.label("B4")
    b.exit()
    return b.build()


def build_paper_figure4() -> Function:
    """The companion text's Figure 4: two sequential loops; the first
    computes r1 (thread T_s = {A, B, C}), the second only uses its final
    value (thread T_t = {D, E, F}).  MTCG communicates r1 every iteration
    of loop 1; the optimized placement communicates it once, in B3."""
    b = FunctionBuilder("figure4", params=["r_n", "r_m"],
                        live_outs=["r1", "r2"])
    b.label("B1")
    b.movi("r1", 0)
    b.movi("r_i", 0)
    b.jmp("B2")
    b.label("B2")
    b.add("r1", "r1", 3)                   # B: r1 += 3 (loop 1 body)
    b.add("r_i", "r_i", 1)
    b.cmplt("r_c1", "r_i", "r_n")
    b.br("r_c1", "B2", "B3")               # C: loop 1 back edge
    b.label("B3")
    b.movi("r2", 0)
    b.movi("r_j", 0)
    b.jmp("B4")
    b.label("B4")
    b.add("r2", "r2", "r1")                # E: uses r1 (loop 2 body)
    b.add("r_j", "r_j", 1)
    b.cmplt("r_c2", "r_j", "r_m")
    b.br("r_c2", "B4", "B5")               # F: loop 2 back edge
    b.label("B5")
    b.exit()
    return b.build()


@functools.lru_cache(maxsize=None)
def train_front(name: str):
    """A registry workload's partitioner inputs as the pipeline builds
    them: the normalized function, its PDG (annotated aliasing) and its
    edge profile on the ``train`` inputs.  Cached per process; callers
    must not mutate the results."""
    from repro.analysis import AliasAnalysis, build_pdg
    from repro.interp import run_function
    from repro.pipeline.stages import normalize
    from repro.workloads import get_workload
    workload = get_workload(name)
    train = workload.make_inputs("train")
    function = normalize(workload.build())
    profile = run_function(function, train.args, train.memory).profile
    return function, build_pdg(function, AliasAnalysis(function)), profile
