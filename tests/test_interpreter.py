"""Unit tests for the single-threaded interpreter and profiler."""

import pytest

from repro.interp import (ExecutionLimitExceeded, TrapError, run_function,
                          static_profile)
from repro.ir import FunctionBuilder

from .helpers import (build_counted_loop, build_diamond, build_memory_loop,
                      build_nested_loops, build_paper_figure4,
                      build_straightline)


class TestExecution:
    def test_straightline(self):
        r = run_function(build_straightline(), {"r_a": 2, "r_b": 3})
        # x = a + b = 5; y = x * 3 = 15; x = y - a = 13
        assert r.live_outs == {"r_x": 13, "r_y": 15}
        assert r.dynamic_instructions == 4

    @pytest.mark.parametrize("a,expected", [(5, 6), (-4, 5), (0, 1)])
    def test_diamond_both_sides(self, a, expected):
        r = run_function(build_diamond(), {"r_a": a})
        assert r.live_outs["r_x"] == expected

    def test_counted_loop(self):
        r = run_function(build_counted_loop(), {"r_n": 10})
        assert r.live_outs["r_s"] == sum(range(10))

    def test_counted_loop_zero_trips(self):
        r = run_function(build_counted_loop(), {"r_n": 0})
        assert r.live_outs["r_s"] == 0

    def test_nested_loops(self):
        r = run_function(build_nested_loops(), {"r_n": 4, "r_m": 5})
        expected = sum(i * j for i in range(4) for j in range(5))
        assert r.live_outs["r_s"] == expected

    def test_memory_loop(self):
        f = build_memory_loop()
        data = list(range(10))
        r = run_function(f, {"r_n": 10}, initial_memory={"arr_in": data})
        assert r.mem_object("arr_out")[:10] == [2 * v for v in data]

    def test_figure4_semantics(self):
        r = run_function(build_paper_figure4(), {"r_n": 10, "r_m": 4})
        assert r.live_outs["r1"] == 30
        assert r.live_outs["r2"] == 30 * 4

    def test_step_limit(self):
        b = FunctionBuilder("spin")
        b.label("entry")
        b.movi("r_x", 1)
        b.jmp("loop")
        b.label("loop")
        b.br("r_x", "loop", "done")
        b.label("done")
        b.exit()
        with pytest.raises(ExecutionLimitExceeded):
            run_function(b.build(), max_steps=1000)

    def test_division_semantics_truncate_toward_zero(self):
        b = FunctionBuilder("divs", params=["r_a", "r_b"],
                            live_outs=["r_q", "r_r"])
        b.label("entry")
        b.idiv("r_q", "r_a", "r_b")
        b.imod("r_r", "r_a", "r_b")
        b.exit()
        f = b.build()
        r = run_function(f, {"r_a": -7, "r_b": 2})
        assert r.live_outs == {"r_q": -3, "r_r": -1}  # C semantics

    def test_division_by_zero_traps(self):
        b = FunctionBuilder("div0", params=["r_a"], live_outs=["r_q"])
        b.label("entry")
        b.idiv("r_q", "r_a", 0)
        b.exit()
        with pytest.raises(TrapError):
            run_function(b.build(), {"r_a": 1})

    def test_float_ops(self):
        b = FunctionBuilder("fops", params=["r_a"], live_outs=["r_x"])
        b.label("entry")
        b.itof("r_f", "r_a")
        b.fmul("r_f", "r_f", 2.0)
        b.fadd("r_f", "r_f", 1.0)
        b.fsqrt("r_x", "r_f")
        b.exit()
        r = run_function(b.build(), {"r_a": 4})
        assert r.live_outs["r_x"] == pytest.approx(3.0)

    def test_out_of_bounds_store_raises(self):
        f = build_memory_loop()
        with pytest.raises(Exception):
            run_function(f, {"r_n": 1000},
                         initial_memory={"arr_in": [0] * 64})


class TestProfile:
    def test_loop_profile_counts(self):
        r = run_function(build_counted_loop(), {"r_n": 7})
        p = r.profile
        assert p.block_weight("header") == 8   # 7 body trips + exit check
        assert p.block_weight("body") == 7
        assert p.edge_weight("body", "header") == 7
        assert p.edge_weight("header", "done") == 1

    def test_diamond_profile_one_sided(self):
        r = run_function(build_diamond(), {"r_a": 3})
        assert r.profile.block_weight("then") == 1
        assert r.profile.block_weight("else_") == 0

    def test_static_profile_scales_with_depth(self):
        f = build_nested_loops()
        p = static_profile(f)
        assert p.block_weight("inner_body") > p.block_weight("outer_body")
        assert p.block_weight("outer_body") > p.block_weight("entry")

    def test_profile_scaled(self):
        r = run_function(build_counted_loop(), {"r_n": 5})
        doubled = r.profile.scaled(2.0)
        assert doubled.block_weight("body") == 10
