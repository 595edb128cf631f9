"""COCO-Fig6: the experimental setup tables — (a) machine configuration,
(b) selected benchmark functions.

The ``fig6_setup`` spec (:mod:`repro.bench.specs.paper`) records the
machine-readable counts; this module renders the human tables and
cross-checks both views.
"""

from harness import run_once

from repro.bench import FULL, get_spec
from repro.machine import DEFAULT_CONFIG, config_table
from repro.workloads import all_workloads, benchmark_table


def test_fig6a_machine_configuration(benchmark):
    text = run_once(benchmark, config_table)
    print()
    print("Figure 6(a): machine details")
    print(text)
    assert "6 issue" in text or "6 ALU" in text
    assert "141" in text
    metrics = get_spec("fig6_setup").collect(FULL)
    assert metrics["machine/sa_queues"].value == 256
    assert metrics["machine/sa_queues"].value == DEFAULT_CONFIG.sa_queues
    assert (metrics["machine/sa_access_latency"].value
            == DEFAULT_CONFIG.sa_access_latency)


def test_fig6b_benchmark_functions(benchmark):
    text = run_once(benchmark, benchmark_table)
    print()
    print("Figure 6(b): selected benchmark functions")
    print(text)
    # The eleven functions of the papers' table, with their exec %.
    for fragment in ("adpcm_decoder", "adpcm_coder", "FindMaxGpAndSwap",
                     "dist1", "general_textured_triangle",
                     "refresh_potential", "smvp", "mm_fv_update_nonbon",
                     "new_dbox_a", "inl1130", "std_eval"):
        assert fragment in text
    # The hand-ported paper suite; the frontend-compiled `synthetic`
    # family has its own spec (bench_synthetic_frontend.py).
    assert len([w for w in all_workloads()
                if w.suite != "synthetic"]) == 11
    metrics = get_spec("fig6_setup").collect(FULL)
    assert metrics["workloads/count"].value == 11
