"""Property-based tests: MTCG preserves semantics for *any* program and
*any* partition (the correctness theorem of the MTCG paper, checked
empirically), and the generated code is deadlock-free even with
single-element queues."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interp.step_oracle import run_step_oracle
from repro.ir import verify_function
from repro.machine import run_mt_program

from repro.check.generate import render_program
from repro.check.strategies import (program_sketches,
                                    random_partition_strategy)

from .mt_utils import make_mt

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@st.composite
def program_and_partition(draw):
    sketch = draw(program_sketches)
    function = render_program(sketch)
    partition = draw(random_partition_strategy(function))
    return function, partition


@st.composite
def program_inputs(draw):
    return {
        "r_in0": draw(st.integers(-50, 50)),
        "r_in1": draw(st.integers(-50, 50)),
    }


@given(case=program_and_partition(), args=program_inputs(),
       capacity=st.sampled_from([1, 2, 32]))
@_SETTINGS
def test_mtcg_equivalence_random(case, args, capacity):
    function, partition = case
    st_result = run_step_oracle(function, args)
    mt = make_mt(function, partition)
    for thread_function in mt.threads:
        verify_function(thread_function, allow_comm=True)
    mt_result = run_mt_program(mt, args, queue_capacity=capacity)
    assert mt_result.live_outs == st_result.live_outs
    assert mt_result.memory.snapshot() == st_result.memory.snapshot()
    assert mt_result.queues.all_empty()


@given(case=program_and_partition(), args=program_inputs())
@_SETTINGS
def test_coco_equivalence_and_never_worse(case, args):
    """COCO-optimized code is semantically equivalent AND never executes
    more dynamic communication than baseline MTCG (the paper's headline
    safety claim)."""
    from repro.analysis import build_pdg
    from repro.coco import optimize
    from repro.ir.transforms import renumber_iids, split_critical_edges
    from repro.mtcg import generate
    from repro.partition import Partition

    function, partition = case
    # Normalize (the real pipeline splits critical edges before COCO).
    old_assignment = dict(partition.assignment)
    split_critical_edges(function)
    mapping = renumber_iids(function)
    assignment = {mapping[iid]: thread
                  for iid, thread in old_assignment.items()}
    for instruction in function.instructions():
        assignment.setdefault(instruction.iid, 0)
    partition = Partition(function, partition.n_threads, assignment)

    st_result = run_step_oracle(function, args)
    pdg = build_pdg(function)
    coco = optimize(function, pdg, partition, st_result.profile)
    mt = generate(function, pdg, partition,
                  data_channels=coco.data_channels,
                  condition_covered=coco.condition_covered)
    mt_result = run_mt_program(mt, args)
    assert mt_result.live_outs == st_result.live_outs
    assert mt_result.memory.snapshot() == st_result.memory.snapshot()

    baseline = run_mt_program(generate(function, pdg, partition), args)
    assert (mt_result.communication_instructions
            <= baseline.communication_instructions)


@given(sketch=program_sketches, args=program_inputs(),
       technique=st.sampled_from(["gremio", "dswp", "gremio-flat"]),
       n_threads=st.integers(2, 4))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_partitioners_equivalent_on_random_programs(sketch, args,
                                                    technique, n_threads):
    """GREMIO and DSWP partitions of arbitrary structured programs run
    correctly through MTCG; DSWP's partitions additionally satisfy the
    pipeline property."""
    from repro.analysis import build_pdg
    from repro.ir.transforms import renumber_iids, split_critical_edges
    from repro.api import make_partitioner, technique_config

    function = render_program(sketch)
    split_critical_edges(function)
    renumber_iids(function)
    st_result = run_step_oracle(function, args)
    pdg = build_pdg(function)
    config = technique_config(technique).with_cores(n_threads)
    partition = make_partitioner(technique, config).partition(
        function, pdg, st_result.profile, n_threads)
    if technique == "dswp":
        for arc in pdg.arcs:
            assert (partition.thread_of(arc.source)
                    <= partition.thread_of(arc.target))
    from repro.mtcg import generate
    mt = generate(function, pdg, partition)
    mt_result = run_mt_program(mt, args,
                               queue_capacity=config.sa_queue_size)
    assert mt_result.live_outs == st_result.live_outs
    assert mt_result.memory.snapshot() == st_result.memory.snapshot()


@given(sketch=program_sketches, args=program_inputs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_timed_simulation_matches_functional(sketch, args):
    """The timing co-simulation computes the same values as the purely
    functional one (timing must never perturb semantics)."""
    from repro.analysis import build_pdg
    from repro.machine import simulate_program
    from repro.mtcg import generate
    from repro.partition import Partition
    from repro.ir import Opcode

    function = render_program(sketch)
    st_result = run_step_oracle(function, args)
    assignment = {}
    for index, instruction in enumerate(function.instructions()):
        assignment[instruction.iid] = (
            0 if instruction.op is Opcode.EXIT else index % 2)
    partition = Partition(function, 2, assignment)
    pdg = build_pdg(function)
    mt = generate(function, pdg, partition)
    functional = run_mt_program(mt, args)
    timed = simulate_program(mt, args)
    assert timed.live_outs == functional.live_outs == st_result.live_outs
    assert timed.memory.snapshot() == st_result.memory.snapshot()
    assert timed.dynamic_instructions == functional.dynamic_instructions
    assert timed.cycles > 0


@given(case=program_and_partition())
@_SETTINGS
def test_mt_computation_preserved(case):
    """The multi-threaded run executes every original computation the
    single-threaded run executes (communication and control glue aside):
    per-opcode dynamic counts of non-communication, non-control opcodes
    must match."""
    from repro.ir import Opcode
    function, partition = case
    args = {"r_in0": 5, "r_in1": -9}
    st_result = run_step_oracle(function, args)
    mt = make_mt(function, partition)
    mt_result = run_mt_program(mt, args)
    glue = {Opcode.JMP, Opcode.BR, Opcode.EXIT, Opcode.PRODUCE,
            Opcode.CONSUME, Opcode.PRODUCE_SYNC, Opcode.CONSUME_SYNC}
    for opcode, count in st_result.opcode_counts.items():
        if opcode in glue:
            continue
        assert mt_result.opcode_counts[opcode] == count, opcode
