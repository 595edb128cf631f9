"""Shared machinery for multi-threaded correctness tests.

``assert_equivalent`` is the central oracle of this repository: for a given
function, inputs, and partition, MTCG's output simulated on the functional
machine must produce exactly the live-out values and memory state of the
single-threaded step interpreter (the oracle), without deadlock.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis import build_pdg
from repro.interp.step_oracle import run_step_oracle
from repro.ir import Function
from repro.machine import run_mt_program
from repro.mtcg import generate
from repro.partition import Partition


def make_mt(function: Function, partition: Partition,
            data_channels=None):
    pdg = build_pdg(function)
    return generate(function, pdg, partition, data_channels=data_channels)


def assert_equivalent(function: Function, partition: Partition,
                      args: Mapping[str, object] = (),
                      initial_memory: Mapping[str, object] = (),
                      queue_capacity: int = 32,
                      mt_program=None):
    """Run single-threaded and multi-threaded; compare results."""
    if mt_program is None:
        mt_program = make_mt(function, partition)
    st = run_step_oracle(function, args, initial_memory)
    mt = run_mt_program(mt_program, args, initial_memory,
                        queue_capacity=queue_capacity)
    assert mt.live_outs == st.live_outs, (
        "live-outs differ: MT=%r ST=%r" % (mt.live_outs, st.live_outs))
    assert mt.memory.snapshot() == st.memory.snapshot(), "memory differs"
    assert mt.queues.all_empty(), "values left in queues"
    return st, mt


def build_crossed_deadlock() -> "MTProgram":
    """A hand-built two-thread program with *crossed* produce/consume
    order: each thread consumes from the other before producing for it,
    so both block forever on their first consume.  Channel balance and
    queue allocation are perfectly legal — only the intra-block ordering
    is wrong — which makes this the canonical input for the wait-for
    graph validator and the oracle's deadlock classifier."""
    from repro.analysis.pdg import DepKind
    from repro.ir import FunctionBuilder
    from repro.mtcg.channels import CommChannel, Point
    from repro.mtcg.program import MTProgram

    original_builder = FunctionBuilder("crossed", live_outs=["r0"])
    original_builder.label("entry")
    original_builder.movi("r0", 1)
    original_builder.exit()
    original = original_builder.build()
    assignment = {i.iid: 0 for i in original.instructions()}
    partition = Partition(original, 2, assignment)

    t0 = FunctionBuilder("crossed.t0", live_outs=["r0"])
    t0.label("entry")
    t0.movi("r_a", 1)
    t0.consume("r_b", 1)    # waits for thread 1's produce on q1 ...
    t0.produce(0, "r_a")    # ... which waits for this produce on q0.
    t0.add("r0", "r_a", "r_b")
    t0.exit()

    t1 = FunctionBuilder("crossed.t1")
    t1.label("entry")
    t1.movi("r_c", 2)
    t1.consume("r_d", 0)
    t1.produce(1, "r_c")
    t1.exit()

    channels = [
        CommChannel(DepKind.REGISTER, 0, 1, "r_a",
                    [Point("entry", 2)], [], queue=0),
        CommChannel(DepKind.REGISTER, 1, 0, "r_c",
                    [Point("entry", 2)], [], queue=1),
    ]
    return MTProgram(original, partition,
                     [t0.build(verify=False), t1.build(verify=False)],
                     channels, exit_thread=0)


def build_livelock_program() -> "MTProgram":
    """Two threads, no communication: thread 0 exits immediately, thread 1
    spins forever.  The MT run keeps making progress without terminating,
    so the oracle's watchdog must classify it as livelock, not deadlock."""
    from repro.ir import FunctionBuilder
    from repro.mtcg.program import MTProgram

    original_builder = FunctionBuilder("spinner", live_outs=["r0"])
    original_builder.label("entry")
    original_builder.movi("r0", 1)
    original_builder.exit()
    original = original_builder.build()
    assignment = {i.iid: 0 for i in original.instructions()}
    partition = Partition(original, 2, assignment)

    t0 = FunctionBuilder("spinner.t0", live_outs=["r0"])
    t0.label("entry")
    t0.movi("r0", 1)
    t0.exit()

    t1 = FunctionBuilder("spinner.t1")
    t1.label("entry")
    t1.jmp("spin")
    t1.label("spin")
    t1.jmp("spin")

    return MTProgram(original, partition,
                     [t0.build(verify=False), t1.build(verify=False)],
                     [], exit_thread=0)


def round_robin_partition(function: Function, n_threads: int,
                          stride: int = 1) -> Partition:
    """A deliberately adversarial partition: instructions dealt round-robin
    across threads (terminators pinned with the exit on thread 0)."""
    from repro.ir import Opcode
    assignment = {}
    counter = 0
    for instruction in function.instructions():
        if instruction.op is Opcode.EXIT:
            assignment[instruction.iid] = 0
        else:
            assignment[instruction.iid] = (counter // stride) % n_threads
            counter += 1
    return Partition(function, n_threads, assignment)


def block_level_partition(function: Function, n_threads: int) -> Partition:
    """Whole blocks dealt round-robin (exits pinned to thread 0)."""
    from repro.ir import Opcode
    assignment = {}
    for index, block in enumerate(function.blocks):
        thread = index % n_threads
        for instruction in block:
            if instruction.op is Opcode.EXIT:
                assignment[instruction.iid] = 0
            else:
                assignment[instruction.iid] = thread
    return Partition(function, n_threads, assignment)
