"""Plugging a custom partitioner into the GMT framework.

The papers' Figure 2 point: the PDG + MTCG pair is a *framework* — any
strategy that assigns instructions to threads yields correct multi-threaded
code.  This example writes a deliberately simple partitioner (offload every
floating-point instruction to thread 1), hands its assignment to the staged
pipeline (``parallelize(..., partition=...)``: cached, validated, then
MTCG), and checks the result against the single-threaded run on the
gromacs kernel.

Run:  python examples/custom_partitioner.py
"""

from repro.graphs import condense
from repro.ir import OpKind, Opcode, format_function
from repro.machine import simulate_program, simulate_single
from repro.partition import Partition, Partitioner
from repro.api import parallelize
from repro.workloads import get_workload


class FloatOffloadPartitioner(Partitioner):
    """Thread 1 gets the FP work; thread 0 keeps integer/control/memory.

    Dependence cycles must not straddle the boundary arbitrarily, so the
    assignment is made per PDG strongly-connected component: a component
    goes to thread 1 iff the majority of its weight is floating point.
    """

    name = "float-offload"

    def partition(self, function, pdg, profile, n_threads):
        successors = pdg.successors_map()
        components, _, _ = condense(pdg.nodes, successors)
        by_iid = function.by_iid()
        assignment = {}
        for component in components:
            fp = sum(1 for iid in component
                     if by_iid[iid].kind is OpKind.FP)
            target = 1 if (n_threads > 1 and fp * 2 > len(component)) else 0
            for iid in component:
                assignment[iid] = target
        # The exit must live with the live-out consumers (thread 0 here).
        for instruction in function.instructions():
            if instruction.op is Opcode.EXIT:
                assignment[instruction.iid] = 0
        return Partition(function, n_threads, assignment)


def main() -> None:
    workload = get_workload("435.gromacs")
    train = workload.make_inputs("train")
    ref = workload.make_inputs("ref")

    # The pipeline's front half (normalize, train profile, PDG) is what
    # the partitioner reads; any technique's run provides it.
    front = parallelize(workload.build(), "dswp", profile_args=train.args,
                        profile_memory=train.memory)
    partition = FloatOffloadPartitioner().partition_of(front)
    counts = partition.counts()
    print("Partition: thread 0 gets %d instructions, thread 1 gets %d"
          % (counts[0], counts[1]))

    built = parallelize(workload.build(), profile_args=train.args,
                        profile_memory=train.memory, partition=partition)
    function, program = built.function, built.program
    print("MTCG inserted %d communication channels (%d queues)"
          % (len(program.channels), program.n_queues))

    st = simulate_single(function, ref.args, ref.memory)
    mt = simulate_program(program, ref.args, ref.memory)
    assert mt.live_outs == st.live_outs, "wrong results!"
    assert mt.memory.snapshot() == st.memory.snapshot(), "wrong memory!"
    print("Correct: MT run matches the single-threaded oracle.")
    print("Single-threaded: %.0f cycles; float-offload MT: %.0f cycles "
          "(speedup %.3fx)" % (st.cycles, mt.cycles, st.cycles / mt.cycles))
    print()
    print("First blocks of thread 1 (the FP thread):")
    text = format_function(program.threads[1])
    print("\n".join(text.splitlines()[:25]))
    print("    ...")


if __name__ == "__main__":
    main()
