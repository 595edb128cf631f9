"""Failure-injection tests: the machinery must *detect* broken inputs —
deadlocks, malformed partitions, corrupted MT code — not silently
mis-execute."""

import pytest

from repro.analysis import build_pdg
from repro.ir import (FunctionBuilder, Opcode,
                      VerificationError, verify_function)
from repro.machine import (DeadlockError, MTExecutionLimitExceeded,
                           run_mt_program)
from repro.mtcg import generate
from repro.mtcg.codegen import CodegenError
from repro.partition import Partition, PartitionError

from .helpers import build_counted_loop, build_diamond
from .mt_utils import make_mt, round_robin_partition


class TestPartitionValidation:
    def test_missing_instruction_rejected(self):
        f = build_diamond()
        iids = [i.iid for i in f.instructions()]
        with pytest.raises(PartitionError):
            Partition(f, 2, {iid: 0 for iid in iids[:-1]})

    def test_unknown_iid_rejected(self):
        f = build_diamond()
        assignment = {i.iid: 0 for i in f.instructions()}
        assignment[9999] = 1
        with pytest.raises(PartitionError):
            Partition(f, 2, assignment)

    def test_out_of_range_thread_rejected(self):
        f = build_diamond()
        assignment = {i.iid: 0 for i in f.instructions()}
        assignment[next(iter(assignment))] = 5
        with pytest.raises(PartitionError):
            Partition(f, 2, assignment)


class TestCodegenValidation:
    def test_split_exits_rejected(self):
        b = FunctionBuilder("twoexits", params=["r_c"], live_outs=[])
        b.label("entry")
        b.br("r_c", "e1", "e2")
        b.label("e1")
        b.exit()
        b.label("e2")
        b.exit()
        f = b.build()
        pdg = build_pdg(f)
        exits = [i.iid for i in f.instructions() if i.op is Opcode.EXIT]
        assignment = {i.iid: 0 for i in f.instructions()}
        assignment[exits[1]] = 1
        partition = Partition(f, 2, assignment)
        with pytest.raises(CodegenError):
            generate(f, pdg, partition)

    def test_unknown_queue_allocation_rejected(self):
        f = build_counted_loop()
        pdg = build_pdg(f)
        partition = round_robin_partition(f, 2)
        with pytest.raises(CodegenError):
            generate(f, pdg, partition, queue_allocation="???")


class TestDeadlockDetection:
    def test_mutual_wait_detected(self):
        """Hand-built MT code with crossed consumes deadlocks; the
        functional simulator must say so rather than hang."""
        def thread(name, produce_queue, consume_queue):
            b = FunctionBuilder(name, params=[], live_outs=[])
            b.label("entry")
            b.consume("r_x", consume_queue)     # wait first: deadlock
            b.produce(produce_queue, "r_x")
            b.exit()
            return b.build(verify=False)

        t0 = thread("t0", 0, 1)
        t1 = thread("t1", 1, 0)

        class FakeProgram:
            original = t0
            threads = [t0, t1]
            n_threads = 2
            n_queues = 2
            exit_thread = 0
            channels = []
        FakeProgram.original = t0
        with pytest.raises(DeadlockError):
            run_mt_program(FakeProgram(), {})

    def test_generated_code_never_deadlocks_even_tiny_queues(self):
        f = build_counted_loop()
        partition = round_robin_partition(f, 3)
        mt = make_mt(f, partition)
        result = run_mt_program(mt, {"r_n": 30}, queue_capacity=1)
        assert result.live_outs == {"r_s": sum(range(30))}

    def test_step_limit_triggers(self):
        f = build_counted_loop()
        partition = round_robin_partition(f, 2)
        mt = make_mt(f, partition)
        with pytest.raises(MTExecutionLimitExceeded):
            run_mt_program(mt, {"r_n": 1000}, max_steps=50)


class TestVerifierCatchesCorruption:
    def test_dangling_branch_after_corruption(self):
        f = build_counted_loop()
        partition = round_robin_partition(f, 2)
        mt = make_mt(f, partition)
        thread = mt.threads[0]
        # Corrupt: retarget some branch to a nonexistent block.
        for block in thread.blocks:
            terminator = block.terminator
            if terminator is not None and terminator.labels:
                terminator.labels = ("nowhere",) * len(terminator.labels)
                break
        with pytest.raises(VerificationError):
            verify_function(thread, allow_comm=True)

    def test_dropped_consume_detected(self):
        """Removing a consume whose value feeds a computation leaves that
        register undefined in the thread: the defined-before-use check
        notices."""
        f = build_counted_loop()
        body_add = f.block("body").instructions[0]   # r_s += r_i
        others = [i.iid for i in f.instructions()
                  if i.iid != body_add.iid]
        from repro.partition import partition_from_threads
        partition = partition_from_threads(f, 2, [others, [body_add.iid]])
        mt = make_mt(f, partition)
        consumer = mt.threads[1]
        # Drop every consume of r_i: the add's only sources of r_i are
        # the communication channels, so no definition may reach it.
        dropped = 0
        for block in consumer.blocks:
            kept = []
            for instruction in block:
                if instruction.op is Opcode.CONSUME \
                        and instruction.dest == "r_i":
                    dropped += 1
                    continue
                kept.append(instruction)
            block.instructions = kept
        assert dropped >= 1
        with pytest.raises(VerificationError):
            verify_function(consumer, allow_comm=True)
