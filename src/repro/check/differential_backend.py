"""Differential simulator-equivalence checker.

The production simulator core (:mod:`repro.machine.fast_timing`)
promises **bit-identical** results to its oracle, the line-for-line
reference loop (:mod:`repro.machine.timing_oracle`) — not "close",
identical:
every cycle count, every per-core stall attribution, every queue
timestamp, every live-out, down to the int/float type of each number
(the reference mixes both deliberately, and a ``1635`` silently becoming
``1635.0`` would change downstream repr-based fingerprints).  This
module is the executable form of that contract:

* :func:`snapshot_result` flattens a
  :class:`~repro.machine.timing.TimedResult` into a JSON-able tree
  whose leaves are ``[type_name, repr]`` pairs — equality of snapshots
  is bit-equality of results;
* :func:`snapshot_trace` does the same for everything a tracer sees:
  the event stream field by field, queue samples and peaks, the
  attribution tables, ``verify()`` and the ``analyze()`` document;
* :func:`diff_snapshots` returns path-labelled differences
  (``cycles: ('int', '1635') != ('float', '1635.0')``);
* :func:`run_workload_case` / :func:`run_fuzz_case` execute one
  comparison — a registry workload under a (technique, topology)
  configuration, or a seeded random program from
  :mod:`repro.check.generate` — on **both** loops and report the
  divergences plus per-loop host seconds; with ``trace_limit`` both
  loops drive a :class:`~repro.trace.TraceCollector` of that ring size
  and the trace snapshots are compared too;
* :func:`run_error_cases` — a trap, a deadlock, a step-limit run and
  a consume and a produce without queues: both loops must raise the
  same exception type and message;
* :func:`run_functional_case` / :func:`run_executor_case` hold the
  untimed executor's MT case to the reference loop's functional
  observables, and its one-thread case (``run_function``) to the step
  oracle (:func:`~repro.interp.step_oracle.run_step_oracle`);
* :func:`run_differential` sweeps the whole grid (all workloads x
  topology presets x partitioners, plus N fuzz seeds and the error
  cases), every case untraced, traced, and traced on a ring small
  enough to evict, and aggregates a machine-readable report —
  ``tools/check_backend_equivalence.py`` turns it into the CI
  ``backend-equivalence`` job and uploads the report on failure.
"""

from __future__ import annotations

import dataclasses
import random
import time
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..executor.untimed import run_function
from ..frontend.compiler import compile_source
from ..interp.step_oracle import run_step_oracle
from ..ir.builder import FunctionBuilder
from ..machine.config import DEFAULT_CONFIG
from ..machine.fast_timing import (simulate_program, simulate_single,
                                   simulate_threads_fast)
from ..machine.functional import run_mt_program
from ..machine.timing_oracle import simulate_threads_oracle
from ..pipeline.core import parallelize
from ..pipeline.fingerprint import fingerprint_profile
from ..pipeline.stages import normalize
from ..trace import DEFAULT_EVENT_LIMIT, TraceCollector, analyze
from ..workloads import all_workloads, get_workload
from .generate import (PYTHON_ENTRY, fuzz_args, random_args,
                       random_partition, random_sketch, render_program,
                       sketch_to_python)

ProgressFn = Optional[Callable[[str], None]]

#: The default comparison grid (mirrors tests/test_backend_equivalence).
DEFAULT_TOPOLOGIES = (None, "paper-dual", "quad-2x2")
DEFAULT_TECHNIQUES = ("gremio", "dswp")

#: Cores per preset: quad-2x2 fits 4 threads, the rest 2.
_TOPOLOGY_THREADS = {None: 2, "paper-dual": 2, "quad-2x2": 4}


def _typed(value):
    """JSON-able, type-preserving view: containers recurse, every leaf
    becomes ``[type_name, repr]`` so ``1`` never equals ``1.0``."""
    if isinstance(value, dict):
        return {str(key): _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return [type(value).__name__, repr(value)]


def snapshot_result(result) -> Dict[str, object]:
    """Every observable of a TimedResult, typed (see module docstring)."""
    queues = None
    if result.queues is not None:
        q = result.queues
        queues = {
            "push_counts": list(q.push_counts),
            "pop_counts": list(q.pop_counts),
            "pop_times": [list(times) for times in q.pop_times],
            "timestamps": [list(times) for times in q.timestamps],
            "staged_push_time": q.staged_push_time,
            "last_popped_time": q.last_popped_time,
            "total_pushes": q.total_pushes,
            "pushes_per_queue": list(q.pushes_per_queue),
            "max_occupancy": q.max_occupancy,
        }
    return _typed({
        "cycles": result.cycles,
        "core_finish": list(result.core_finish),
        "per_thread_instructions": list(result.per_thread_instructions),
        "per_thread_communication":
            list(result.per_thread_communication),
        "opcode_counts": dict(sorted(
            (opcode.value, count)
            for opcode, count in result.opcode_counts.items())),
        "live_outs": result.live_outs,
        "memory": list(result.memory.snapshot()),
        "cache_stats": dict(result.cache_stats),
        "comm_stats": dict(result.comm_stats),
        "queues": queues,
    })


def _error(error: Exception) -> Dict[str, object]:
    """An exception as an observable: its type and message."""
    return {"error": _typed([type(error).__name__, str(error)])}


def _outcome(call):
    """``call()``, typed — or the exception it raised."""
    try:
        return _typed(call())
    except Exception as error:
        return _error(error)


def snapshot_trace(collector) -> Dict[str, object]:
    """Every observable of a driven :class:`~repro.trace.TraceCollector`,
    typed.  An event is one leaf holding the ``repr`` of all its fields
    (``stall`` as its item list, so key order counts, and ``repr``
    tells ``3`` from ``3.0``); a divergence prints both events whole."""
    return {
        "events": _typed([repr((
            e.seq, e.core, e.thread, e.iid, e.op, e.op_class, e.issue,
            e.complete, e.queue, list(e.stall.items()), e.deps, e.extra))
            for e in collector.events]),
        "queue_samples": _typed([repr((s.queue, s.cycle, s.depth))
                                 for s in collector.queue_samples]),
        "aggregates": _typed({
            "total_events": collector.total_events,
            "events_dropped": collector.events.dropped,
            "queue_samples_dropped": collector.queue_samples.dropped,
            "queue_peak": collector.queue_peak,
            "core_table": collector.core_table(),
            "class_table": collector.class_table(),
            "thread_stalls": collector.threads,
            "cluster_of": collector.cluster_of,
            "core_finish": collector.core_finish,
            "cache_stats": collector.cache_stats,
            "comm_stats": collector.comm_stats,
        }),
        "verify": _outcome(collector.verify),
        "analyze": _outcome(lambda: analyze(collector).to_dict()),
    }


def diff_snapshots(reference, fast, path: str = "",
                   limit: int = 50) -> List[str]:
    """Path-labelled differences between two snapshots (both sides
    produced by :func:`snapshot_result`)."""
    diffs: List[str] = []
    _diff(reference, fast, path, diffs)
    return diffs[:limit]


def _diff(a, b, path: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            _diff(a.get(key), b.get(key),
                  "%s.%s" % (path, key) if path else str(key), out)
        return
    if isinstance(a, list) and isinstance(b, list) \
            and not _is_leaf(a) and not _is_leaf(b):
        if len(a) != len(b):
            out.append("%s: length %d != %d" % (path, len(a), len(b)))
            return
        for index, (left, right) in enumerate(zip(a, b)):
            _diff(left, right, "%s[%d]" % (path, index), out)
        return
    if a != b:
        out.append("%s: %r != %r" % (path, a, b))


def _is_leaf(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(item, str) for item in value))


class CaseResult:
    """One executed comparison: a label, the divergences (empty =
    bit-identical), and the per-loop host seconds."""

    def __init__(self, label: str, divergences: List[str],
                 reference_seconds: float, fast_seconds: float):
        self.label = label
        self.divergences = divergences
        self.reference_seconds = reference_seconds
        self.fast_seconds = fast_seconds

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, object]:
        return {"label": self.label, "ok": self.ok,
                "divergences": list(self.divergences),
                "reference_seconds": round(self.reference_seconds, 6),
                "fast_seconds": round(self.fast_seconds, 6)}

    def __repr__(self) -> str:  # pragma: no cover
        return "<CaseResult %s: %s>" % (
            self.label, "ok" if self.ok else
            "%d divergences" % len(self.divergences))


def _capture(run, trace_limit: int, snapshot_of=snapshot_result):
    """Run one loop (``run(tracer)``), with a collector of
    ``trace_limit`` events when that is nonzero; returns the snapshot
    of its result and the host seconds of the run alone.  An exception
    is an observable too — both loops must raise the same type with the same
    message (fuzz programs trap by design: division by zero, undefined
    registers), whatever the tracer had seen by then."""
    collector = TraceCollector(limit=trace_limit) if trace_limit else None
    started = time.perf_counter()
    try:
        result = run(collector)
    except Exception as error:
        return _error(error), time.perf_counter() - started
    seconds = time.perf_counter() - started
    snapshot = {"result": snapshot_of(result)}
    if collector is not None:
        snapshot["trace"] = snapshot_trace(collector)
    return snapshot, seconds


def _label(label: str, trace_limit: int) -> str:
    if not trace_limit:
        return label
    return label + ("/traced" if trace_limit == DEFAULT_EVENT_LIMIT
                    else "/traced-ring%d" % trace_limit)


def _compare(label: str, run_reference, run_fast,
             trace_limit: int = 0,
             snapshot_of=snapshot_result) -> CaseResult:
    label = _label(label, trace_limit)
    reference, reference_seconds = _capture(run_reference, trace_limit,
                                            snapshot_of)
    fast, fast_seconds = _capture(run_fast, trace_limit, snapshot_of)
    return CaseResult(label, diff_snapshots(reference, fast),
                      reference_seconds, fast_seconds)


def run_workload_case(workload_name: str,
                      technique: Optional[str] = None,
                      topology: Optional[str] = None,
                      n_threads: int = 2,
                      scale: str = "train",
                      trace_limit: int = 0) -> CaseResult:
    """Compare both loops on one registry workload.

    ``technique=None`` runs the single-threaded simulator; otherwise the
    workload is parallelized once (the build side does not simulate)
    and the resulting MT program timed by both.  A nonzero
    ``trace_limit`` attaches a collector of that ring size to both runs
    and compares what it saw as well.
    """
    return _workload_cases(workload_name, technique, topology, n_threads,
                           scale, (trace_limit,))[0]


def _both_loops(simulate, *args, **options):
    """The two sides of a timed case: ``simulate`` (an entry point) run
    on the reference loop, then on the fast core, with the case's
    tracer."""
    return (lambda tracer: simulate(*args, tracer=tracer, **options,
                                    simulate_threads=simulate_threads_oracle),
            lambda tracer: simulate(*args, tracer=tracer, **options))


def _workload_cases(workload_name: str, technique: Optional[str],
                    topology: Optional[str], n_threads: int, scale: str,
                    trace_limits: Sequence[int]) -> List[CaseResult]:
    """One :func:`run_workload_case` per entry of ``trace_limits``, all
    on one build — and for an MT build, one :func:`run_functional_case`
    on it after them."""
    workload = get_workload(workload_name)
    inputs = workload.make_inputs(scale)
    label = "%s/%s/%s/%dT" % (workload_name, technique or "st",
                              topology or "flat", n_threads)
    if technique is None:
        runs = _both_loops(simulate_single, workload.build(), inputs.args,
                           inputs.memory)
    else:
        train = workload.make_inputs("train")
        built = parallelize(workload.build(), technique=technique,
                            n_threads=n_threads, profile_args=train.args,
                            profile_memory=train.memory, cache=False,
                            topology=topology)
        runs = _both_loops(simulate_program, built.program, inputs.args,
                           inputs.memory, config=built.config)
    cases = [_compare(label, *runs, trace_limit=limit)
             for limit in trace_limits]
    if technique is not None:
        cases.append(run_functional_case(label, built.program, inputs.args,
                                         inputs.memory, built.config))
    return cases


#: The synchronization-array stress build: a DSWP pipeline whose
#: produce/consume traffic, on one SA port per cluster with a 2-cycle
#: access, both collides on the port and fills 1- and 32-entry queues.
SA_STRESS_WORKLOAD = ("458.sjeng", "dswp")
SA_STRESS_QUEUE_SIZES = (1, 32)
#: Topologies of the stress cases: the flat machine and a clustered one
#: (per-cluster SA slices, crossing penalties), with their thread counts.
SA_STRESS_TOPOLOGIES = ((None, 2), ("quad-2x2", 4))


def sa_stress_config(config, queue_size: int):
    """``config`` with ``queue_size``-entry queues, one SA port and a
    2-cycle SA access — on the topology's own SA slices too when the
    machine has an explicit topology."""
    stress = {"sa_ports": 1, "sa_access_latency": 2}
    topology = config.topology
    if topology is not None:
        topology = dataclasses.replace(topology, **stress)
    return dataclasses.replace(config, sa_queue_size=queue_size,
                               topology=topology, **stress)


def run_sa_stress_cases(topology: Optional[str] = None,
                        n_threads: int = 2, scale: str = "train",
                        trace_limits: Sequence[int] = (0,)
                        ) -> List[CaseResult]:
    """Both loops on the :data:`SA_STRESS_WORKLOAD` build under
    :func:`sa_stress_config`, one case per queue size and trace limit.
    A case also fails unless the fast run reports SA port delays and
    back-pressure cycles: both displacement branches of the core's
    inlined SA path must have run for the case to count."""
    workload_name, technique = SA_STRESS_WORKLOAD
    workload = get_workload(workload_name)
    inputs = workload.make_inputs(scale)
    train = workload.make_inputs("train")
    built = parallelize(workload.build(), technique=technique,
                        n_threads=n_threads, profile_args=train.args,
                        profile_memory=train.memory, cache=False,
                        topology=topology)
    cases = []
    for queue_size in SA_STRESS_QUEUE_SIZES:
        config = sa_stress_config(built.config, queue_size)
        reference, fast = _both_loops(simulate_program, built.program,
                                      inputs.args, inputs.memory,
                                      config=config)
        label = "sa-stress/%s/%s/%s/q%d/%dT" % (
            workload_name, technique, topology or "flat", queue_size,
            n_threads)
        for limit in trace_limits:
            seen = []

            def observed(tracer, fast=fast, seen=seen):
                result = fast(tracer)
                seen.append(result.comm_stats)
                return result
            case = _compare(label, reference, observed, trace_limit=limit)
            for counter in ("sa_port_delays", "backpressure_cycles"):
                if not (seen and seen[0][counter] > 0):
                    case.divergences.append(
                        "comm_stats.%s: not > 0, the case does not "
                        "stress the SA" % counter)
            cases.append(case)
    return cases


def _fuzz_program(seed: int, depth: int, max_threads: int):
    """The seeded random program of :func:`run_fuzz_case`: the function
    (normalized), its arguments, and its MTCG program on a random
    partition (built uncached: a random program's artifacts never
    recur)."""
    rng = random.Random(seed)
    sketch = random_sketch(rng, depth=depth)
    args = random_args(rng)
    n_threads = rng.randint(2, max_threads)
    function = normalize(render_program(sketch))
    partition = random_partition(random.Random(seed * 7919 + 13),
                                 function, n_threads=n_threads)
    return function, args, parallelize(
        function, n_threads=n_threads, normalized=True, cache=False,
        partition=partition).program


def run_fuzz_case(seed: int, depth: int = 2,
                  max_threads: int = 3,
                  trace_limit: int = 0) -> CaseResult:
    """Compare both loops on one seeded random program: the
    single-threaded run, plus an MTCG program built from a random
    partition of the same function (the adversarial shapes the
    workload registry never produces); ``trace_limit`` as in
    :func:`run_workload_case`."""
    function, args, program = _fuzz_program(seed, depth, max_threads)
    n_threads = program.n_threads
    st = _compare("fuzz-%d/st" % seed,
                  *_both_loops(simulate_single, function, args),
                  trace_limit=trace_limit)
    mt = _compare("fuzz-%d/random-%dT" % (seed, n_threads),
                  *_both_loops(simulate_program, program, args),
                  trace_limit=trace_limit)

    return CaseResult(
        _label("fuzz-%d" % seed, trace_limit),
        st.divergences + mt.divergences,
        st.reference_seconds + mt.reference_seconds,
        st.fast_seconds + mt.fast_seconds)


def _error_programs():
    """``(label, program, max_steps)`` of the runs that end in an
    exception: a trap (read of an undefined register), a deadlock (two
    threads consuming from queues nobody feeds), the step limit, and a
    consume and a produce in a run without queues (each a trap)."""
    def thread(name, body):
        builder = FunctionBuilder(name, params=["r_n"], live_outs=["r_s"])
        builder.label("entry")
        builder.movi("r_s", 1)
        builder.add("r_s", "r_s", "r_n")
        body(builder)
        builder.exit()
        return builder.build(verify=False)  # not what a frontend emits

    def spin(builder):
        builder.jmp("loop")
        builder.label("loop")
        builder.add("r_s", "r_s", 1)
        builder.jmp("loop")
        builder.label("never")

    def program(*threads, n_queues=0):
        return SimpleNamespace(original=threads[0], threads=list(threads),
                               n_threads=len(threads), exit_thread=0,
                               n_queues=n_queues, channels=[])

    return (
        ("trap", program(thread("trap", lambda b: b.add("r_s", "r_undefined",
                                                         1))), 100_000),
        ("deadlock", program(thread("wait0", lambda b: b.consume("r_s", 0)),
                             thread("wait1", lambda b: b.consume_sync(1)),
                             n_queues=2), 100_000),
        ("max-steps", program(thread("spin", spin)), 500),
        ("consume-without-queues", program(
            thread("lone", lambda b: b.consume("r_s", 0))), 100_000),
        ("produce-without-queues", program(
            thread("lone", lambda b: b.produce(0, "r_s"))), 100_000),
    )


def run_error_cases(trace_limit: int = 0) -> List[CaseResult]:
    """The :func:`_error_programs` on both thread loops: each must raise
    the same exception type with the same message, tracer or not."""
    cases = []
    for label, program, max_steps in _error_programs():
        def run(simulate_threads, tracer):
            return simulate_threads(
                program.threads, 0, program.original, {"r_n": 3},
                config=DEFAULT_CONFIG.with_cores(program.n_threads),
                n_queues=program.n_queues, max_steps=max_steps,
                tracer=tracer)
        cases.append(_compare(
            "error/%s" % label,
            lambda tracer: run(simulate_threads_oracle, tracer),
            lambda tracer: run(simulate_threads_fast, tracer),
            trace_limit))
    return cases


# ---------------------------------------------------------------------------
# The untimed executor's MT case against the reference stepper.

def snapshot_functional(result) -> Dict[str, object]:
    """The functional observables of an MT run, typed: what both an
    :class:`~repro.machine.functional.MTRunResult` and a
    :class:`~repro.machine.timing.TimedResult` carry."""
    return _typed({
        "live_outs": result.live_outs,
        "memory": list(result.memory.snapshot()),
        "per_thread_instructions": list(result.per_thread_instructions),
        "per_thread_communication":
            list(result.per_thread_communication),
        "opcode_counts": dict(sorted(
            (opcode.value, count)
            for opcode, count in result.opcode_counts.items())),
        "pushes_per_queue": list(getattr(result.queues, "pushes_per_queue",
                                         [])),
    })


def run_functional_case(label: str, program, args=None, memory=None,
                        config=DEFAULT_CONFIG,
                        max_steps: int = 100_000_000) -> CaseResult:
    """Compare :func:`~repro.machine.functional.run_mt_program` (the
    "fast" side) at ``config.sa_queue_size`` with the reference timed
    loop (one ``ThreadContext`` step per instruction) on ``config``:
    equal :func:`snapshot_functional`, or the same exception type and
    message."""
    return _compare(
        "functional/" + label,
        lambda tracer: simulate_program(
            program, args, memory, config=config, max_steps=max_steps,
            simulate_threads=simulate_threads_oracle),
        lambda tracer: run_mt_program(program, args, memory,
                                      config.sa_queue_size, max_steps),
        snapshot_of=snapshot_functional)


def run_functional_workload_case(workload_name: str, technique: str,
                                 topology: Optional[str] = None,
                                 n_threads: int = 2,
                                 scale: str = "train") -> CaseResult:
    """:func:`run_functional_case` on one registry workload's MT build
    (the cell of :func:`run_workload_case`)."""
    return _workload_cases(workload_name, technique, topology, n_threads,
                           scale, ())[0]


def run_functional_fuzz_cases(seed: int, depth: int = 2,
                              max_threads: int = 3) -> List[CaseResult]:
    """:func:`run_functional_case` on the random partition of
    :func:`run_fuzz_case` (same seed, same program), with one-entry
    queues and with DSWP's 32-entry queues."""
    _, args, program = _fuzz_program(seed, depth, max_threads)
    return [run_functional_case("fuzz-%d/q%d" % (seed, config.sa_queue_size),
                                program, args, config=config)
            for config in (DEFAULT_CONFIG, DEFAULT_CONFIG.for_dswp())]


def run_functional_error_cases() -> List[CaseResult]:
    """:func:`run_functional_case` on the :func:`_error_programs`."""
    return [run_functional_case("error/" + label, program, {"r_n": 3},
                                max_steps=max_steps)
            for label, program, max_steps in _error_programs()]


# ---------------------------------------------------------------------------
# The untimed executor (the ``profile`` stage's) against its oracle.

def snapshot_run(run) -> Dict[str, object]:
    """Every observable of a :class:`~repro.executor.untimed
    .RunResult`, typed.  The profile's two dicts are item lists, so key
    order counts, and its fingerprint — what partition cache keys are
    made of — is compared outright."""
    profile = run.profile
    return _typed({
        "block_counts": list(profile.block_counts.items()),
        "edge_counts": list(profile.edge_counts.items()),
        "profile_fingerprint": fingerprint_profile(profile),
        "regs": dict(sorted(run.regs.items())),
        "live_outs": run.live_outs,
        "memory": list(run.memory.snapshot()),
        "dynamic_instructions": run.dynamic_instructions,
        "opcode_counts": dict(sorted(
            (opcode.value, count)
            for opcode, count in run.opcode_counts.items())),
    })


def run_executor_case(label: str, function, args=None, memory=None,
                      expect: Optional[str] = None,
                      **options) -> CaseResult:
    """Compare :func:`~repro.executor.untimed.run_function` (the "fast"
    side of the :class:`CaseResult`) with the step oracle,
    :func:`~repro.interp.step_oracle.run_step_oracle`, on one function
    and input set: equal
    :func:`snapshot_run`, or the same exception type and message.
    ``expect`` names the exception type the run must end in — an error
    case in which both sides *succeed* is a divergence too."""
    case = _compare(
        "profile/" + label,
        lambda tracer: run_step_oracle(function, args, memory, **options),
        lambda tracer: run_function(function, args, memory, **options),
        snapshot_of=snapshot_run)
    if expect is not None:
        try:
            run_step_oracle(function, args, memory, **options)
            raised = "no exception"
        except Exception as error:
            raised = type(error).__name__
        if raised != expect:
            case.divergences.append("oracle raised %s, case expects %s"
                                    % (raised, expect))
    return case


def run_executor_workload_case(workload_name: str,
                               scale: str = "train") -> CaseResult:
    """Both executors on a registry workload as the ``profile`` stage
    sees it (normalized), on its ``scale`` inputs."""
    workload = get_workload(workload_name)
    inputs = workload.make_inputs(scale)
    return run_executor_case("%s/%s" % (workload_name, scale),
                             normalize(workload.build()),
                             inputs.args, inputs.memory)


def run_executor_fuzz_case(seed: int, depth: int = 2) -> CaseResult:
    """Both executors on the seeded random program of
    :func:`run_fuzz_case` (same seed, same program)."""
    rng = random.Random(seed)
    function = normalize(render_program(random_sketch(rng, depth=depth)))
    return run_executor_case("fuzz-%d" % seed, function, random_args(rng))


def run_executor_frontend_case(iteration: int, seed: int = 0,
                               depth: int = 2) -> CaseResult:
    """Both executors on program ``iteration`` of the fuzzer's run
    ``seed`` (:func:`repro.check.fuzz.run_fuzz`: the grammar's sketches
    rendered to Python and compiled by the frontend, so FP conversions,
    ``fdiv`` and ``fsqrt`` appear), on its first input set."""
    rng = random.Random(seed * 1_000_003 + iteration)
    source = sketch_to_python(random_sketch(rng, depth=depth))
    args = fuzz_args(rng)
    program = compile_source(source, name=PYTHON_ENTRY)
    return run_executor_case(
        "frontend-%d-%d" % (seed, iteration), program.function,
        {"in0": args["in0"], "in1": args["in1"]}, {"m": args["memory"]})


def run_executor_error_cases() -> List[CaseResult]:
    """One run per way a single-threaded execution ends in an
    exception; both executors must raise the same type and message."""
    def program(body):
        builder = FunctionBuilder("faulty", params=["r_n", "p_m"],
                                  live_outs=["r_s"])
        builder.mem("m", 4, ptr="p_m")
        builder.label("entry")
        builder.movi("r_s", 1)
        builder.movi("r_zero", 0)
        builder.itof("r_half", "r_s")
        body(builder)
        builder.exit()
        return builder.build(verify=False)  # not what a frontend emits

    def count_to_n(builder):
        builder.movi("r_i", 0)
        builder.jmp("loop")
        builder.label("loop")
        builder.add("r_i", "r_i", 1)
        builder.cmplt("r_c", "r_i", "r_n")
        builder.br("r_c", "loop", "done")
        builder.label("done")

    trap, memory_error = "TrapError", "MemoryError_"
    table = (
        ("undef-first-source", trap, lambda b: b.add("r_s", "r_x", "r_s")),
        ("undef-second-source", trap, lambda b: b.add("r_s", "r_s", "r_x")),
        ("undef-immediate-form", trap, lambda b: b.add("r_s", "r_x", 1)),
        ("undef-unary", trap, lambda b: b.neg("r_s", "r_x")),
        ("undef-load-base", trap, lambda b: b.load("r_s", "r_x")),
        ("undef-store-base", trap, lambda b: b.store("r_x", "r_s")),
        ("undef-store-value", trap, lambda b: b.store("p_m", "r_x")),
        ("undef-branch", trap, lambda b: (b.br("r_x", "t", "t"),
                                          b.label("t"))),
        ("idiv-zero", trap, lambda b: b.idiv("r_s", "r_n", "r_zero")),
        ("idiv-zero-immediate", trap, lambda b: b.idiv("r_s", "r_n", 0)),
        ("imod-zero", trap, lambda b: b.imod("r_s", "r_n", "r_zero")),
        ("fdiv-zero", trap, lambda b: b.fdiv("r_s", "r_half", "r_zero")),
        ("load-out-of-bounds", memory_error,
         lambda b: b.load("r_s", "p_m", 4)),
        ("load-negative-address", memory_error,
         lambda b: b.load("r_s", "p_m", -1)),
        ("store-out-of-bounds", memory_error,
         lambda b: b.store("p_m", "r_s", 4)),
        ("load-float-address", trap, lambda b: b.load("r_s", "r_half")),
        ("store-float-address", trap,
         lambda b: b.store("r_half", "r_s")),
        ("produce", trap, lambda b: b.produce(0, "r_s")),
        ("produce-sync", trap, lambda b: b.produce_sync(0)),
        ("consume", trap, lambda b: b.consume("r_s", 0)),
        ("consume-sync", trap, lambda b: b.consume_sync(0)),
    )
    cases = [run_executor_case("error/" + label, program(body),
                               {"r_n": 3}, expect=expect)
             for label, expect, body in table]
    # count_to_n runs 5 + 3n + 1 instructions: the budget that just fits,
    # one that ends on a block boundary, one that ends inside a block,
    # and none at all.
    counting = program(count_to_n)
    for max_steps, expect in ((15, None), (14, "ExecutionLimitExceeded"),
                              (13, "ExecutionLimitExceeded"),
                              (0, "ExecutionLimitExceeded")):
        cases.append(run_executor_case(
            "error/max-steps-%d" % max_steps, counting, {"r_n": 3},
            expect=expect, max_steps=max_steps))
    cases.append(run_executor_case(
        "error/unknown-argument", counting, {"r_n": 3, "r_bogus": 1},
        expect=memory_error))
    cases.append(run_executor_case(
        "error/missing-argument", counting, {}, expect=memory_error))
    cases.append(run_executor_case(
        "error/unknown-memory-object", counting, {"r_n": 3},
        {"nope": [1]}, expect=memory_error))
    return cases


class DifferentialReport:
    """Aggregate of one equivalence sweep."""

    def __init__(self):
        self.cases: List[CaseResult] = []

    def add(self, case: CaseResult) -> None:
        self.cases.append(case)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if not case.ok]

    @property
    def reference_seconds(self) -> float:
        return sum(case.reference_seconds for case in self.cases)

    @property
    def fast_seconds(self) -> float:
        return sum(case.fast_seconds for case in self.cases)

    def speedup(self) -> float:
        return self.reference_seconds / max(self.fast_seconds, 1e-9)

    def summary(self) -> str:
        return ("backend-equivalence: %d cases, %d divergent; "
                "reference %.2fs, fast %.2fs (%.2fx)"
                % (len(self.cases), len(self.failures),
                   self.reference_seconds, self.fast_seconds,
                   self.speedup()))

    def as_dict(self) -> Dict[str, object]:
        return {"schema": "repro.check.backend-equivalence/v1",
                "ok": self.ok,
                "cases": [case.as_dict() for case in self.cases],
                "reference_seconds": round(self.reference_seconds, 4),
                "fast_seconds": round(self.fast_seconds, 4)}


#: The collector ring sizes every case of the sweep runs with: none
#: (untraced), the default (nothing evicted), and one small enough that
#: every workload overflows it, so ``dropped`` and the exact aggregates
#: kept outside the ring are compared too.
TRACE_LIMITS = (0, DEFAULT_EVENT_LIMIT, 64)


def run_differential(workloads: Optional[Iterable[str]] = None,
                     topologies: Sequence[Optional[str]]
                     = DEFAULT_TOPOLOGIES,
                     techniques: Sequence[str] = DEFAULT_TECHNIQUES,
                     scale: str = "train",
                     fuzz_seeds: Iterable[int] = (),
                     progress: ProgressFn = None) -> DifferentialReport:
    """Sweep the full equivalence grid and aggregate the report.

    Every (workload x topology x technique) cell plus the
    single-threaded run per workload, the :func:`run_sa_stress_cases`
    on each of :data:`SA_STRESS_TOPOLOGIES`, then one :func:`run_fuzz_case`
    per seed, then :func:`run_error_cases` — each once per entry of
    :data:`TRACE_LIMITS`; the untimed executor against
    the step oracle on every workload, on the program of every fuzz
    seed (rendered to IR, and compiled from Python) and on its own
    error cases; and ``run_mt_program`` against the reference timed
    loop on every MT cell, every fuzz seed's random partition and the
    error programs.  Any divergence makes ``report.ok`` false;
    nothing short-circuits, so the report always carries the complete
    failure list.
    """
    report = DifferentialReport()

    def add(cases: Iterable[CaseResult]) -> None:
        for case in cases:
            report.add(case)
            if progress:
                progress("%s: %s" % (case.label,
                                     "ok" if case.ok else "FAIL"))

    names = list(workloads) if workloads is not None \
        else [workload.name for workload in all_workloads()]
    for name in names:
        add([run_executor_workload_case(name, scale)])
        add(_workload_cases(name, None, None, 2, scale, TRACE_LIMITS))
        for topology in topologies:
            n_threads = _TOPOLOGY_THREADS.get(topology, 2)
            for technique in techniques:
                add(_workload_cases(name, technique, topology, n_threads,
                                    scale, TRACE_LIMITS))
    for topology, n_threads in SA_STRESS_TOPOLOGIES:
        add(run_sa_stress_cases(topology, n_threads, scale, TRACE_LIMITS))
    for seed in fuzz_seeds:
        add([run_executor_fuzz_case(seed),
             run_executor_frontend_case(seed)])
        add(run_functional_fuzz_cases(seed))
        add(run_fuzz_case(seed, trace_limit=limit)
            for limit in TRACE_LIMITS)
    add(run_executor_error_cases())
    add(run_functional_error_cases())
    for limit in TRACE_LIMITS:
        add(run_error_cases(limit))
    return report
