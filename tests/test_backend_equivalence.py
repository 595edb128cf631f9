"""Differential equivalence of the simulator and its oracle.

The contract under test (see ``docs/performance.md``): for every
program the production core (:mod:`repro.machine.fast_timing`) produces
results **bit-identical** to the reference loop
(:mod:`repro.machine.timing_oracle`) — cycles, per-core finish times, stall
attributions, queue internals, live-outs, memory images, and the
int-vs-float type of every number — and, with a tracer attached,
everything the tracer sees.  The grid is every registry workload
x {paper-dual, quad-2x2} x {GREMIO, DSWP} x {untraced, traced}, plus
the single-threaded simulator per workload, a synchronization-array
stress build (one SA port, 1- and 32-entry queues), whole-pipeline
``Evaluation.metrics()`` parity, seeded random programs from
:mod:`repro.check.generate`, the error paths, and the pipeline's choice
between the two loops.
"""

import pytest

from repro import machine
from repro.api import (EvaluateRequest, RequestValidationError,
                       configure_cache, evaluate, evaluate_workload,
                       get_cache, get_workload, workload_names)
from repro.check.differential_backend import (SA_STRESS_QUEUE_SIZES,
                                              SA_STRESS_TOPOLOGIES,
                                              SA_STRESS_WORKLOAD,
                                              diff_snapshots,
                                              run_error_cases,
                                              run_fuzz_case,
                                              run_workload_case,
                                              sa_stress_config,
                                              snapshot_result,
                                              snapshot_trace)
from repro.machine import fast_timing, timing_oracle
from repro.machine.fast_timing import simulate_program, simulate_single
from repro.machine.timing_oracle import simulate_threads_oracle
from repro.pipeline import stages
from repro.pipeline.core import parallelize

#: (topology preset, threads that fill it).
TOPOLOGIES = (("paper-dual", 2), ("quad-2x2", 4))
TECHNIQUES = ("gremio", "dswp")

_BUILDS = {}


def _built(name, technique, topology, n_threads):
    """One parallelization per grid point, shared by the trace-on and
    trace-off cases (the build side is backend-agnostic)."""
    key = (name, technique, topology, n_threads)
    if key not in _BUILDS:
        workload = get_workload(name)
        train = workload.make_inputs("train")
        _BUILDS[key] = parallelize(
            workload.build(), technique=technique, n_threads=n_threads,
            profile_args=train.args, profile_memory=train.memory,
            cache=False, topology=topology)
    return _BUILDS[key]


def _assert_identical(reference_snap, fast_snap, label):
    divergences = diff_snapshots(reference_snap, fast_snap)
    assert not divergences, "%s diverged:\n%s" % (
        label, "\n".join(divergences[:10]))


@pytest.mark.parametrize("name", workload_names())
def test_single_threaded_bit_identical(name):
    workload = get_workload(name)
    inputs = workload.make_inputs("train")
    reference = simulate_single(
        workload.build(), inputs.args, inputs.memory,
        simulate_threads=simulate_threads_oracle)
    fast = simulate_single(
        workload.build(), inputs.args, inputs.memory)
    _assert_identical(snapshot_result(reference), snapshot_result(fast),
                      "%s/st" % name)


@pytest.mark.parametrize("topology,n_threads", TOPOLOGIES)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("name", workload_names())
def test_multi_threaded_bit_identical(name, technique, topology,
                                      n_threads):
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    reference = simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config,
        simulate_threads=simulate_threads_oracle)
    fast = simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config)
    ref_snap = snapshot_result(reference)
    fast_snap = snapshot_result(fast)
    _assert_identical(ref_snap, fast_snap,
                      "%s/%s/%s" % (name, technique, topology))
    # Per-core stall attributions reconcile, not just the total cycles:
    # the snapshot covers comm_stats (SA port delays, backpressure,
    # operand waits), per-core finish times, and queue timestamps.
    for field in ("core_finish", "comm_stats", "queues", "cache_stats"):
        assert ref_snap[field] == fast_snap[field]


@pytest.mark.parametrize("topology,n_threads", TOPOLOGIES)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("name", workload_names())
def test_traced_runs_bit_identical(name, technique, topology, n_threads):
    """Traced fast == traced reference on everything a tracer sees: the
    ``InstructionEvent`` stream field by field (``stall`` key order
    included), queue samples and peaks, the core/class/thread tables,
    ``verify()`` and the ``analyze()`` document, critical path included
    — and the traced result is the untraced one, accounting for exactly
    its cycles."""
    from repro.trace import TraceCollector
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    label = "%s/%s/%s/traced" % (name, technique, topology)
    reference_trace, fast_trace = TraceCollector(), TraceCollector()
    reference = simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config,
        tracer=reference_trace, simulate_threads=simulate_threads_oracle)
    traced = simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config,
        tracer=fast_trace)
    untraced = simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config)
    _assert_identical(snapshot_trace(reference_trace),
                      snapshot_trace(fast_trace), label)
    _assert_identical(snapshot_result(reference), snapshot_result(traced),
                      label + "/result")
    _assert_identical(snapshot_result(traced), snapshot_result(untraced),
                      label + "/untraced")
    assert fast_trace.total_events == untraced.dynamic_instructions
    assert fast_trace.total_cycles == untraced.cycles
    for core, row in fast_trace.core_table().items():
        assert row["total"] == row["finish"] == untraced.core_finish[core]


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("queue_size", SA_STRESS_QUEUE_SIZES)
@pytest.mark.parametrize("topology,n_threads", SA_STRESS_TOPOLOGIES)
def test_sa_stress_bit_identical(topology, n_threads, queue_size, traced):
    """One SA port, a 2-cycle SA access, 1- and 32-entry queues: the
    produce/consume traffic collides on the port and fills the queues,
    so both displacement branches of the fast core's inlined SA path
    run — and the result (and trace) still equals the oracle's."""
    from repro.trace import TraceCollector
    name, technique = SA_STRESS_WORKLOAD
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    config = sa_stress_config(built.config, queue_size)
    tracers = ((TraceCollector(), TraceCollector()) if traced
               else (None, None))
    reference = simulate_program(
        built.program, inputs.args, inputs.memory, config=config,
        tracer=tracers[0], simulate_threads=simulate_threads_oracle)
    fast = simulate_program(built.program, inputs.args, inputs.memory,
                            config=config, tracer=tracers[1])
    label = "%s/%s/q%d" % (name, topology or "flat", queue_size)
    _assert_identical(snapshot_result(reference), snapshot_result(fast),
                      label)
    if traced:
        _assert_identical(snapshot_trace(tracers[0]),
                          snapshot_trace(tracers[1]), label + "/traced")
    assert fast.comm_stats["sa_port_delays"] > 0
    assert fast.comm_stats["backpressure_cycles"] > 0


def test_snapshot_trace_tells_events_apart():
    """The traced gate is only as good as its snapshot: one stall key
    reordered, one ``3`` turned ``3.0``, must each show as a diff."""
    from repro.trace import TraceCollector

    def snap(stall, complete):
        collector = TraceCollector()
        collector.on_event(0, 0, 6, "movi", "alu", 0, 1)
        collector.on_event(0, 0, 7, "add", "alu", 3, complete, stall,
                           ((0, "order", 0.0),))
        collector.on_finish([5.0])
        return snapshot_trace(collector)
    base = snap({"operand_wait": 1.0, "port_conflict": 1.0}, 4)
    assert not diff_snapshots(base, snap(
        {"operand_wait": 1.0, "port_conflict": 1.0}, 4))
    assert diff_snapshots(base, snap(
        {"port_conflict": 1.0, "operand_wait": 1.0}, 4))
    assert diff_snapshots(base, snap(
        {"operand_wait": 1.0, "port_conflict": 1.0}, 4.0))


def test_ring_eviction_bit_identical():
    """A ring far smaller than the run: both loops drop the same events
    and keep the same exact aggregates."""
    case = run_workload_case("adpcmdec", "dswp", "quad-2x2", 4,
                             trace_limit=64)
    assert case.ok, "\n".join(case.divergences[:10])


@pytest.mark.parametrize("traced", (False, True))
def test_error_paths_identical(traced):
    """A trap, a deadlock, the step limit and a consume and a produce
    in a run without queues raise the same exception type and message
    on both loops, tracer attached or not."""
    from repro.trace import DEFAULT_EVENT_LIMIT
    cases = run_error_cases(DEFAULT_EVENT_LIMIT if traced else 0)
    assert [case.label.split("/")[1] for case in cases] == [
        "trap", "deadlock", "max-steps", "consume-without-queues",
        "produce-without-queues"]
    for case in cases:
        assert case.ok, "%s diverged:\n%s" % (
            case.label, "\n".join(case.divergences))


@pytest.mark.parametrize("label", ("consume-without-queues",
                                   "produce-without-queues"))
def test_communication_without_queues_traps(label):
    """Both timed loops and the untimed executor trap on a produce or a
    consume in a run that has no queues."""
    from repro.check.differential_backend import _error_programs
    from repro.executor.records import TrapError
    program = {name: program
               for name, program, _ in _error_programs()}[label]
    runs = [lambda simulate=simulate: simulate(
                program.threads, 0, program.original, {"r_n": 3},
                n_queues=program.n_queues)
            for simulate in (fast_timing.simulate_threads_fast,
                             simulate_threads_oracle)]
    runs.append(lambda: machine.run_mt_program(program, {"r_n": 3}))
    for run in runs:
        with pytest.raises(TrapError,
                           match="^communication outside MT simulation$"):
            run()


@pytest.fixture
def no_cache():
    previous = get_cache()
    configure_cache(enabled=False)
    yield
    configure_cache(previous.directory, previous.enabled)


@pytest.mark.usefixtures("no_cache")
class TestEvaluationMetrics:
    """Whole-pipeline parity: evaluate_workload on both loops
    (cache disabled, so the fast run cannot replay reference artifacts)
    yields bit-identical Evaluation.metrics()."""

    @pytest.mark.parametrize("name,technique,topology,n_threads", [
        ("ks", "gremio", "paper-dual", 2),
        ("adpcmdec", "dswp", "quad-2x2", 4),
        ("mpeg2enc", "gremio", None, 2),
    ])
    def test_metrics_bit_identical(self, name, technique, topology,
                                   n_threads):
        evaluations = [
            evaluate_workload(get_workload(name), technique=technique,
                              n_threads=n_threads, scale="train",
                              topology=topology, backend=backend)
            for backend in ("reference", "fast")]
        reference, fast = evaluations
        assert reference.metrics() == fast.metrics()
        # Bit-identity includes types: speedup reprs match exactly.
        assert repr(reference.speedup) == repr(fast.speedup)
        assert (reference.mt_result.cycles == fast.mt_result.cycles
                and type(reference.mt_result.cycles)
                is type(fast.mt_result.cycles))


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_programs_bit_identical(seed):
    """Seeded random programs (repro.check.generate): single-threaded
    plus a random-partition MTCG program per seed, both loops, untraced
    and traced — including identical trap type and message when the
    program traps."""
    from repro.trace import DEFAULT_EVENT_LIMIT
    for trace_limit in (0, DEFAULT_EVENT_LIMIT):
        case = run_fuzz_case(seed, trace_limit=trace_limit)
        assert case.ok, "%s diverged:\n%s" % (
            case.label, "\n".join(case.divergences[:10]))


@pytest.mark.usefixtures("no_cache")
class TestOneSimulator:
    """The pipeline runs the fast core, traced or not; ``backend``
    survives only as the oracle seam of ``evaluate_workload`` and the
    wire."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The thread counts of the simulations each loop runs (1 is
        the single-threaded baseline, 2 the MT program)."""
        calls = {"reference": [], "fast": []}

        def recording(label, simulate_threads):
            def wrapper(functions, *args, **kwargs):
                calls[label].append(len(functions))
                return simulate_threads(functions, *args, **kwargs)
            return wrapper
        monkeypatch.setattr(
            timing_oracle, "simulate_threads_oracle", recording(
                "reference", timing_oracle.simulate_threads_oracle))
        monkeypatch.setattr(stages, "simulate_threads_fast", recording(
            "fast", stages.simulate_threads_fast))
        return calls

    @pytest.mark.parametrize("options,expected", [
        ({}, {"reference": [], "fast": [1, 2]}),
        ({"trace": True}, {"reference": [], "fast": [1, 2]}),
        ({"backend": "reference"}, {"reference": [1, 2], "fast": []}),
        ({"backend": "reference", "trace": True},
         {"reference": [1, 2], "fast": []}),
    ])
    def test_selection(self, calls, options, expected):
        evaluation = evaluate_workload(get_workload("ks"), scale="train",
                                       **options)
        assert calls == expected
        assert (evaluation.trace is not None) == bool(options.get("trace"))

    def test_oracle_seam_on_the_wire(self):
        def request(**fields):
            return EvaluateRequest.from_dict(dict(
                {"program": {"kind": "registry", "value": "ks"},
                 "scale": "train"}, **fields))
        default, fast, reference = (request(), request(backend="fast"),
                                    request(backend="reference"))
        assert default.backend == "fast"
        assert (default.request_key() == fast.request_key()
                == reference.request_key())
        documents = [evaluate(r).as_dict() for r in (fast, reference)]
        assert documents[1]["request"].pop("backend") == "reference"
        assert documents[0]["request"].pop("backend") == "fast"
        for document in documents:
            document.pop("telemetry")  # wall-clock
        assert documents[0] == documents[1]
        with pytest.raises(RequestValidationError, match="backend"):
            request(backend="turbo")
        with pytest.raises(ValueError, match="backend"):
            evaluate_workload(get_workload("ks"), backend="turbo")

    def test_fast_core_traces(self):
        """A tracer handed to the fast entry points is driven by the
        fast loop itself: one event per dynamic instruction, reconciled
        against the result."""
        from repro.trace import TraceCollector
        workload = get_workload("ks")
        inputs = workload.make_inputs("train")
        collector = TraceCollector()
        result = simulate_single(workload.build(), inputs.args,
                                 inputs.memory, tracer=collector)
        collector.verify()
        assert collector.finished
        assert collector.total_events == result.dynamic_instructions
        assert collector.total_cycles == result.cycles

    def test_machine_entry_points_run_the_fast_core(self, monkeypatch):
        """``repro.machine.simulate_program`` / ``simulate_single`` are
        the production core's entry points: by default they run
        ``simulate_threads_fast``, and the oracle only when handed it."""
        import inspect
        for entry in (machine.simulate_program, machine.simulate_single):
            assert entry is getattr(fast_timing, entry.__name__)
            seam = inspect.signature(entry).parameters["simulate_threads"]
            assert seam.default is fast_timing.simulate_threads_fast
        assert not hasattr(machine, "simulate_threads")
        monkeypatch.setattr(timing_oracle, "ThreadContext", None)
        built = _built("ks", "dswp", "paper-dual", 2)
        inputs = get_workload("ks").make_inputs("train")
        assert machine.simulate_program(
            built.program, inputs.args, inputs.memory,
            config=built.config).cycles > 0
        with pytest.raises(TypeError):     # the oracle cannot run now
            machine.simulate_program(
                built.program, inputs.args, inputs.memory,
                config=built.config,
                simulate_threads=simulate_threads_oracle)
