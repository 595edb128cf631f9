"""Differential equivalence of the simulator and its oracle.

The contract under test (see ``docs/performance.md``): for every
program the production core (:mod:`repro.machine.fast_timing`) produces
results **bit-identical** to the reference loop
(:mod:`repro.machine.timing`) — cycles, per-core finish times, stall
attributions, queue internals, live-outs, memory images, and the
int-vs-float type of every number.  The grid is every registry workload
x {paper-dual, quad-2x2} x {GREMIO, DSWP} x {reference untraced,
reference traced}, plus the single-threaded simulator per workload,
whole-pipeline ``Evaluation.metrics()`` parity, seeded random programs
from :mod:`repro.check.generate`, and the pipeline's choice between the
two loops.
"""

import pytest

from repro.api import (EvaluateRequest, RequestValidationError,
                       configure_cache, evaluate, evaluate_workload,
                       get_cache, get_workload, workload_names)
from repro.check.differential_backend import (diff_snapshots,
                                              run_fuzz_case,
                                              snapshot_result)
from repro.machine import timing
from repro.machine.fast_timing import (simulate_program_fast,
                                       simulate_single_fast)
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
    reference = timing.simulate_single(
        workload.build(), inputs.args, inputs.memory)
    fast = simulate_single_fast(
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
    reference = timing.simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config)
    fast = simulate_program_fast(
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
    """The pipeline runs the reference loop for a traced simulation and
    the fast core for an untraced one, so the two must agree on the
    whole result — and the event stream must account for exactly the
    cycles the untraced run reports."""
    from repro.trace import TraceCollector
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    collector = TraceCollector()
    traced = timing.simulate_program(
        built.program, inputs.args, inputs.memory, config=built.config,
        tracer=collector)
    fast = simulate_program_fast(
        built.program, inputs.args, inputs.memory, config=built.config)
    _assert_identical(snapshot_result(traced), snapshot_result(fast),
                      "%s/%s/%s/traced-vs-fast" % (name, technique,
                                                   topology))
    assert collector.total_cycles == fast.cycles
    for core, row in collector.core_table().items():
        assert row["total"] == row["finish"] == fast.core_finish[core]


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
    plus a random-partition MTCG program per seed, both loops —
    including identical trap type and message when the program traps."""
    case = run_fuzz_case(seed)
    assert case.ok, "fuzz seed %d diverged:\n%s" % (
        seed, "\n".join(case.divergences[:10]))


@pytest.mark.usefixtures("no_cache")
class TestOneSimulator:
    """The pipeline picks the loop from ``trace``; ``backend`` survives
    only as the oracle seam of ``evaluate_workload`` and the wire."""

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
        monkeypatch.setattr(timing, "simulate_threads", recording(
            "reference", timing.simulate_threads))
        monkeypatch.setattr(stages, "simulate_threads_fast", recording(
            "fast", stages.simulate_threads_fast))
        return calls

    @pytest.mark.parametrize("options,expected", [
        ({}, {"reference": [], "fast": [1, 2]}),
        ({"trace": True}, {"reference": [2], "fast": [1]}),
        ({"backend": "reference"}, {"reference": [1, 2], "fast": []}),
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

    def test_fast_core_cannot_trace(self):
        """A tracer handed to the fast entry points is an error, not a
        silent re-route to the reference loop."""
        from repro.trace import TraceCollector
        workload = get_workload("ks")
        inputs = workload.make_inputs("train")
        with pytest.raises(TypeError, match="tracer"):
            simulate_single_fast(workload.build(), inputs.args,
                                 inputs.memory, tracer=TraceCollector())
