"""The end-to-end GMT scheduling pipeline (legacy entry points).

One call takes a workload (or any IR function) through the whole stack:

    normalize CFG -> profile (train inputs) -> PDG -> partition (GREMIO or
    DSWP) -> [COCO] -> MTCG -> timed simulation on the CMP model (ref
    inputs) -> metrics

``parallelize()`` and ``evaluate_workload()`` keep their historical
signatures, but are now thin wrappers over the staged pass manager
(:mod:`repro.pipeline.stages`): every stage is fingerprinted, consults
the persistent artifact cache, and records telemetry.  This module
evaluates one cell; batches across a (workload x technique x coco x
threads) matrix are :func:`repro.api.evaluate_many`'s, over requests.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Union

from ..analysis.pdg import PDG
from ..coco.driver import CocoResult
from ..interp.profile import EdgeProfile
from ..ir.cfg import Function
from ..machine.config import MachineConfig
from ..machine.timing import TimedResult
from ..mtcg.program import MTProgram
from ..partition.base import Partition
from ..workloads.common import Workload
from .cache import ArtifactCache, get_cache
from .stages import (BACKENDS, EVALUATE_STAGES, PARALLELIZE_STAGES,
                     PipelineContext, cell_key, execute, technique_config)
from .telemetry import Telemetry, global_telemetry

CacheOption = Union[ArtifactCache, bool, None]
#: An explicit partition, or ``{iid: thread}`` over the normalized IR.
PartitionOption = Union[Partition, Mapping[int, int], None]


def _assignment(partition: PartitionOption) -> Optional[Dict[int, int]]:
    if isinstance(partition, Partition):
        partition = partition.assignment
    return None if partition is None else dict(partition)


def _resolve_cache(cache: CacheOption) -> Optional[ArtifactCache]:
    if cache is None:
        return get_cache()
    if cache is False:
        return None
    if cache is True:
        return get_cache()
    return cache


def _publish_telemetry(run: Telemetry,
                       telemetry: Optional[Telemetry]) -> None:
    """Fold one run's telemetry into the process-global accumulator and,
    when distinct, the caller-supplied collector."""
    accumulator = global_telemetry()
    if accumulator is not run:
        accumulator.merge(run)
    if telemetry is not None and telemetry is not run \
            and telemetry is not accumulator:
        telemetry.merge(run)


class Parallelization:
    """A parallelized function plus everything used to build it."""

    def __init__(self, function: Function, profile: EdgeProfile, pdg: PDG,
                 partition: Partition, program: MTProgram,
                 coco_result: Optional[CocoResult],
                 config: MachineConfig):
        self.function = function
        self.profile = profile
        self.pdg = pdg
        self.partition = partition
        self.program = program
        self.coco_result = coco_result
        self.config = config
        # Populated by the staged pipeline: per-stage cache keys and the
        # per-run telemetry (stage timings, cache traffic, counters).
        self.fingerprints = {}
        self.telemetry: Optional[Telemetry] = None


def parallelize(function: Function,
                technique: str = "gremio",
                n_threads: int = 2,
                profile: Optional[EdgeProfile] = None,
                profile_args: Optional[Mapping[str, object]] = None,
                profile_memory: Optional[Mapping[str, object]] = None,
                coco: bool = False,
                config: Optional[MachineConfig] = None,
                normalized: bool = False,
                alias_mode: str = "annotated",
                mt_check: bool = False,
                cache: CacheOption = None,
                telemetry: Optional[Telemetry] = None,
                topology: Optional[str] = None,
                partitioner_args: Optional[
                    Mapping[str, object]] = None,
                partition: PartitionOption = None) -> Parallelization:
    """Parallelize ``function`` into ``n_threads`` threads.

    ``profile`` may be supplied directly; otherwise the function is
    profiled by interpretation on ``profile_args``/``profile_memory``, or
    with the static estimator when no inputs are given either.
    ``alias_mode`` selects the memory-disambiguation power (see
    :class:`repro.analysis.AliasAnalysis`).

    ``cache`` selects the artifact cache (default: the process-wide one;
    ``False`` disables caching for this call); ``telemetry`` optionally
    collects this run's stage timings in addition to the per-result
    ``.telemetry`` attribute and the process-global accumulator.

    ``mt_check`` enables the ``check`` stage: the static MT validators of
    :mod:`repro.check.validators` run over the MTCG output and raise
    :class:`~repro.check.validators.MTValidationError` on any violation.

    ``topology`` names a machine-topology preset; the partition cost
    models then see the clustered machine (see :func:`evaluate_workload`).
    ``partitioner_args`` forwards tunable cost-model parameters to the
    technique's partitioner (see
    :data:`repro.pipeline.stages.PARTITIONER_PARAMS`).

    ``partition`` replaces the partitioner: the ``partition`` stage
    adopts the given assignment (validated against the normalized
    function) and keys it by its digest; ``technique`` then only picks
    the default machine configuration.
    """
    if config is None:
        config = technique_config(technique)
    if topology is not None:
        from ..machine.topology import get_topology
        config = dataclasses.replace(config, topology=get_topology(topology))
    ctx = PipelineContext(
        function,
        options={
            "technique": technique,
            "n_threads": n_threads,
            "coco": coco,
            "alias_mode": alias_mode,
            "normalized": normalized,
            "profile": profile,
            "profile_args": profile_args,
            "profile_memory": profile_memory,
            "mt_check": mt_check,
            "partitioner_args": dict(partitioner_args)
            if partitioner_args else None,
            "partition": _assignment(partition),
        },
        config=config.with_cores(n_threads),
        cache=_resolve_cache(cache))
    execute(ctx, PARALLELIZE_STAGES)
    _publish_telemetry(ctx.telemetry, telemetry)
    return _parallelization(ctx)


def _parallelization(ctx: PipelineContext) -> Parallelization:
    result = Parallelization(
        ctx.function, *(ctx.values[name] for name in (
            "profile", "pdg", "partition", "program", "coco_result")),
        ctx.config)
    result.fingerprints = dict(ctx.fingerprints)
    result.telemetry = ctx.telemetry
    return result


class Evaluation:
    """Measured results of one (workload, technique, coco) configuration."""

    def __init__(self, workload: Workload, technique: str, coco: bool,
                 n_threads: int, parallelization: Parallelization,
                 st_result: TimedResult, mt_result: TimedResult):
        self.workload = workload
        self.technique = technique
        self.coco = coco
        self.n_threads = n_threads
        self.parallelization = parallelization
        self.st_result = st_result
        self.mt_result = mt_result
        # Populated by the staged pipeline (see Parallelization).
        self.fingerprints = {}
        self.telemetry: Optional[Telemetry] = None
        # TraceAnalysis of the MT run when evaluated with trace=True.
        self.trace = None

    @property
    def speedup(self) -> float:
        if self.mt_result.cycles == 0:
            return 1.0
        return self.st_result.cycles / self.mt_result.cycles

    @property
    def communication_instructions(self) -> int:
        return self.mt_result.communication_instructions

    @property
    def computation_instructions(self) -> int:
        return self.mt_result.computation_instructions

    @property
    def communication_fraction(self) -> float:
        total = self.mt_result.dynamic_instructions
        if total == 0:
            return 0.0
        return self.mt_result.communication_instructions / total

    def metrics(self) -> Mapping[str, float]:
        """The paper metrics as a flat JSON-able mapping — the payload
        the :mod:`repro.api` facade and the ``repro serve`` daemon
        return for one evaluated cell."""
        metrics = {
            "speedup": self.speedup,
            "st_cycles": float(self.st_result.cycles),
            "mt_cycles": float(self.mt_result.cycles),
            "dynamic_instructions":
                float(self.mt_result.dynamic_instructions),
            "communication_instructions":
                float(self.communication_instructions),
            "computation_instructions":
                float(self.computation_instructions),
            "communication_fraction": self.communication_fraction,
            "channels": float(len(self.parallelization.program.channels)),
        }
        for key, value in self.mt_result.cache_stats.items():
            metrics["cache_" + key] = float(value)
        for key, value in self.st_result.cache_stats.items():
            metrics["st_cache_" + key] = float(value)
        if self.trace is not None:
            metrics["critical_path_cycles"] = \
                float(self.trace.critical_path.length)
            metrics["critical_path_instructions"] = \
                float(self.trace.critical_path.instructions)
        return metrics

    def __repr__(self) -> str:  # pragma: no cover
        return "<Evaluation %s/%s%s: speedup %.2fx, comm %.1f%%>" % (
            self.workload.name, self.technique,
            "+coco" if self.coco else "", self.speedup,
            100 * self.communication_fraction)


def evaluate_workload(workload: Workload, technique: str = "gremio", *,
                      check: bool = True,
                      telemetry: Optional[Telemetry] = None,
                      **options) -> Evaluation:
    """Run the full methodology for one workload: profile on `train`,
    measure on ``scale`` (default `ref`), and verify (``check``) that
    the multi-threaded run produced the single-threaded results.  The
    keyword ``options`` are :func:`_evaluation_context`'s, which
    declares them with their defaults.

    ``local_schedule`` optionally runs the downstream local instruction
    scheduler over both the single-threaded baseline and every generated
    thread, with the given produce/consume priority ("early"/"late"/
    "neutral") — the papers' post-MT scheduling stage.  ``mt_check``
    enables the static MT validator stage; ``cache`` and ``telemetry``
    are forwarded to the staged pipeline (see :func:`parallelize`).

    ``trace=True`` runs the MT simulation with a
    :class:`repro.trace.TraceCollector` attached and exposes the
    resulting :class:`repro.trace.TraceAnalysis` as ``evaluation.trace``
    (the traced simulate-mt stage bypasses the artifact cache;
    ``trace_limit`` bounds the event ring).  Simulated cycle counts are
    bit-identical with tracing on or off.

    ``topology`` names a machine-topology preset (see
    :data:`repro.machine.topology.TOPOLOGIES`) — partition cost models,
    the placement stage, and the simulator all see the clustered machine;
    ``placer`` chooses the thread->core placer ("identity"/"affinity").
    Both default to the flat legacy machine, which is cycle-invariant.

    ``backend="reference"`` is the oracle seam: it runs the
    line-for-line reference loop where the production fast core would
    run (see :func:`repro.pipeline.stages._simulator`; traced
    simulations run the fast core too).  The two are bit-identical by
    contract, so the value never enters cache fingerprints or request
    keys.

    ``partitioner_args`` forwards tunable cost-model parameters (e.g.
    ``split_threshold``) to the technique's partitioner; they enter the
    partition-stage fingerprint, so distinct parameters never share
    cache entries (see
    :data:`repro.pipeline.stages.PARTITIONER_PARAMS`).  ``partition``
    evaluates an explicit partition instead (see :func:`parallelize`).
    """
    ctx = _evaluation_context(workload, technique, **options)
    _walk(ctx, workload, EVALUATE_STAGES)
    _publish_telemetry(ctx.telemetry, telemetry)
    return _finish(ctx, workload, check)


def _evaluation_context(workload: Workload, technique: str = "gremio",
                        n_threads: int = 2, coco: bool = False,
                        scale: str = "ref",
                        config: Optional[MachineConfig] = None,
                        alias_mode: str = "annotated",
                        local_schedule: Optional[str] = None,
                        mt_check: bool = False, cache: CacheOption = None,
                        trace: bool = False,
                        trace_limit: Optional[int] = None,
                        topology: Optional[str] = None,
                        placer: str = "identity", backend: str = "fast",
                        partitioner_args: Optional[
                            Mapping[str, object]] = None,
                        partition: PartitionOption = None
                        ) -> PipelineContext:
    """What :func:`evaluate_workload` (whose keyword options these are)
    resolves before the first stage: both machine configurations, and
    the roots a cell key needs that the workload remembers — its input
    fingerprints and, once a build of it was normalized in this
    process, its IR's.  Unknown backends and topologies raise here,
    before any cache is read.  Nothing is built or copied yet:
    :func:`_walk` does that once a stage needs it."""
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s)"
                         % (backend, ", ".join(BACKENDS)))
    if config is None:
        config = technique_config(technique)
    if topology is not None:
        from ..machine.topology import get_topology
        config = dataclasses.replace(config, topology=get_topology(topology))
    roots = {"train": workload.inputs_fingerprint("train"),
             "measure": workload.inputs_fingerprint(scale)}
    ir = workload.ir_fingerprint()
    if ir is not None:
        roots["ir"] = ir
    return PipelineContext(
        None,
        options={
            "technique": technique,
            "n_threads": n_threads,
            "coco": coco,
            "alias_mode": alias_mode,
            "normalized": False,
            "profile": None,
            "scale": scale,
            "local_schedule": local_schedule,
            "mt_check": mt_check,
            "trace": trace,
            "trace_limit": trace_limit,
            "placer": placer,
            "backend": backend,
            "partitioner_args": dict(partitioner_args)
            if partitioner_args else None,
            "partition": _assignment(partition),
        },
        config=config.with_cores(n_threads),
        sim_config=config,
        cache=_resolve_cache(cache),
        roots=roots)


def _load(ctx: PipelineContext, workload: Workload) -> None:
    """Give ``ctx`` a fresh build of ``workload`` and fresh copies of
    both input images: what a stage walk needs and a cache hit does
    not."""
    train = workload.make_inputs("train")
    measure = workload.make_inputs(ctx.options["scale"])
    ctx.values["function"] = workload.build()
    ctx.options.update(profile_args=train.args, profile_memory=train.memory,
                       measure_args=measure.args,
                       measure_memory=measure.memory)


def _walk(ctx: PipelineContext, workload: Workload,
          stage_names: Sequence[str]) -> None:
    """Execute ``stage_names`` on ``ctx``, loading the workload first
    if no stage has needed it yet.  The first normalize of the workload
    in the process teaches it its IR fingerprint."""
    if ctx.function is None:
        _load(ctx, workload)
    execute(ctx, stage_names)
    if workload.ir_fingerprint() is None and "normalize" in stage_names:
        workload.remember_ir_fingerprint(ctx.root("ir"))


def _finish(ctx: PipelineContext, workload: Workload,
            check: bool) -> Evaluation:
    """Verify a walked context's results and wrap them."""
    st_result = ctx.values["st_result"]
    mt_result = ctx.values["mt_result"]
    if check:
        _check_results(workload, ctx.function, st_result, mt_result)
    evaluation = Evaluation(workload, ctx.options["technique"],
                            ctx.options["coco"], ctx.options["n_threads"],
                            _parallelization(ctx), st_result, mt_result)
    evaluation.fingerprints = dict(ctx.fingerprints)
    evaluation.telemetry = ctx.telemetry
    evaluation.trace = ctx.values.get("mt_trace")
    return evaluation


#: ArtifactCache stage name of the cell-level result entry.
RESULT_STAGE = "evaluation"


class CellResult(NamedTuple):
    """What a typed result (:class:`repro.api.EvaluateResult`) is made
    of; the cell-level cache entry stores ``metrics``, ``fingerprints``
    and the telemetry's deterministic ``counters``."""

    metrics: Dict[str, float]
    fingerprints: Dict[str, Optional[str]]
    telemetry: Telemetry
    trace: Optional[Dict[str, object]] = None  # TraceAnalysis.summary()


def evaluate_summary(workload: Workload, check: bool = True,
                     telemetry: Optional[Telemetry] = None,
                     walk: bool = True, **options) -> Optional[CellResult]:
    """:func:`evaluate_workload` (whose keyword ``options`` these are)
    for callers that want the numbers, not the program, PDG or memory
    images.  The cell is first looked up under :data:`RESULT_STAGE` by
    :func:`~repro.pipeline.stages.cell_key`: a hit is one blob load and
    runs no stage (its telemetry is that hit plus the stored counters);
    a miss walks the stages — telemetry as :func:`evaluate_workload`'s,
    so a computed answer's document does not grow — and, once the
    evaluation and its ``check`` succeeded, writes the entry under the
    key it looked up.  Once the workload's IR fingerprint is known in
    the process, the lookup builds and copies nothing; before that,
    normalize runs first, as the key needs its hash.  Traced runs (an
    entry cannot replay the event stream) and a disabled cache bypass
    it.  ``walk=False`` only looks: a miss returns ``None``."""
    start = time.perf_counter()
    ctx = _evaluation_context(workload, **options)
    run, cache = ctx.telemetry, ctx.cache
    stages = EVALUATE_STAGES
    key = None
    if not ctx.options["trace"] and cache is not None and cache.enabled:
        if "ir" not in ctx.roots:  # the key needs the normalized IR's hash
            _walk(ctx, workload, stages[:1])
            stages = stages[1:]
        key = cell_key(ctx, check)
        hit, entry = cache.load(RESULT_STAGE, key)
        if hit:
            run = Telemetry()  # the hit alone: no stage's work is its cost
            run.counters.update(entry["counters"])
            run.record_hit(RESULT_STAGE, time.perf_counter() - start)
            _publish_telemetry(run, telemetry)
            return CellResult(entry["metrics"], entry["fingerprints"], run)
    if not walk:
        return None
    _walk(ctx, workload, stages)
    evaluation = _finish(ctx, workload, check)
    metrics = dict(evaluation.metrics())
    if key is not None:
        cache.store(RESULT_STAGE, key,
                    {"metrics": metrics,
                     "fingerprints": evaluation.fingerprints,
                     "counters": dict(run.counters)})
    _publish_telemetry(run, telemetry)
    trace = evaluation.trace
    return CellResult(metrics, evaluation.fingerprints, run,
                      trace.summary() if trace is not None else None)


def _check_results(workload: Workload, function: Function,
                   st_result: TimedResult,
                   mt_result: TimedResult) -> None:
    if mt_result.live_outs != st_result.live_outs:
        raise AssertionError(
            "%s: MT live-outs %r != ST %r"
            % (workload.name, mt_result.live_outs, st_result.live_outs))
    if mt_result.memory.snapshot() != st_result.memory.snapshot():
        raise AssertionError("%s: MT memory differs from ST"
                             % workload.name)
