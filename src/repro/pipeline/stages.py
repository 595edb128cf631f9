"""The staged pass manager: named passes with declared artifacts,
content-addressed cache keys, and instrumentation hooks.

The end-to-end methodology (normalize -> profile -> pdg -> partition ->
[coco] -> mtcg -> [schedule] -> simulate-st / simulate-mt) is expressed
as an ordered list of :class:`Stage` objects.  Each stage

* reads and writes named slots of a :class:`PipelineContext`;
* derives a deterministic fingerprint from the *content* of its inputs
  (IR text, machine configuration, profiling inputs, stage options), so
  equal work is recognized across workloads, processes, and sweeps;
* is skipped when the persistent :class:`~repro.pipeline.cache
  .ArtifactCache` holds an artifact for its fingerprint;
* records wall time, cache traffic, and size counters into a
  :class:`~repro.pipeline.telemetry.Telemetry`.

The legacy ``parallelize()``/``evaluate_workload()`` entry points in
:mod:`repro.pipeline.core` are thin wrappers that build a context and run
a stage list.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..analysis.alias import AliasAnalysis
from ..analysis.pdg import build_pdg
from ..coco.driver import optimize as coco_optimize
from ..executor.untimed import run_function
from ..interp.profile import static_profile
from ..ir.cfg import Function
from ..ir.interning import intern_program
from ..ir.transforms import renumber_iids, split_critical_edges
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from ..machine.fast_timing import (simulate_program, simulate_single,
                                   simulate_threads_fast)
from ..machine.placement import make_placement
from ..mtcg.codegen import generate
from ..partition.base import Partition, Partitioner
from ..partition.dswp import DSWPPartitioner
from ..partition.gremio import GremioPartitioner
from .cache import ArtifactCache
from .fingerprint import (digest, fingerprint_config, fingerprint_function,
                          fingerprint_inputs, fingerprint_profile)
from .telemetry import Telemetry

TECHNIQUES = ("gremio", "gremio-flat", "dswp")

#: Tunable cost-model parameters each technique's partitioner accepts as
#: keyword arguments (the ``partitioner.<param>`` override namespace of
#: :func:`repro.api.validate_overrides`).  DSWP's greedy
#: packer has no free thresholds; ``hierarchical`` is deliberately not
#: tunable — it is what distinguishes the ``gremio``/``gremio-flat``
#: techniques.
PARTITIONER_PARAMS: Dict[str, tuple] = {
    "gremio": ("split_threshold", "occupancy_factor", "latency_factor"),
    "gremio-flat": ("split_threshold", "occupancy_factor",
                    "latency_factor"),
    "dswp": (),
}


def make_partitioner(technique: str, config: MachineConfig,
                     **params) -> Partitioner:
    allowed = PARTITIONER_PARAMS.get(technique)
    if allowed is None:
        raise ValueError("unknown technique %r (use one of %s)"
                         % (technique, TECHNIQUES))
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            "technique %r does not accept partitioner parameter(s) %s "
            "(tunable: %s)" % (technique, ", ".join(unknown),
                               ", ".join(allowed) or "none"))
    if technique == "gremio":
        return GremioPartitioner(config, **params)
    if technique == "gremio-flat":
        return GremioPartitioner(config, hierarchical=False, **params)
    return DSWPPartitioner(config)


def technique_config(technique: str,
                     base: MachineConfig = DEFAULT_CONFIG) -> MachineConfig:
    """DSWP uses the 32-entry queue configuration; others single-entry."""
    return base.for_dswp() if technique == "dswp" else base


def normalize(function: Function, optimize: bool = False) -> Function:
    """Prepare a freshly built function for the pipeline (in place):
    optionally run the classical scalar optimizer, then split critical
    edges and renumber instructions in program order."""
    if optimize:
        from ..opt import optimize_function
        optimize_function(function)
    split_critical_edges(function)
    renumber_iids(function)
    return function


class PipelineContext:
    """Mutable state threaded through one pipeline run.

    ``values`` holds the named artifacts stages produce; ``options``
    the run configuration (technique, thread count, alias mode, inputs,
    ...); ``fingerprints`` the per-stage cache keys actually used;
    ``roots`` the IR, input and configuration fingerprints those keys
    derive from, each computed at most once per run (:meth:`root`)
    unless the caller already holds it (a workload's remembered IR and
    inputs fingerprints).  ``function`` may be ``None`` until a stage
    needs it: a cell can be keyed, and answered, without one.
    """

    def __init__(self, function: Optional[Function],
                 options: Dict[str, object],
                 config: MachineConfig,
                 sim_config: Optional[MachineConfig] = None,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 roots: Optional[Dict[str, str]] = None):
        self.values: Dict[str, object] = {
            "function": function,
            "profile": options.get("profile"),
            "pdg": None,
            "partition": None,
            "coco_result": None,
            "data_channels": None,
            "condition_covered": frozenset(),
            "program": None,
            "placement": None,
            "st_result": None,
            "mt_result": None,
            "mt_trace": None,
        }
        self.options = options
        self.config = config            # partitioning config (with threads)
        # simulation config (as passed in)
        self.sim_config = config if sim_config is None else sim_config
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fingerprints: Dict[str, Optional[str]] = {}
        self.roots: Dict[str, str] = dict(roots or {})

    @property
    def function(self) -> Function:
        return self.values["function"]

    def root(self, name: str) -> str:
        fingerprint = self.roots.get(name)
        if fingerprint is None:
            fingerprint = self.roots[name] = _ROOTS[name](self)
        return fingerprint


#: ``fingerprint_config`` by configuration, filled once per distinct
#: configuration in the process (:func:`config_fingerprint`).
_CONFIG_FINGERPRINTS: Dict[tuple, str] = {}
#: Past this many distinct configurations (a long ``repro tune`` run in
#: one daemon) the memo starts over rather than grow without bound.
_CONFIG_MEMO_LIMIT = 4096


def _config_identity(config: MachineConfig) -> tuple:
    """Every field of ``config`` with its type, as a hashable value:
    ``1`` and ``1.0`` compare equal but print, and so fingerprint,
    apart.  Dict fields count as their items in order, nested
    dataclasses (caches, topology) as their fields."""
    parts = []
    for value in vars(config).values():
        kind = type(value)
        if kind is dict:
            parts.append((tuple(value.items()),
                          tuple(map(type, value.values()))))
        elif hasattr(kind, "__dataclass_fields__"):
            fields = tuple(vars(value).values())
            parts.append((kind, fields, tuple(map(type, fields))))
        else:
            parts.append((kind, value))
    return tuple(parts)


def config_fingerprint(config: MachineConfig) -> str:
    """:func:`~repro.pipeline.fingerprint.fingerprint_config`, computed
    once per distinct configuration in the process.  The memo is keyed
    by the configuration's content, not its identity, so it holds
    across the fresh ``replace()`` copies every cell makes."""
    identity = _config_identity(config)
    fingerprint = _CONFIG_FINGERPRINTS.get(identity)
    if fingerprint is None:
        if len(_CONFIG_FINGERPRINTS) >= _CONFIG_MEMO_LIMIT:
            _CONFIG_FINGERPRINTS.clear()
        fingerprint = _CONFIG_FINGERPRINTS[identity] = \
            fingerprint_config(config)
    return fingerprint


_ROOTS: Dict[str, Callable[[PipelineContext], str]] = {
    # The normalized IR: read only once normalize has run.
    "ir": lambda ctx: fingerprint_function(ctx.function),
    "train": lambda ctx: fingerprint_inputs(
        ctx.options.get("profile_args"), ctx.options.get("profile_memory")),
    "measure": lambda ctx: fingerprint_inputs(
        ctx.options.get("measure_args"), ctx.options.get("measure_memory")),
    "config": lambda ctx: config_fingerprint(ctx.config),
    "sim_config": lambda ctx: config_fingerprint(ctx.sim_config),
    "st_config": lambda ctx: config_fingerprint(
        ctx.sim_config.single_core()),
    "assignment": lambda ctx: digest(
        "assignment", repr(sorted(ctx.options["partition"].items())),
        str(ctx.options["n_threads"])),
}


class Stage:
    """One named pass: run callback, fingerprint derivation, cache
    policy, and counter hook."""

    def __init__(self, name: str,
                 run: Callable[[PipelineContext], Optional[dict]],
                 fingerprint: Optional[
                     Callable[[PipelineContext], Optional[str]]] = None,
                 persist: bool = False,
                 counters: Optional[
                     Callable[[PipelineContext], None]] = None,
                 enabled: Optional[
                     Callable[[PipelineContext], bool]] = None):
        self.name = name
        self.run = run
        self.fingerprint = fingerprint
        self.persist = persist
        self.counters = counters
        self.enabled = enabled

    def __repr__(self) -> str:  # pragma: no cover
        return "<Stage %s%s>" % (self.name,
                                 " (persistent)" if self.persist else "")


def execute(ctx: PipelineContext, stage_names: Sequence[str]) -> None:
    """Run the named stages in order against ``ctx``, consulting the
    artifact cache for persistent stages and recording telemetry."""
    for name in stage_names:
        _run_stage(ctx, STAGES[name])


def _run_stage(ctx: PipelineContext, stage: Stage) -> None:
    if stage.enabled is not None and not stage.enabled(ctx):
        return
    start = time.perf_counter()
    key = stage.fingerprint(ctx) if stage.fingerprint is not None else None
    ctx.fingerprints[stage.name] = key
    cached = (stage.persist and key is not None
              and ctx.cache is not None and ctx.cache.enabled)
    if cached:
        hit, payload = ctx.cache.load(stage.name, key)
        if hit:
            ctx.values.update(payload)
            ctx.telemetry.record_hit(stage.name,
                                     time.perf_counter() - start)
            if stage.counters is not None:
                stage.counters(ctx)
            return
    produced = stage.run(ctx)
    if produced:
        ctx.values.update(produced)
    if cached and produced:
        ctx.cache.store(stage.name, key, produced)
    ctx.telemetry.record_run(stage.name, time.perf_counter() - start,
                             cache_miss=cached)
    if stage.counters is not None:
        stage.counters(ctx)


# ---------------------------------------------------------------------------
# Stage implementations.

def _run_normalize(ctx: PipelineContext) -> dict:
    if not ctx.options.get("normalized", False):
        normalize(ctx.function)
    ctx.root("ir")  # hashed here unless the workload remembered it
    return {}


def _fp_profile(ctx: PipelineContext) -> Optional[str]:
    if ctx.options.get("profile") is not None:
        return None  # supplied directly; adopt it, don't cache it
    return digest("stage:profile", ctx.root("ir"), ctx.root("train"))


def _run_profile(ctx: PipelineContext) -> dict:
    supplied = ctx.options.get("profile")
    if supplied is not None:
        return {"profile": supplied}
    profile_args = ctx.options.get("profile_args")
    profile_memory = ctx.options.get("profile_memory")
    if profile_args or profile_memory:
        profile = run_function(ctx.function, profile_args,
                               profile_memory).profile
    else:
        profile = static_profile(ctx.function)
    return {"profile": profile}


def _fp_pdg(ctx: PipelineContext) -> str:
    return digest("stage:pdg", ctx.root("ir"),
                  str(ctx.options.get("alias_mode", "annotated")))


def _run_pdg(ctx: PipelineContext) -> dict:
    alias = AliasAnalysis(ctx.function,
                          ctx.options.get("alias_mode", "annotated"))
    return {"pdg": build_pdg(ctx.function, alias)}


def _count_pdg(ctx: PipelineContext) -> None:
    pdg = ctx.values["pdg"]
    ctx.telemetry.count("pdg_nodes", len(pdg.nodes))
    ctx.telemetry.count("pdg_edges", len(pdg.arcs))


def _fp_partition(ctx: PipelineContext) -> str:
    parts = ["stage:partition",
             ctx.fingerprints.get("pdg") or "",
             fingerprint_profile(ctx.values["profile"])]
    if ctx.options.get("partition") is not None:
        # An explicit assignment stands in for the technique, its
        # parameters and the partitioning config.  The profile stays:
        # COCO's key derives from this one alone, and COCO weighs the
        # same assignment's channels by whichever profile it is given.
        return digest(*parts, str(ctx.options["n_threads"]),
                      ctx.root("assignment"))
    parts += [str(ctx.options["technique"]),
              str(ctx.options["n_threads"]),
              ctx.root("config")]
    params = ctx.options.get("partitioner_args")
    if params:
        # Appended only when present so default-parameter fingerprints
        # (and the cache entries behind them) are unchanged.
        parts.append("params:%r" % (sorted(params.items()),))
    return digest(*parts)


def _run_partition(ctx: PipelineContext) -> dict:
    explicit = ctx.options.get("partition")
    if explicit is not None:  # Partition() validates it
        return {"partition": Partition(ctx.function,
                                       ctx.options["n_threads"], explicit)}
    params = ctx.options.get("partitioner_args") or {}
    partitioner = make_partitioner(ctx.options["technique"], ctx.config,
                                   **params)
    partition = partitioner.partition(ctx.function, ctx.values["pdg"],
                                      ctx.values["profile"],
                                      ctx.options["n_threads"])
    return {"partition": partition}


def _coco_enabled(ctx: PipelineContext) -> bool:
    return bool(ctx.options.get("coco"))


def _fp_coco(ctx: PipelineContext) -> str:
    return digest("stage:coco", ctx.fingerprints.get("partition") or "")


def _run_coco(ctx: PipelineContext) -> dict:
    result = coco_optimize(ctx.function, ctx.values["pdg"],
                           ctx.values["partition"], ctx.values["profile"])
    return {"coco_result": result,
            "data_channels": result.data_channels,
            "condition_covered": result.condition_covered}


def _count_coco(ctx: PipelineContext) -> None:
    result = ctx.values["coco_result"]
    if result is not None:
        ctx.telemetry.count("coco_iterations", result.iterations)


def _fp_mtcg(ctx: PipelineContext) -> str:
    topo = ctx.sim_config.topology
    return digest("stage:mtcg", ctx.fingerprints.get("partition") or "",
                  "coco" if ctx.options.get("coco") else "plain",
                  "" if topo is None else "topology:%r" % (topo,))


def _run_mtcg(ctx: PipelineContext) -> dict:
    program = generate(ctx.function, ctx.values["pdg"],
                       ctx.values["partition"],
                       data_channels=ctx.values["data_channels"],
                       condition_covered=ctx.values["condition_covered"],
                       config=ctx.sim_config)
    # Thread functions are finished artifacts from here on (the local
    # scheduler only reorders instruction lists): collapse them to
    # interned flyweights so sweep cells, pool payloads, and cache
    # pickles share one object per distinct instruction.
    return {"program": intern_program(program)}


def _count_mtcg(ctx: PipelineContext) -> None:
    ctx.telemetry.count("channels_inserted",
                        len(ctx.values["program"].channels))


def _check_enabled(ctx: PipelineContext) -> bool:
    return bool(ctx.options.get("mt_check"))


def _run_check(ctx: PipelineContext) -> dict:
    # Imported lazily: repro.check sits above the pipeline in the layer
    # order (its fuzzer drives the pipeline), so the stage table must not
    # import it at module load.
    from ..check.validators import MTValidationError, validate_program
    report = validate_program(ctx.values["program"])
    ctx.telemetry.count("check_programs_validated", 1)
    for name, amount in report.counters.items():
        ctx.telemetry.count("check_" + name, amount)
    if not report.ok:
        ctx.telemetry.count("check_violations", len(report.violations))
        raise MTValidationError(report, ctx.function.name)
    return {}


def _schedule_enabled(ctx: PipelineContext) -> bool:
    return ctx.options.get("local_schedule") is not None


def _run_schedule(ctx: PipelineContext) -> dict:
    from ..opt.scheduler import schedule_function, schedule_program
    priority = ctx.options["local_schedule"]
    schedule_program(ctx.values["program"], ctx.sim_config, priority)
    schedule_function(ctx.function, ctx.sim_config, priority)
    return {}


def _fp_placement(ctx: PipelineContext) -> str:
    return digest("stage:placement",
                  ctx.fingerprints.get("mtcg") or "",
                  str(ctx.options.get("placer", "identity")),
                  str(ctx.options["n_threads"]),
                  ctx.root("sim_config"))


def _run_placement(ctx: PipelineContext) -> dict:
    n_threads = max(int(ctx.options["n_threads"]), 1)
    # with_cores() sizes the flat default; an explicit topology wins.
    topo = ctx.sim_config.with_cores(n_threads).resolve_topology()
    placement = make_placement(ctx.options.get("placer", "identity"),
                               n_threads, topo,
                               pdg=ctx.values["pdg"],
                               partition=ctx.values["partition"],
                               profile=ctx.values["profile"])
    return {"placement": placement}


def _count_placement(ctx: PipelineContext) -> None:
    placement = ctx.values["placement"]
    moved = sum(1 for thread, core in enumerate(placement.cores)
                if thread != core)
    ctx.telemetry.count("placement_threads_moved", moved)


def _fp_simulate_st(ctx: PipelineContext) -> str:
    return digest("stage:simulate-st", ctx.root("ir"),
                  ctx.root("measure"), ctx.root("st_config"),
                  repr(ctx.options.get("local_schedule")))


#: Values of the ``backend`` option: the production core, and the
#: line-for-line reference kept as its oracle.
BACKENDS = ("fast", "reference")


def _simulator(ctx: PipelineContext):
    """The thread loop for one simulation: the only place an
    implementation is picked.  Everything — traced or not — runs the
    fast core; the reference loop runs only when the caller asked for
    the oracle (``backend == "reference"``).  The two are bit-identical,
    event stream included (tests/test_backend_equivalence.py), so the
    choice is absent from the stage fingerprints and both share cache
    entries.  The oracle is imported on use: no other production path
    loads it."""
    if ctx.options.get("backend") == "reference":
        from ..machine.timing_oracle import simulate_threads_oracle
        return simulate_threads_oracle
    return simulate_threads_fast


def _run_simulate_st(ctx: PipelineContext) -> dict:
    result = simulate_single(
        ctx.function, ctx.options.get("measure_args"),
        ctx.options.get("measure_memory"),
        config=ctx.sim_config.single_core(),
        simulate_threads=_simulator(ctx))
    return {"st_result": result}


def _count_simulate_st(ctx: PipelineContext) -> None:
    ctx.telemetry.count("st_cycles", ctx.values["st_result"].cycles)


def _fp_simulate_mt(ctx: PipelineContext) -> Optional[str]:
    # Traced runs are never cached (and never replayed from an untraced
    # cache entry): the event stream is a side effect the artifact cache
    # cannot reproduce.
    if ctx.options.get("trace"):
        return None
    return digest("stage:simulate-mt",
                  ctx.fingerprints.get("mtcg") or "", ctx.root("measure"),
                  ctx.fingerprints.get("placement") or "",
                  ctx.root("sim_config"),
                  repr(ctx.options.get("local_schedule")))


def _run_simulate_mt(ctx: PipelineContext) -> dict:
    collector = None
    if ctx.options.get("trace"):
        from ..trace import DEFAULT_EVENT_LIMIT, TraceCollector, analyze
        limit = ctx.options.get("trace_limit") or DEFAULT_EVENT_LIMIT
        collector = TraceCollector(limit=limit)
    # A traced run allocates a handful of long-lived, acyclic objects per
    # event; the cyclic collector would re-traverse the growing ring for
    # nothing (~1.3 us/event, docs/performance.md), so it is paused until
    # the analysis is done.  Resuming it then would traverse them once
    # more: freeze + unfreeze first moves every tracked object to the
    # oldest generation without a pass (unless the caller froze a heap
    # of its own, which must stay frozen).
    pause_gc = collector is not None and gc.isenabled()
    promote = pause_gc and gc.get_freeze_count() == 0
    if pause_gc:
        gc.disable()
    try:
        result = simulate_program(
            ctx.values["program"], ctx.options.get("measure_args"),
            ctx.options.get("measure_memory"), config=ctx.sim_config,
            tracer=collector, placement=ctx.values.get("placement"),
            simulate_threads=_simulator(ctx))
        if collector is not None:
            return {"mt_result": result, "mt_trace": analyze(collector)}
        return {"mt_result": result}
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if pause_gc:
            gc.enable()


def _count_simulate_mt(ctx: PipelineContext) -> None:
    result = ctx.values["mt_result"]
    ctx.telemetry.count("mt_cycles", result.cycles)
    ctx.telemetry.count("comm_instructions",
                        result.communication_instructions)
    for key, value in result.cache_stats.items():
        ctx.telemetry.count("cache_" + key, value)
    trace = ctx.values.get("mt_trace")
    if trace is not None:
        ctx.telemetry.count("trace_events", trace.events_recorded)


STAGES: Dict[str, Stage] = {stage.name: stage for stage in (
    Stage("normalize", _run_normalize),
    Stage("profile", _run_profile, _fp_profile, persist=True),
    Stage("pdg", _run_pdg, _fp_pdg, persist=True, counters=_count_pdg),
    Stage("partition", _run_partition, _fp_partition, persist=True),
    Stage("coco", _run_coco, _fp_coco, persist=True,
          counters=_count_coco, enabled=_coco_enabled),
    Stage("mtcg", _run_mtcg, _fp_mtcg, persist=True, counters=_count_mtcg),
    Stage("check", _run_check, enabled=_check_enabled),
    Stage("schedule", _run_schedule, enabled=_schedule_enabled),
    Stage("placement", _run_placement, _fp_placement, persist=True,
          counters=_count_placement),
    Stage("simulate-st", _run_simulate_st, _fp_simulate_st, persist=True,
          counters=_count_simulate_st),
    Stage("simulate-mt", _run_simulate_mt, _fp_simulate_mt, persist=True,
          counters=_count_simulate_mt),
)}

#: Stage lists the public wrappers execute.  ``check`` (the static MT
#: validators, see :mod:`repro.check`) is present but disabled unless the
#: run sets the ``mt_check`` option (CLI ``--check``; always on under
#: fuzzing).
PARALLELIZE_STAGES = ("normalize", "profile", "pdg", "partition", "coco",
                      "mtcg", "check")
EVALUATE_STAGES = PARALLELIZE_STAGES + ("schedule", "placement",
                                        "simulate-st", "simulate-mt")


def cell_key(ctx: PipelineContext, check: bool) -> str:
    """The key of a cell-level result entry (:func:`repro.pipeline.core
    .evaluate_summary`): a digest of the roots every stage fingerprint
    derives from — normalized IR, both input sets, both machine
    configurations — each result-affecting option (an explicit
    partition as its assignment digest), and ``check`` (an unverified
    entry never answers a verifying request).  ``backend`` stays out,
    as out of every fingerprint.  It reads nothing but ``ctx.roots``
    and ``ctx.options``, so the lookup before a build (the workload's
    remembered ``ir`` root) and the store after a walk (the root that
    normalize hashed) derive one key; without a remembered root it is
    valid once normalize has run."""
    options = ctx.options
    params = options.get("partitioner_args")
    explicit = () if options.get("partition") is None \
        else (ctx.root("assignment"),)
    return digest("stage:evaluation", ctx.root("ir"), ctx.root("train"),
                  ctx.root("measure"), ctx.root("config"),
                  ctx.root("sim_config"),
                  repr((options["technique"], options["n_threads"],
                        bool(options["coco"]), options["alias_mode"],
                        options["local_schedule"],
                        bool(options["mt_check"]), options["placer"],
                        sorted(params.items()) if params else None,
                        bool(check))), *explicit)


def stage_names() -> Iterable[str]:
    return tuple(STAGES)
