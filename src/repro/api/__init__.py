"""``repro.api`` — the stable, versioned facade over the GMT pipeline.

Everything outside the pipeline package (the CLI, the benchmark
subsystem, the ``repro serve`` daemon, and downstream users) imports
from here.  The surface is:

* **typed request/response**: :class:`EvaluateRequest` /
  :class:`EvaluateResult` (``API_SCHEMA_VERSION``-stamped, JSON
  round-trippable, with deterministic idempotency keys), the
  :class:`ProgramSpec` program-input union (registry name, inline IR,
  or Python source compiled by :mod:`repro.frontend`) and the
  :func:`evaluate` / :func:`evaluate_many` entry points — a request is
  the one description of a cell, and ``evaluate_many`` the one batch
  engine — plus
  :class:`TuneRequest` / :class:`TuneResult` and the :func:`tune`
  search driver (``TUNE_SCHEMA_VERSION``-stamped leaderboards);
* **the classic callables**: :func:`parallelize`,
  :func:`evaluate_workload` (one cell, materialised: program, PDG,
  memory images), :func:`evaluate_summary` (its numbers, through the
  cell-level result entry — for evaluations no request can name: a
  swept machine configuration, an explicit partition), and the
  workload registry;
* **infrastructure handles**: the artifact cache
  (:func:`get_cache`/:func:`configure_cache`/:func:`ensure_cache`),
  telemetry (:class:`Telemetry`, :func:`global_telemetry`) and the one
  HTTP client transport (:func:`http_request`, under
  :class:`ServiceClient` and :class:`HttpStore` alike).

The facade is covenanted: the wire documents change only with an
``API_SCHEMA_VERSION`` bump; a callable is removed only in a minor
release whose notes name its replacement (``docs/api.md``).
"""

from .facade import (ArtifactCache, ArtifactStore, CacheStats,
                     HttpStore, LocalStore, STORE_URL_ENV, make_store,
                     Evaluation, LatencyHistogram,
                     PARTITIONER_PARAMS, PLACERS, Parallelization,
                     TECHNIQUES, TOPOLOGIES, TUNABLE_MACHINE_FIELDS,
                     Telemetry, all_workloads,
                     configure_cache, default_cache_dir, digest,
                     ensure_cache, evaluate, evaluate_many,
                     evaluate_summary, evaluate_workload,
                     fingerprint_config, fingerprint_function,
                     fingerprint_inputs, fingerprint_profile, get_cache,
                     get_topology, get_workload, global_telemetry,
                     http_request, make_partitioner, normalize,
                     overrides_config,
                     parallelize, reset_global_telemetry,
                     technique_config, topology_names,
                     resolve_program, tune, unknown_workload_message,
                     validate_overrides, workload_names)
from .client import ServiceClient, ServiceError
from .types import (ALIAS_MODES, API_SCHEMA_VERSION, LOCAL_SCHEDULES,
                    MAX_INLINE_PROGRAM_BYTES, PROGRAM_KINDS, SCALES,
                    STRATEGIES, TUNE_SCHEMA_VERSION, EvaluateRequest,
                    EvaluateResult, ProgramSpec, RequestValidationError,
                    TuneRequest, TuneResult)

__all__ = [
    # typed surface
    "API_SCHEMA_VERSION", "EvaluateRequest", "EvaluateResult",
    "ProgramSpec", "PROGRAM_KINDS", "MAX_INLINE_PROGRAM_BYTES",
    "RequestValidationError", "resolve_program",
    "evaluate", "evaluate_many",
    "ServiceClient", "ServiceError",
    "SCALES", "ALIAS_MODES", "LOCAL_SCHEDULES",
    # auto-tuning
    "TUNE_SCHEMA_VERSION", "STRATEGIES", "TuneRequest", "TuneResult",
    "tune", "validate_overrides", "overrides_config",
    "TUNABLE_MACHINE_FIELDS", "PARTITIONER_PARAMS",
    # classic callables
    "Evaluation", "Parallelization", "evaluate_summary",
    "evaluate_workload", "parallelize",
    "TECHNIQUES", "make_partitioner", "normalize", "technique_config",
    # machine topology / placement registries
    "TOPOLOGIES", "get_topology", "topology_names", "PLACERS",
    # infrastructure
    "ArtifactCache", "CacheStats", "configure_cache",
    "default_cache_dir", "ensure_cache", "get_cache",
    "ArtifactStore", "HttpStore", "LocalStore", "make_store",
    "STORE_URL_ENV", "http_request",
    "digest", "fingerprint_config", "fingerprint_function",
    "fingerprint_inputs", "fingerprint_profile",
    "LatencyHistogram", "Telemetry", "global_telemetry",
    "reset_global_telemetry",
    # workload registry
    "all_workloads", "get_workload", "workload_names",
    "unknown_workload_message",
]
