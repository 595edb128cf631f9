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
  machine configuration the ``machine.*`` overrides cannot express,
  an explicit partition), and the workload registry;
* **infrastructure handles**: the artifact cache
  (:func:`get_cache`/:func:`configure_cache`/:func:`ensure_cache`),
  telemetry (:class:`Telemetry`, :func:`global_telemetry`) and the one
  HTTP client transport (:func:`http_request`, under
  :class:`ServiceClient` and :class:`HttpStore` alike).

The pipeline names are imported here from their home modules, so the
CLI, the benchmark subsystem and the service import **only**
``repro.api`` — never ``repro.pipeline.core`` internals, whose layout
is free to change underneath this package.

The facade is covenanted: the wire documents change only with an
``API_SCHEMA_VERSION`` bump; a callable is removed only in a minor
release whose notes name its replacement (``docs/api.md``).
"""

from ..machine.config import TUNABLE_MACHINE_FIELDS
from ..machine.placement import PLACERS
from ..machine.topology import TOPOLOGIES, get_topology, topology_names
from ..pipeline.cache import (ArtifactCache, CacheStats, configure_cache,
                              default_cache_dir, ensure_cache, get_cache)
from ..pipeline.core import (Evaluation, Parallelization, evaluate_summary,
                             evaluate_workload, parallelize)
from ..pipeline.fingerprint import (digest, fingerprint_config,
                                    fingerprint_function,
                                    fingerprint_inputs,
                                    fingerprint_profile)
from ..pipeline.stages import (PARTITIONER_PARAMS, TECHNIQUES,
                               make_partitioner, normalize,
                               technique_config)
from ..pipeline.store import (STORE_URL_ENV, ArtifactStore, HttpStore,
                              LocalStore, http_request, make_store)
from ..pipeline.telemetry import (LatencyHistogram, Telemetry,
                                  global_telemetry,
                                  reset_global_telemetry)
from ..workloads import (all_workloads, get_workload,
                         unknown_workload_message, workload_names)
from .client import ServiceClient, ServiceError
from .facade import evaluate, evaluate_many, resolve_program, tune
from .types import (ALIAS_MODES, API_SCHEMA_VERSION, LOCAL_SCHEDULES,
                    MAX_INLINE_PROGRAM_BYTES, PROGRAM_KINDS, SCALES,
                    STRATEGIES, TUNE_SCHEMA_VERSION, EvaluateRequest,
                    EvaluateResult, ProgramSpec, RequestValidationError,
                    TuneRequest, TuneResult, overrides_config,
                    validate_overrides)

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
