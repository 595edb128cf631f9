"""The end-to-end GMT scheduling pipeline, as a staged pass manager.

This package is the *engine room*: the stage graph (normalize, profile,
pdg, partition, coco, mtcg, schedule, simulate-st, simulate-mt) with

* **content-addressed cache keys** per stage (hash of the function's
  textual IR + machine configuration + stage options);
* a **persistent artifact cache** (``REPRO_CACHE_DIR`` or
  ``~/.cache/repro``) shared across processes and sweep runs, holding
  the stage artifacts plus one small result entry per evaluated cell
  (:func:`repro.pipeline.core.evaluate_summary`);
* **per-stage telemetry** (wall time, latency histograms, cache
  hits/misses, PDG/channel/cycle counters) rendered by
  ``python -m repro ... --timings`` and exported by ``repro serve``
  on ``/metrics``;
* one-cell evaluation in :mod:`.core`: ``parallelize``,
  ``evaluate_workload`` and ``evaluate_summary``.  Batches are the
  facade's: :func:`repro.api.evaluate_many` fans the requests no cache
  entry answers across a ``multiprocessing`` pool, and its workers
  send back :class:`~repro.pipeline.core.CellResult` summaries only.

Consumers should import the *facade*, :mod:`repro.api` — the high-level
entry points (``parallelize``, ``evaluate_workload``, ``evaluate_many``,
``Evaluation``...) are re-exported there with a stability covenant.

See the submodules: :mod:`.stages` (the pass manager), :mod:`.cache`,
:mod:`.telemetry`, :mod:`.fingerprint`, and :mod:`.core` (the one-cell
entry points).
"""

from .cache import (ArtifactCache, CacheStats, configure_cache,
                    default_cache_dir, get_cache)
from .store import (ArtifactStore, HttpStore, LocalStore, make_store,
                    STORE_URL_ENV)
from .fingerprint import (digest, fingerprint_config, fingerprint_function,
                          fingerprint_inputs, fingerprint_profile)
from .stages import (EVALUATE_STAGES, PARALLELIZE_STAGES, STAGES,
                     PipelineContext, Stage, TECHNIQUES, execute,
                     stage_names)
from .telemetry import (LatencyHistogram, StageRecord, Telemetry,
                        global_telemetry, reset_global_telemetry)

__all__ = [
    # stage graph
    "Stage", "STAGES", "PipelineContext", "execute",
    "PARALLELIZE_STAGES", "EVALUATE_STAGES", "stage_names", "TECHNIQUES",
    # caching
    "ArtifactCache", "CacheStats", "configure_cache", "default_cache_dir",
    "get_cache",
    # blob stores
    "ArtifactStore", "HttpStore", "LocalStore", "make_store",
    "STORE_URL_ENV",
    # fingerprints
    "digest", "fingerprint_config", "fingerprint_function",
    "fingerprint_inputs", "fingerprint_profile",
    # telemetry
    "LatencyHistogram", "StageRecord", "Telemetry", "global_telemetry",
    "reset_global_telemetry",
]
