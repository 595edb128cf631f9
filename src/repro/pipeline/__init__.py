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
* a batch engine, :func:`evaluate_matrix`, that fans evaluation cells
  across a ``multiprocessing`` pool (``sweep --jobs N``) and whose
  worker machinery (:func:`pool_payload`/:func:`run_cell_payload`) the
  service worker pool reuses.

Consumers should import the *facade*, :mod:`repro.api` — the high-level
entry points (``parallelize``, ``evaluate_workload``,
``evaluate_matrix``, ``Evaluation``...) are re-exported there with a
stability covenant; importing them from this package still works for
one release behind a ``DeprecationWarning``.

See the submodules: :mod:`.stages` (the pass manager), :mod:`.cache`,
:mod:`.telemetry`, :mod:`.fingerprint`, :mod:`.matrix`, and :mod:`.core`
(the legacy wrappers).
"""

import warnings

from .cache import (ArtifactCache, CacheStats, configure_cache,
                    default_cache_dir, get_cache)
from .store import (ArtifactStore, HttpStore, LocalStore, make_store,
                    STORE_URL_ENV)
from .fingerprint import (digest, fingerprint_config, fingerprint_function,
                          fingerprint_inputs, fingerprint_profile)
from .matrix import MatrixCell, build_cells, pool_payload, run_cell_payload
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
    # batch machinery
    "MatrixCell", "build_cells", "pool_payload", "run_cell_payload",
]

#: High-level entry points whose supported home is now the
#: :mod:`repro.api` facade.  Kept importable from here for one release.
_DEPRECATED_TO_API = ("Evaluation", "Parallelization",
                      "evaluate_workload", "parallelize",
                      "evaluate_matrix", "make_partitioner", "normalize",
                      "technique_config")


def __getattr__(name):
    if name in _DEPRECATED_TO_API:
        warnings.warn(
            "repro.pipeline.%s is deprecated; import it from repro.api "
            "instead (shim scheduled for removal one release after 1.2)"
            % name, DeprecationWarning, stacklevel=2)
        if name in ("Evaluation", "Parallelization", "evaluate_workload",
                    "parallelize"):
            from . import core
            return getattr(core, name)
        if name == "evaluate_matrix":
            from .matrix import evaluate_matrix
            return evaluate_matrix
        from . import stages
        return getattr(stages, name)
    if name == "_check_results":  # internal; kept for old pickles/tools
        from .core import _check_results
        return _check_results
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_DEPRECATED_TO_API))
