"""Persistent on-disk artifact cache for pipeline stages.

Artifacts are pickle blobs keyed by (stage name, content fingerprint) —
see :mod:`repro.pipeline.fingerprint`.  The cache directory defaults to
``~/.cache/repro`` and is overridden by the ``REPRO_CACHE_DIR``
environment variable; ``REPRO_CACHE=0`` (or ``off``/``no``) disables the
cache entirely.  Writes are atomic (write-to-temp + rename), so parallel
sweep workers can share one directory safely.

In front of the disk sits a bounded in-process LRU of *encoded* envelope
bytes (``REPRO_CACHE_MEMORY_BUDGET`` bytes, default 128 MiB, 0 disables):
sweep cells that share an artifact — e.g. four partitioner/topology
variants of one workload reusing its profile and PDG — then pay one
``pickle.loads`` instead of a disk round-trip.  Bytes, not objects, are
cached because stages mutate their payloads in place (the local
scheduler reorders instruction lists); every hit deserializes a fresh
object graph.  Memory hits count as ordinary hits plus ``memory_hits``.

Blob I/O is delegated to a pluggable :class:`~repro.pipeline.store.
ArtifactStore`: by default the historical on-disk layout
(:class:`~repro.pipeline.store.LocalStore`), or — when
``REPRO_STORE_URL`` names a coordinator — a read-through
:class:`~repro.pipeline.store.HttpStore` that replicates remote blobs
into the local tier so a cell computed on one cluster node is a cache
hit everywhere.

The cache is best-effort by design: a missing, corrupted, or truncated
blob is counted as an invalidation and recomputed, never raised.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .fingerprint import SCHEMA_VERSION
from .store import ArtifactStore, make_store, store_url_from_env

_DISABLE_VALUES = ("0", "off", "no", "false")

DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024


def _default_memory_budget() -> int:
    raw = os.environ.get("REPRO_CACHE_MEMORY_BUDGET")
    if raw is None:
        return DEFAULT_MEMORY_BUDGET
    try:
        return max(int(raw), 0)
    except ValueError:
        return DEFAULT_MEMORY_BUDGET


class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance.

    ``memory_hits`` counts the subset of ``hits`` served from the
    in-process memory tier without touching the disk."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        self.memory_hits = 0

    def reset(self) -> None:
        self.hits = self.misses = self.invalidations = self.stores = 0
        self.memory_hits = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations, "stores": self.stores,
                "memory_hits": self.memory_hits}

    def summary(self) -> str:
        return ("%d hits (%d from memory), %d misses, %d invalidations, "
                "%d stores"
                % (self.hits, self.memory_hits, self.misses,
                   self.invalidations, self.stores))

    def __repr__(self) -> str:  # pragma: no cover
        return "<CacheStats %s>" % self.summary()


def default_cache_dir() -> str:
    return (os.environ.get("REPRO_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "repro"))


class ArtifactCache:
    """Content-addressed pickle store with per-stage subdirectories."""

    def __init__(self, directory: Optional[str] = None,
                 enabled: Optional[bool] = None,
                 memory_budget: Optional[int] = None,
                 store: Optional[ArtifactStore] = None):
        if enabled is None:
            enabled = (os.environ.get("REPRO_CACHE", "1").lower()
                       not in _DISABLE_VALUES)
        self.directory = directory or default_cache_dir()
        self.enabled = enabled
        self.store_backend = store or make_store(self.directory)
        self.stats = CacheStats()
        if memory_budget is None:
            memory_budget = _default_memory_budget()
        self.memory_budget = max(int(memory_budget), 0)
        self._memory: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self._memory_bytes = 0

    # -- lookup ------------------------------------------------------------

    def load(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, payload)``.  Any I/O or unpickling failure is a
        miss (corrupt blobs additionally count as invalidations and are
        removed); a disabled cache always misses without accounting."""
        hit, payload, _meta = self.load_with_meta(stage, key)
        return hit, payload

    def load_with_meta(self, stage: str,
                       key: str) -> Tuple[bool, Any, Dict[str, Any]]:
        """Like :meth:`load`, but also return envelope metadata — today
        just ``stored_at`` (epoch seconds; 0.0 for pre-metadata blobs).
        The ``repro serve`` daemon uses it to report the age of stale
        artifacts served after an evaluation timeout."""
        if not self.enabled:
            return False, None, {}
        mem_key = (stage, key)
        blob = self._memory.get(mem_key)
        if blob is not None:
            envelope = self._decode(blob, stage)
            if envelope is not None:
                self._memory.move_to_end(mem_key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                meta = {"stored_at": float(envelope.get("stored_at", 0.0))}
                return True, envelope["payload"], meta
            self._memory_drop(mem_key)
        try:
            blob = self.store_backend.get(stage, key)
        except Exception:
            self._invalidate(stage, key)
            return False, None, {}
        if blob is None:
            self.stats.misses += 1
            return False, None, {}
        envelope = self._decode(blob, stage)
        if envelope is None:
            self._invalidate(stage, key)
            return False, None, {}
        self.stats.hits += 1
        self._memory_put(mem_key, blob)
        meta = {"stored_at": float(envelope.get("stored_at", 0.0))}
        return True, envelope["payload"], meta

    def store(self, stage: str, key: str, payload: Any) -> None:
        """Atomically persist ``payload`` under (stage, key)."""
        if not self.enabled:
            return
        envelope = {"schema": SCHEMA_VERSION, "stage": stage, "key": key,
                    "stored_at": time.time(), "payload": payload}
        try:
            blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable payloads are simply not cached
        self._memory_put((stage, key), blob)
        try:
            self.store_backend.put(stage, key, blob)
        except Exception:
            return  # best effort: an unwritable cache never fails the run
        self.stats.stores += 1

    def drop_memory(self) -> None:
        """Empty the in-process memory tier (the disk is untouched).
        Tests use this to model a fresh process against a shared disk."""
        self._memory.clear()
        self._memory_bytes = 0

    def clear(self) -> None:
        self.drop_memory()
        shutil.rmtree(self.directory, ignore_errors=True)

    def store_counters(self) -> Dict[str, int]:
        """Blob-store traffic counters (empty for the plain local store;
        remote hit/replication counters for an ``http`` store)."""
        return self.store_backend.counters()

    # -- internals ---------------------------------------------------------

    def _path(self, stage: str, key: str) -> str:
        return self.store_backend.path(stage, key)

    def _decode(self, blob: bytes, stage: str) -> Optional[Dict[str, Any]]:
        """Unpickle and validate an envelope; ``None`` on any mismatch."""
        try:
            envelope = pickle.loads(blob)
        except Exception:
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or envelope.get("stage") != stage
                or "payload" not in envelope):
            return None
        return envelope

    def _memory_put(self, mem_key: Tuple[str, str], blob: bytes) -> None:
        if not self.memory_budget or len(blob) > self.memory_budget:
            return
        self._memory_drop(mem_key)
        self._memory[mem_key] = blob
        self._memory_bytes += len(blob)
        while self._memory_bytes > self.memory_budget:
            _evicted, old = self._memory.popitem(last=False)
            self._memory_bytes -= len(old)

    def _memory_drop(self, mem_key: Tuple[str, str]) -> None:
        blob = self._memory.pop(mem_key, None)
        if blob is not None:
            self._memory_bytes -= len(blob)

    def _invalidate(self, stage: str, key: str) -> None:
        self.stats.invalidations += 1
        self.stats.misses += 1
        try:
            self.store_backend.delete(stage, key)
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        return "<ArtifactCache %s (%s): %s>" % (
            self.directory, "on" if self.enabled else "off",
            self.stats.summary())


_ACTIVE: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache used when a run does not pass its own."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = ArtifactCache()
    return _ACTIVE


def configure_cache(directory: Optional[str] = None,
                    enabled: Optional[bool] = None,
                    memory_budget: Optional[int] = None) -> ArtifactCache:
    """Replace the process-wide cache (e.g. per-test tmp directories, or
    ``--no-cache`` from the CLI) and return the new instance."""
    global _ACTIVE
    _ACTIVE = ArtifactCache(directory, enabled, memory_budget)
    return _ACTIVE


def ensure_cache(directory: str, enabled: bool) -> None:
    """Point the process-wide cache where a pool payload asks.  The
    active cache is kept — with its memory tier, stats and store counters,
    which is what lets a long-lived worker share front-end artifacts
    between requests — unless it points somewhere else: another
    directory or enabled flag (spawned workers), or another
    ``REPRO_STORE_URL`` once a cluster worker has exported one."""
    cache = get_cache()
    active = (cache.directory, cache.enabled,
              getattr(cache.store_backend, "remote_url", None))
    store_url = store_url_from_env()
    if active != (directory, enabled,
                  store_url and store_url.rstrip("/")):
        configure_cache(directory, enabled)
