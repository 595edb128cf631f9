"""Pluggable blob stores behind the artifact cache.

:class:`~repro.pipeline.cache.ArtifactCache` owns envelopes (schema
validation, pickling, the in-process memory tier, hit/miss accounting);
*where the bytes live* is this module's business.  Two implementations
share one small interface:

* :class:`LocalStore` — today's on-disk layout, byte-compatible with
  every cache directory written before the interface existed
  (``<dir>/<stage>/<key[:2]>/<key>.pkl``, atomic temp-file + rename
  writes so parallel sweep workers can share one directory);
* :class:`HttpStore` — a remote store (served by the ``repro serve
  --role coordinator`` daemon under ``/store/<stage>/<key>``) layered
  over a :class:`LocalStore`: reads try the local disk first and fall
  back to an HTTP ``GET``, **replicating** fetched blobs into the local
  store so a cell computed on one cluster node becomes a local cache
  hit everywhere; writes land locally and are pushed with an HTTP
  ``PUT`` (best effort — an unreachable coordinator degrades to
  local-only caching, never fails an evaluation).

Selection is environment-driven so the store survives into ``sweep
--jobs`` / service pool worker processes without widening the pickled
pool payloads: when ``REPRO_STORE_URL`` names a remote store, every
:class:`ArtifactCache` built afterwards (e.g. by
:func:`~repro.pipeline.cache.configure_cache` inside a forked worker)
reads through it.  Cluster worker daemons set the variable from their
``--coordinator`` URL at startup.

:func:`http_request` is the repo's one HTTP client transport — the
only ``urlopen`` call under ``src/repro``.  :class:`HttpStore`, the
:class:`repro.api.ServiceClient`, the coordinator's proxy and the
worker's cluster RPC all go through it, so connection reuse is one
edit here.
"""

from __future__ import annotations

import os
import tempfile
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

#: Environment variable naming the remote artifact store's base URL
#: (e.g. ``http://coordinator:8184/store``).  Empty/unset = local-only.
STORE_URL_ENV = "REPRO_STORE_URL"

#: Per-request budget for remote store traffic, seconds.  Artifacts are
#: small (pickled stage payloads); a slow coordinator should degrade
#: the read to a recompute, not wedge the evaluation.
REMOTE_TIMEOUT = float(os.environ.get("REPRO_STORE_TIMEOUT", "10") or 10)


def http_request(method: str, url: str, body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: float = REMOTE_TIMEOUT) -> Tuple[int, bytes]:
    """One HTTP exchange: ``(status, response_bytes)``.  Any status a
    live server sends is an *answer* (400/404/429/504 included); only
    a connection-level failure raises (``OSError``, or
    ``http.client.HTTPException`` for a reply torn mid-way)."""
    request = urllib.request.Request(url, data=body, method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()


class ArtifactStore:
    """The blob interface the cache talks to.

    ``get`` returns the raw envelope bytes or ``None`` on a clean miss
    (any other failure may raise — the cache counts it as an
    invalidation); ``put``/``delete`` are best-effort; ``counters``
    exposes implementation-specific traffic counters for ``/metrics``.
    """

    name = "abstract"

    def get(self, stage: str, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def put(self, stage: str, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def delete(self, stage: str, key: str) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        return {}


class LocalStore(ArtifactStore):
    """Content-addressed blobs on the local filesystem (the historical
    cache layout, byte-for-byte)."""

    name = "local"

    def __init__(self, directory: str):
        self.directory = directory

    def path(self, stage: str, key: str) -> str:
        return os.path.join(self.directory, stage, key[:2], key + ".pkl")

    def get(self, stage: str, key: str) -> Optional[bytes]:
        try:
            with open(self.path(stage, key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def put(self, stage: str, key: str, blob: bytes) -> None:
        path = self.path(stage, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                         suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def delete(self, stage: str, key: str) -> None:
        try:
            os.unlink(self.path(stage, key))
        except OSError:
            pass


class HttpStore(ArtifactStore):
    """Remote store with read-through replication into a local tier.

    Counter semantics (all exported under ``/metrics`` ``cache.store``):

    * ``local_hits`` — reads served by the local tier without network;
    * ``remote_hits`` / ``remote_misses`` — remote ``GET`` outcomes for
      blobs the local tier lacked;
    * ``replications`` — remote hits written back into the local store
      (the read-through making cross-node artifacts local);
    * ``remote_stores`` — blobs pushed with ``PUT``;
    * ``remote_errors`` — network/HTTP failures, all degraded to
      local-only behaviour.
    """

    name = "http"

    def __init__(self, remote_url: str, local: LocalStore,
                 timeout: float = REMOTE_TIMEOUT):
        self.remote_url = remote_url.rstrip("/")
        self.local = local
        self.timeout = timeout
        self._counters = {"local_hits": 0, "remote_hits": 0,
                          "remote_misses": 0, "replications": 0,
                          "remote_stores": 0, "remote_errors": 0}

    # LocalStore API compatibility for callers that inspect paths.
    @property
    def directory(self) -> str:
        return self.local.directory

    def path(self, stage: str, key: str) -> str:
        return self.local.path(stage, key)

    def _url(self, stage: str, key: str) -> str:
        return "%s/%s/%s" % (self.remote_url, stage, key)

    def get(self, stage: str, key: str) -> Optional[bytes]:
        blob = self.local.get(stage, key)
        if blob is not None:
            self._counters["local_hits"] += 1
            return blob
        try:
            status, blob = http_request("GET", self._url(stage, key),
                                        timeout=self.timeout)
        except Exception:
            status = None
        if status != 200:
            self._counters["remote_misses" if status == 404
                           else "remote_errors"] += 1
            return None
        self._counters["remote_hits"] += 1
        try:
            self.local.put(stage, key, blob)
            self._counters["replications"] += 1
        except Exception:
            pass  # an unwritable local tier still serves the bytes
        return blob

    def put(self, stage: str, key: str, blob: bytes) -> None:
        self.local.put(stage, key, blob)
        try:
            status, _ = http_request(
                "PUT", self._url(stage, key), blob,
                {"Content-Type": "application/octet-stream"},
                self.timeout)
        except Exception:
            status = None
        self._counters["remote_stores" if status == 200
                       else "remote_errors"] += 1

    def delete(self, stage: str, key: str) -> None:
        # Invalidations are local-only: a corrupt local blob says
        # nothing about the remote copy's health.
        self.local.delete(stage, key)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)


def store_url_from_env() -> Optional[str]:
    url = os.environ.get(STORE_URL_ENV, "").strip()
    return url or None


def make_store(directory: str,
               store_url: Optional[str] = None) -> ArtifactStore:
    """Build the store for one cache directory: an :class:`HttpStore`
    when a remote URL is given (explicitly or via ``REPRO_STORE_URL``),
    else the plain :class:`LocalStore`."""
    if store_url is None:
        store_url = store_url_from_env()
    local = LocalStore(directory)
    if store_url:
        return HttpStore(store_url, local)
    return local
