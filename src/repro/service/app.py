"""The scheduling service: admission, memoization, degradation.

:class:`SchedulerService` is the HTTP-agnostic core of ``repro serve``.
One evaluation request travels:

1. **validate** — malformed bodies answer 400 before costing anything
   (:func:`repro.service.wire.intake`, the prologue the cluster
   coordinator shares);
2. **memoize** — the request key (a content fingerprint over the cell
   and both schema versions, :meth:`EvaluateRequest.request_key`) is
   looked up in the in-process response memo (an LRU of
   :data:`MEMO_ENTRIES` documents): a hit answers immediately with
   ``memoized: true``, bypassing admission entirely;
3. **admit** — the tenant gate (:class:`AdmissionQueue`) is given a
   budget of 0, so it sheds with 429 when ``queue_limit`` requests, or
   this tenant's ``tenant_limit``, are already in the building;
4. **dispatch** — the worker pool evaluates the cell (crashes retried
   with backoff, see :mod:`repro.service.workers`);
5. **degrade** — on timeout the worker is cancelled and, when the
   persistent artifact cache holds a previous result for this key, it
   is served with ``stale: true`` (+ age); otherwise 504.

Successful results are memoized *and* persisted to the artifact cache
under the ``service-result`` stage, so staleness degradation survives
daemon restarts and memo eviction.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Dict, Optional

from ..api import EvaluateRequest, get_cache
from .admission import AdmissionQueue, DEFAULT_TENANT, QueueFullError
from .config import ServiceConfig
from .metrics import ServiceMetrics
from .wire import Reply, intake
from .workers import make_pool

#: ArtifactCache stage name for persisted response documents.
RESULT_STAGE = "service-result"

#: Response-memo bound, in documents (least recently used goes first).
#: A document with telemetry is ~4 KiB of JSON, ~25 KiB as Python
#: objects, so a full memo is ~25 MiB; an evicted key is re-evaluated
#: from warm artifacts, or served stale from :data:`RESULT_STAGE` on
#: timeout.
MEMO_ENTRIES = 1024

HTTP_OK = 200
HTTP_ERROR = 500
HTTP_TIMEOUT = 504


class SchedulerService:
    """Admission + memo + pool + degradation, one instance per daemon."""

    def __init__(self, config: ServiceConfig):
        self.config = config.validate()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionQueue(config.queue_limit,
                                        config.tenant_limit)
        self.pool = make_pool(config, self.metrics)
        self._memo: "collections.OrderedDict[str, Dict[str, object]]" \
            = collections.OrderedDict()
        self._memo_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.pool.stop()

    # -- request handling --------------------------------------------------

    def handle_evaluate(self, body: object,
                        tenant: str = DEFAULT_TENANT) -> Reply:
        """Process one evaluation request body (already JSON-decoded).
        ``tenant`` is the fairness bucket (the ``X-Repro-Tenant``
        header); it never affects results or request keys, only which
        admission allowance the request draws from.  Returns
        ``(http_status, response_document, outcome, request_key)``
        where ``outcome`` is the one-word disposition for the request
        log."""
        started = time.perf_counter()
        request, key, rejection = intake(body, self.metrics.incr)
        if rejection is not None:
            return rejection

        memoized = self._memo_lookup(key)
        if memoized is not None:
            self.metrics.incr("memo_hits")
            self.metrics.incr("responses_ok")
            return HTTP_OK, memoized, "memo", key

        try:
            ticket = self.admission.admit(tenant, budget=0.0)
        except QueueFullError as error:
            self.metrics.incr("shed_total")
            return error.reply(key)
        try:
            reply = self._evaluate_admitted(request, key)
        finally:
            self.admission.release(ticket)
        if reply[0] == HTTP_OK:
            self.metrics.incr("responses_ok")
            self.metrics.observe_request(time.perf_counter() - started)
        else:
            self.metrics.incr("responses_error")
        return reply

    def _evaluate_admitted(self, request: EvaluateRequest,
                           key: str) -> Reply:
        task = self.pool.submit(request)
        finished = task.wait(self.config.request_timeout)
        if not finished:
            self.pool.cancel(task)
            task.wait(0.1)  # let the cancel settle
        if task.result is not None:
            self.metrics.incr("evaluations_completed")
            self.metrics.merge_telemetry(task.result.get("telemetry"))
            self._memo_store(key, task.result)
            return HTTP_OK, task.result, "ok", key
        if task.timed_out or not finished:
            self.metrics.incr("timeouts_total")
            stale = self._stale_lookup(key)
            if stale is not None:
                self.metrics.incr("stale_served")
                return HTTP_OK, stale, "stale", key
            return (HTTP_TIMEOUT,
                    {"error": task.error or "evaluation timed out",
                     "kind": "timeout",
                     "timeout_seconds": self.config.request_timeout},
                    "timeout", key)
        return (HTTP_ERROR,
                {"error": task.error or "evaluation failed",
                 "kind": "evaluation"},
                "error", key)

    # -- memo + stale degradation ------------------------------------------

    def _memo_lookup(self, key: str) -> Optional[Dict[str, object]]:
        with self._memo_lock:
            document = self._memo.get(key)
            if document is not None:
                self._memo.move_to_end(key)
        if document is None:
            return None
        marked = dict(document)
        marked["memoized"] = True
        return marked

    def _memo_store(self, key: str, document: Dict[str, object]) -> None:
        with self._memo_lock:
            self._memo[key] = document
            self._memo.move_to_end(key)
            if len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)
        # Persist for cross-restart stale degradation; best effort.
        get_cache().store(RESULT_STAGE, key, document)

    def _stale_lookup(self, key: str) -> Optional[Dict[str, object]]:
        """A previously computed response for this key, marked stale."""
        with self._memo_lock:
            document = self._memo.get(key)
        meta: Dict[str, object] = {}
        if document is None:
            hit, payload, meta = get_cache().load_with_meta(
                RESULT_STAGE, key)
            if not hit or not isinstance(payload, dict):
                return None
            document = payload
        marked = dict(document)
        marked["stale"] = True
        stored_at = float(meta.get("stored_at", 0.0) or 0.0)
        if stored_at:
            marked["stale_age_seconds"] = max(0.0,
                                              time.time() - stored_at)
        return marked

    # -- observability -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        snap = self.pool.snapshot()
        return {
            "status": "ok",
            "workers": snap["workers"],
            "in_flight": snap["in_flight"],
            "queue_depth": snap["queue_depth"],
            "uptime_seconds": time.time() - self.metrics.started_at,
        }

    def metrics_document(self) -> Dict[str, object]:
        snap = self.pool.snapshot()
        return self.metrics.snapshot(
            queue_depth=snap["queue_depth"],
            in_flight=snap["in_flight"],
            workers=snap["workers"],
            queue_limit=self.admission.limit,
            tenants=self.admission.tenants(),
            store_counters=get_cache().store_counters())
