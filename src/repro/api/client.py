"""A small HTTP client for ``repro serve`` daemons and clusters.

:class:`ServiceClient` speaks the same wire surface whether the base
URL is a standalone daemon, a cluster coordinator, or one worker node —
that symmetry is the point: callers switch from single-host to sharded
serving by changing a URL, nothing else.  ``tenant`` is forwarded as
the ``X-Repro-Tenant`` fairness header (it never affects results or
request keys).  Bytes travel through the repo's one HTTP transport,
:func:`repro.api.http_request`; any HTTP status is an answer
(``evaluate_raw`` hands it back, the typed methods raise
:class:`ServiceError`), and only a connection failure raises through.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from ..pipeline.store import http_request
from .types import EvaluateRequest, EvaluateResult


class ServiceError(Exception):
    """A non-200 answer from the service (the document is attached)."""

    def __init__(self, status: int, document: Dict[str, object]):
        super().__init__("HTTP %d: %s"
                         % (status, document.get("error", document)))
        self.status = status
        self.document = document


class ServiceClient:
    """JSON-over-HTTP access to one service/cluster endpoint."""

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport -------------------------------------------------------

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None
              ) -> Tuple[int, Dict[str, object]]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        status, raw = http_request(
            method, self.base_url + path, data,
            {"Content-Type": "application/json",
             "X-Repro-Tenant": self.tenant}, self.timeout)
        try:
            return status, json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return status, {"error": "non-JSON response",
                            "raw": raw.decode("utf-8", "replace")}

    # -- typed surface -----------------------------------------------------

    def evaluate_raw(self, body: Dict[str, object]
                     ) -> Tuple[int, Dict[str, object]]:
        """POST an already-shaped request body; returns
        ``(status, document)`` without raising on errors (tests and
        tools inspect shed/timeout documents directly)."""
        return self._json("POST", "/v1/evaluate", body)

    def evaluate(self, request: EvaluateRequest) -> EvaluateResult:
        """Evaluate through the service; raises :class:`ServiceError`
        on any non-200 disposition."""
        status, document = self.evaluate_raw(request.as_dict())
        if status != 200:
            raise ServiceError(status, document)
        return EvaluateResult.from_dict(document)

    def get(self, path: str) -> Dict[str, object]:
        """``GET`` one JSON document (``/cluster/nodes``, ...); raises
        :class:`ServiceError` on any non-200 answer."""
        status, document = self._json("GET", path)
        if status != 200:
            raise ServiceError(status, document)
        return document

    def metrics(self) -> Dict[str, object]:
        return self.get("/metrics")

    def health(self) -> Dict[str, object]:
        return self.get("/healthz")

    def schema(self) -> Dict[str, object]:
        return self.get("/v1/schema")
