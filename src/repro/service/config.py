"""Configuration for the ``repro serve`` daemon."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

#: Roles ``repro serve`` can assume (see :mod:`repro.cluster`).
ROLES = ("standalone", "coordinator", "worker")


@dataclass
class ServiceConfig:
    """Every operational knob of the scheduling service.

    ``workers > 0`` runs evaluations on that many persistent worker
    *processes* (crash-isolated, cancellable); ``workers == 0`` selects
    the inline thread executor — no process isolation (a timed-out
    evaluation keeps running to completion in the background), but no
    ``multiprocessing`` dependency either, which is also the automatic
    fallback when process pools are unavailable.
    """

    host: str = "127.0.0.1"
    port: int = 8184
    #: Worker processes (0 = inline thread executor).
    workers: int = 2
    #: Admitted-but-unfinished request bound; beyond it requests are
    #: shed with HTTP 429 instead of queueing unboundedly.
    queue_limit: int = 16
    #: Per-request evaluation budget, seconds.  On expiry the worker is
    #: cancelled and the response degrades to a cached artifact
    #: (``stale: true``) when one exists, else HTTP 504.
    request_timeout: float = 30.0
    #: Crashed-worker retry budget per request (the re-dispatches after
    #: a worker dies mid-evaluation), with linear backoff between tries.
    max_retries: int = 2
    retry_backoff: float = 0.05
    #: Supervisor poll interval for deadlines / dead workers, seconds.
    poll_interval: float = 0.02
    #: Inline-executor threads (used when ``workers == 0``).
    inline_threads: int = 4
    #: Structured JSON request-log sink; ``None`` = ``sys.stderr``.
    #: ``quiet=True`` drops request logs entirely (tests).
    log_stream: Optional[object] = None
    quiet: bool = False
    #: Test seam: replaces the evaluation callable in *inline* mode
    #: (process workers always run the real facade path).
    evaluate_fn: Optional[Callable] = field(default=None, repr=False)
    #: Cluster role: ``standalone`` (this host answers ``/v1/evaluate``
    #: itself — the historical behaviour), ``coordinator`` (shard
    #: requests across registered worker nodes, serve the remote
    #: artifact store and cluster dashboard), or ``worker`` (register
    #: with a coordinator and evaluate the shard routed here).
    role: str = "standalone"
    #: Coordinator base URL (required when ``role == "worker"``).
    coordinator_url: Optional[str] = None
    #: Stable node identity used for rendezvous sharding; defaults to
    #: ``host:port`` when unset.
    node_id: Optional[str] = None
    #: Worker → coordinator heartbeat period, seconds.  A node silent
    #: for ~3 periods is marked unhealthy and sharded around.
    heartbeat_interval: float = 2.0
    #: Per-tenant cap on running requests, and on waiting ones (0 = the
    #: global ``queue_limit``, i.e. no extra cap).  Set below
    #: ``queue_limit`` so one flooding tenant cannot take every slot.
    tenant_limit: int = 0

    def validate(self) -> "ServiceConfig":
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.inline_threads < 1:
            raise ValueError("inline_threads must be >= 1")
        if self.role not in ROLES:
            raise ValueError("role must be one of %s" % (ROLES,))
        if self.role == "worker" and not self.coordinator_url:
            raise ValueError("--role worker requires --coordinator URL")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.tenant_limit < 0:
            raise ValueError("tenant_limit must be >= 0")
        return self
