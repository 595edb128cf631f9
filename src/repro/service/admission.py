"""Admission control: the one bounded, per-tenant fair gate every
serving role puts in front of its evaluations.

The gate has ``limit`` slots (``--queue-limit``).  Requests carry a
tenant id (the ``X-Repro-Tenant`` header; absent = ``"default"``).  A
tenant may *run* at most ``tenant_limit`` requests and *wait* with at
most ``tenant_limit`` more (0 = ``limit``, i.e. no extra cap).  Free
slots go round-robin to the tenants that have waiters and are under
their cap, so a flooding tenant exhausts only its own allowance and
collects the 429s while other tenants keep their fair share.

How long a request may wait is its caller's budget.  A node passes 0:
a request that finds no slot is shed at once with HTTP 429 — under
overload, fast rejection beats a convoy of doomed waiters, and
memoized responses bypass the gate entirely.  The coordinator passes
its proxy budget, so it queues, and a budget that runs out is the
caller's 503 ``overload``.

The mechanics are ticket-based so HTTP handler threads can block on
their own admission: :meth:`AdmissionQueue.submit` either raises
:class:`QueueFullError` or returns a :class:`Ticket`, and
:meth:`AdmissionQueue.release` ends a ticket whatever its state —
withdrawing it while it waits, or returning its slot (and granting the
next waiter) once granted.  Per-tenant ``active``/``depth``/
``admitted``/``shed`` counters feed ``/metrics`` and the cluster
dashboard.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, Optional

DEFAULT_TENANT = "default"

WAITING, RUNNING, DONE = "waiting", "running", "done"


class QueueFullError(Exception):
    """No slot and no room to wait (HTTP 429); ``limit`` is the bound
    that was hit."""

    def __init__(self, limit: int, tenant: str = DEFAULT_TENANT,
                 tenant_full: bool = False):
        scope = ("tenant %r at limit %d" % (tenant, limit) if tenant_full
                 else "admission queue full (limit %d)" % limit)
        super().__init__(scope)
        self.limit = limit
        self.tenant = tenant
        self.tenant_full = tenant_full

    def reply(self, key: Optional[str]) -> tuple:
        """The 429 reply both serving roles answer with."""
        return (429, {"error": str(self), "kind": "shed",
                      "tenant": self.tenant, "queue_limit": self.limit},
                "shed", key)


class Ticket:
    """One request's claim on a slot."""

    __slots__ = ("tenant", "state", "_granted")

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.state = WAITING
        self._granted = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until granted or ``timeout`` seconds pass."""
        return self._granted.wait(timeout)


class _Tenant:
    __slots__ = ("active", "waiting", "admitted", "shed")

    def __init__(self) -> None:
        self.active = 0
        self.waiting: Deque[Ticket] = deque()
        self.admitted = 0
        self.shed = 0


class AdmissionQueue:
    """``limit`` slots granted round-robin across capped tenants."""

    def __init__(self, limit: int, tenant_limit: int = 0):
        self.limit = limit
        self.tenant_limit = tenant_limit or limit
        self._lock = threading.Lock()
        self._active = 0
        self._waiting = 0
        #: Insertion order is the round-robin order: the tenant just
        #: granted moves to the back.
        self._tenants: "OrderedDict[str, _Tenant]" = OrderedDict()
        self.admitted_total = 0
        self.shed_total = 0

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    def admit(self, tenant: str = DEFAULT_TENANT,
              budget: float = 0.0) -> Optional[Ticket]:
        """Take a slot for ``tenant``, waiting at most ``budget``
        seconds: the granted ticket (``release`` it when done), or
        ``None`` when the budget ran out first.  Raises
        :class:`QueueFullError` when the request may not wait."""
        ticket = self.submit(tenant, wait=budget > 0)
        if ticket.wait(budget):
            return ticket
        # A grant racing the timeout is returned here, not leaked.
        self.release(ticket)
        return None

    def submit(self, tenant: str = DEFAULT_TENANT,
               wait: bool = False) -> Ticket:
        """A ticket granted now when a slot is free and ``tenant`` is
        under its cap; else, with ``wait``, queued in ``tenant``'s FIFO.
        Raises :class:`QueueFullError` when it can be neither."""
        ticket = Ticket(tenant)
        with self._lock:
            slot = self._tenants.get(tenant)
            if slot is None:
                slot = self._tenants[tenant] = _Tenant()
            capped = slot.active >= self.tenant_limit
            if not capped and self._active < self.limit:
                self._grant_locked(tenant, slot, ticket)
            elif wait and len(slot.waiting) < self.tenant_limit:
                slot.waiting.append(ticket)
                self._waiting += 1
            else:
                slot.shed += 1
                self.shed_total += 1
                if wait or capped:
                    raise QueueFullError(self.tenant_limit, tenant,
                                         tenant_full=True)
                raise QueueFullError(self.limit, tenant)
        return ticket

    def release(self, ticket: Ticket) -> None:
        """End ``ticket``: return its slot and grant the next waiter if
        it was granted, withdraw it if it still waits.  Idempotent."""
        with self._lock:
            slot = self._tenants[ticket.tenant]
            if ticket.state == RUNNING:
                slot.active -= 1
                self._active -= 1
                self._pump_locked()
            elif ticket.state == WAITING:
                slot.waiting.remove(ticket)
                self._waiting -= 1
            ticket.state = DONE

    def _grant_locked(self, name: str, slot: _Tenant,
                      ticket: Ticket) -> None:
        slot.active += 1
        slot.admitted += 1
        self._active += 1
        self.admitted_total += 1
        self._tenants.move_to_end(name)
        ticket.state = RUNNING
        ticket._granted.set()

    def _pump_locked(self) -> None:
        """Grant free slots round-robin to the tenants that have
        waiters and are under their cap."""
        while self._waiting and self._active < self.limit:
            for name, slot in self._tenants.items():
                if slot.waiting and slot.active < self.tenant_limit:
                    break
            else:
                return
            self._waiting -= 1
            self._grant_locked(name, slot, slot.waiting.popleft())

    def tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant gauges and counters for ``/metrics``."""
        with self._lock:
            return self._tenants_locked()

    def _tenants_locked(self) -> Dict[str, Dict[str, int]]:
        return {name: {"active": slot.active,
                       "depth": len(slot.waiting),
                       "admitted": slot.admitted,
                       "shed": slot.shed}
                for name, slot in sorted(self._tenants.items())}

    def stats(self) -> Dict[str, object]:
        """Gate gauges, totals and per-tenant counters."""
        with self._lock:
            return {"queue_limit": self.limit,
                    "tenant_limit": self.tenant_limit,
                    "in_flight": self._active,
                    "depth": self._waiting,
                    "admitted_total": self.admitted_total,
                    "shed_total": self.shed_total,
                    "tenants": self._tenants_locked()}
