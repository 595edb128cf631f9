"""Service behaviour: the tenant gate (shedding, plus a state machine
over every admission path), timeout degradation to stale cached
artifacts, idempotent memoization, and crashed-worker recovery in the
multiprocess pool."""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.api import (EvaluateRequest, EvaluateResult, configure_cache,
                       get_cache)
from repro.service import (AdmissionQueue, InlineWorkerPool,
                           ProcessWorkerPool, QueueFullError, RESULT_STAGE,
                           SchedulerService, ServiceConfig, ServiceMetrics,
                           make_pool)
import repro.service.app as app_module
import repro.service.workers as workers_module


@pytest.fixture
def isolated_cache(tmp_path):
    previous = configure_cache(str(tmp_path / "artifacts"))
    try:
        yield get_cache()
    finally:
        configure_cache(previous.directory, previous.enabled)


def _body(**overrides):
    fields = dict(program={"kind": "registry", "value": "ks"},
                  technique="gremio", n_threads=2, scale="train")
    fields.update(overrides)
    return fields


def _fake_result(request: EvaluateRequest,
                 speedup: float = 1.0) -> EvaluateResult:
    return EvaluateResult(request=request, metrics={"speedup": speedup})


class TestAdmissionQueue:
    def test_sheds_beyond_limit_and_frees_on_leave(self):
        queue = AdmissionQueue(2)
        first = queue.admit()
        queue.admit()
        with pytest.raises(QueueFullError) as shed:
            queue.admit()
        assert shed.value.limit == 2
        assert queue.shed_total == 1
        queue.release(first)
        queue.admit()  # freed slot is reusable
        assert queue.active == 2
        assert queue.admitted_total == 3

    def test_tenant_cap_keeps_shedding_fair(self):
        queue = AdmissionQueue(4, tenant_limit=2)
        noisy = queue.admit("noisy")
        queue.admit("noisy")
        with pytest.raises(QueueFullError) as shed:
            queue.admit("noisy")
        assert shed.value.tenant == "noisy" and shed.value.tenant_full
        assert shed.value.limit == 2  # the bound that was hit
        # The flooding tenant is at its own cap, but the global queue
        # is not: another tenant is still admitted into the slack.
        queue.admit("quiet")
        queue.admit("quiet")
        tenants = queue.tenants()
        assert tenants["noisy"] == {"active": 2, "depth": 0,
                                    "admitted": 2, "shed": 1}
        assert tenants["quiet"] == {"active": 2, "depth": 0,
                                    "admitted": 2, "shed": 0}
        queue.release(noisy)
        queue.admit("noisy")  # freed tenant allowance is reusable
        assert queue.active == 4
        assert queue.admitted_total == 5 and queue.shed_total == 1

    def test_threads_never_exceed_the_limits(self):
        queue = AdmissionQueue(3, tenant_limit=2)
        lock = threading.Lock()
        running = dict.fromkeys(TENANTS, 0)
        peaks = {"all": 0, "tenant": 0}
        outcomes = {"ok": 0, "shed": 0, "overload": 0}

        def tally(outcome):
            with lock:
                outcomes[outcome] += 1

        def client(tenant):
            for _ in range(40):
                try:
                    ticket = queue.admit(tenant, budget=0.01)
                except QueueFullError:
                    tally("shed")
                    continue
                if ticket is None:
                    tally("overload")
                    continue
                with lock:
                    running[tenant] += 1
                    peaks["all"] = max(peaks["all"], sum(running.values()))
                    peaks["tenant"] = max(peaks["tenant"], running[tenant])
                time.sleep(0)
                with lock:
                    running[tenant] -= 1
                    outcomes["ok"] += 1
                queue.release(ticket)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client,
                                        args=(TENANTS[n % 3],))
                       for n in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert peaks["all"] <= 3 and peaks["tenant"] <= 2
        stats = queue.stats()
        assert stats["in_flight"] == 0 and stats["depth"] == 0
        assert stats["admitted_total"] == outcomes["ok"]
        assert stats["shed_total"] == outcomes["shed"]
        assert sum(outcomes.values()) == 12 * 40


TENANTS = ("a", "b", "c")


class AdmissionMachine(RuleBasedStateMachine):
    """Every path through the gate — immediate grant, shed, queue,
    release, withdrawal before and after a grant — against a model of
    what each tenant asked for and what became of it."""

    @initialize(limit=st.integers(1, 3), tenant_limit=st.integers(0, 3))
    def build(self, limit, tenant_limit):
        self.gate = AdmissionQueue(limit, tenant_limit)
        self.cap = tenant_limit or limit
        self.calls = dict.fromkeys(TENANTS, 0)
        self.cancelled = dict.fromkeys(TENANTS, 0)
        self.live = []  # tickets not yet released, oldest first
        self.queued = set()  # ids of tickets that had to wait

    def _tickets(self, granted):
        return [t for t in self.live if t.wait(0) == granted]

    def _end(self, ticket):
        self.gate.release(ticket)
        self.live.remove(ticket)
        self.queued.discard(id(ticket))

    @rule(tenant=st.sampled_from(TENANTS), budget=st.sampled_from([0, 5]))
    def admit(self, tenant, budget):
        self.calls[tenant] += 1
        try:
            ticket = self.gate.submit(tenant, wait=budget > 0)
        except QueueFullError as error:
            assert error.tenant == tenant
            return
        if not ticket.wait(0):
            self.queued.add(id(ticket))
        self.live.append(ticket)

    @precondition(lambda self: self._tickets(granted=True))
    @rule(data=st.data())
    def release(self, data):
        self._end(data.draw(st.sampled_from(self._tickets(granted=True))))

    @precondition(lambda self: self._tickets(granted=False))
    @rule(data=st.data())
    def cancel_before_grant(self, data):
        ticket = data.draw(st.sampled_from(self._tickets(granted=False)))
        self._end(ticket)
        self.cancelled[ticket.tenant] += 1
        assert not ticket.wait(0)

    @precondition(lambda self: [t for t in self._tickets(granted=True)
                                if id(t) in self.queued])
    @rule(data=st.data())
    def cancel_after_grant(self, data):
        # A waiter whose budget ran out just as its grant landed.
        self._end(data.draw(st.sampled_from(
            [t for t in self._tickets(granted=True)
             if id(t) in self.queued])))

    @invariant()
    def bounds_hold(self):
        if not hasattr(self, "gate"):
            return
        stats = self.gate.stats()
        assert stats["in_flight"] <= self.gate.limit
        tenants = stats["tenants"]
        for counts in tenants.values():
            assert counts["active"] <= self.cap
            assert counts["depth"] <= self.cap
        if stats["in_flight"] < self.gate.limit:
            # No free slot stays idle while an eligible tenant waits.
            assert not [name for name, counts in tenants.items()
                        if counts["depth"] and counts["active"] < self.cap]
        for tenant in TENANTS:
            counts = tenants.get(tenant, dict.fromkeys(
                ("active", "depth", "admitted", "shed"), 0))
            running = [t for t in self._tickets(granted=True)
                       if t.tenant == tenant]
            assert counts["active"] == len(running)
            assert self.calls[tenant] == (counts["admitted"] + counts["shed"]
                                          + self.cancelled[tenant]
                                          + counts["depth"])
        assert sum(self.calls.values()) == (
            stats["admitted_total"] + stats["shed_total"]
            + sum(self.cancelled.values()) + stats["depth"])

    def teardown(self):
        if not hasattr(self, "gate"):
            return
        for ticket in list(self.live):
            self.gate.release(ticket)
        stats = self.gate.stats()
        assert stats["in_flight"] == 0 and stats["depth"] == 0
        assert all(counts["active"] == counts["depth"] == 0
                   for counts in stats["tenants"].values())


AdmissionMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
    derandomize=True)
TestAdmissionStateMachine = AdmissionMachine.TestCase


class TestShedding:
    def test_full_queue_sheds_429_instead_of_hanging(self, isolated_cache):
        release = threading.Event()

        def blocking_evaluate(request):
            release.wait(10.0)
            return _fake_result(request)

        service = SchedulerService(ServiceConfig(
            workers=0, inline_threads=4, queue_limit=2,
            request_timeout=10.0, quiet=True,
            evaluate_fn=blocking_evaluate))
        try:
            outcomes = {}

            def post(n_threads):
                status, document, outcome, _ = service.handle_evaluate(
                    _body(n_threads=n_threads))
                outcomes[n_threads] = (status, document, outcome)

            threads = [threading.Thread(target=post, args=(n,))
                       for n in (2, 4)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 5.0
            while service.admission.active < 2 and time.time() < deadline:
                time.sleep(0.01)
            assert service.admission.active == 2

            started = time.time()
            status, document, outcome, _ = service.handle_evaluate(
                _body(n_threads=8))
            assert time.time() - started < 2.0  # shed, not queued
            assert (status, outcome) == (429, "shed")
            assert document["kind"] == "shed"
            assert document["queue_limit"] == 2

            release.set()
            for thread in threads:
                thread.join(5.0)
            assert {s for s, _, _ in outcomes.values()} == {200}

            counters = service.metrics.counters
            assert counters["shed_total"] == 1
            assert counters["requests_total"] == 3
            assert counters["responses_ok"] == 2
        finally:
            release.set()
            service.close()

    def test_flooding_tenant_cannot_starve_another(self, isolated_cache):
        release = threading.Event()

        def blocking_evaluate(request):
            release.wait(10.0)
            return _fake_result(request)

        service = SchedulerService(ServiceConfig(
            workers=0, inline_threads=4, queue_limit=4, tenant_limit=2,
            request_timeout=10.0, quiet=True,
            evaluate_fn=blocking_evaluate))
        try:
            outcomes = {}

            def post(tag, n_threads, tenant):
                status, document, outcome, _ = service.handle_evaluate(
                    _body(n_threads=n_threads), tenant=tenant)
                outcomes[tag] = (status, document, outcome)

            flood = [threading.Thread(target=post,
                                      args=("noisy-%d" % n, n, "noisy"))
                     for n in (2, 4)]
            for thread in flood:
                thread.start()
            deadline = time.time() + 5.0
            while service.admission.active < 2 and time.time() < deadline:
                time.sleep(0.01)
            assert service.admission.active == 2

            # The third noisy request hits the per-tenant cap although
            # the global queue still has room -> shed with 429, fairly.
            status, document, outcome, _ = service.handle_evaluate(
                _body(n_threads=8), tenant="noisy")
            assert (status, outcome) == (429, "shed")
            assert document["kind"] == "shed"
            assert document["tenant"] == "noisy"

            # A quieter tenant is admitted into the remaining room the
            # flooder could not claim.
            quiet = threading.Thread(target=post,
                                     args=("quiet", 6, "quiet"))
            quiet.start()
            deadline = time.time() + 5.0
            while (service.admission.tenants()
                   .get("quiet", {}).get("active", 0) < 1
                   and time.time() < deadline):
                time.sleep(0.01)
            tenants = service.admission.tenants()
            assert tenants["noisy"]["active"] == 2
            assert tenants["noisy"]["shed"] == 1
            assert tenants["quiet"]["active"] == 1

            release.set()
            for thread in flood + [quiet]:
                thread.join(5.0)
            assert outcomes["quiet"][0] == 200
            assert {outcomes["noisy-%d" % n][0] for n in (2, 4)} == {200}

            # Per-tenant depth and shed counters surface in /metrics.
            document = service.metrics_document()
            assert document["tenants"]["noisy"]["shed"] == 1
            assert document["tenants"]["noisy"]["admitted"] == 2
            assert document["tenants"]["quiet"]["admitted"] == 1
        finally:
            release.set()
            service.close()


class TestTimeoutDegradation:
    def test_timeout_serves_stale_cached_artifact(self, isolated_cache):
        body = _body()
        request = EvaluateRequest.from_dict(body)
        key = request.request_key()
        isolated_cache.store(RESULT_STAGE, key,
                             _fake_result(request, speedup=2.0).as_dict())

        def slow_evaluate(req):
            time.sleep(1.0)
            return _fake_result(req)

        service = SchedulerService(ServiceConfig(
            workers=0, request_timeout=0.05, quiet=True,
            evaluate_fn=slow_evaluate))
        try:
            status, document, outcome, _ = service.handle_evaluate(body)
            assert (status, outcome) == (200, "stale")
            assert document["stale"] is True
            assert document["stale_age_seconds"] >= 0.0
            assert document["metrics"]["speedup"] == 2.0
            counters = service.metrics.counters
            assert counters["timeouts_total"] == 1
            assert counters["stale_served"] == 1
        finally:
            service.close()

    def test_timeout_without_cached_artifact_is_504(self, isolated_cache):
        def slow_evaluate(req):
            time.sleep(1.0)
            return _fake_result(req)

        service = SchedulerService(ServiceConfig(
            workers=0, request_timeout=0.05, quiet=True,
            evaluate_fn=slow_evaluate))
        try:
            status, document, outcome, _ = service.handle_evaluate(_body())
            assert (status, outcome) == (504, "timeout")
            assert document["kind"] == "timeout"
        finally:
            service.close()


class TestMemoization:
    def test_repeat_request_is_memoized_not_reevaluated(self,
                                                        isolated_cache):
        calls = []

        def counting_evaluate(request):
            calls.append(request.request_key())
            return _fake_result(request, speedup=1.5)

        service = SchedulerService(ServiceConfig(
            workers=0, quiet=True, evaluate_fn=counting_evaluate))
        try:
            first = service.handle_evaluate(_body())
            second = service.handle_evaluate(_body())
            assert first[0] == second[0] == 200
            assert first[2] == "ok" and second[2] == "memo"
            assert second[1]["memoized"] is True
            assert second[1]["metrics"] == first[1]["metrics"]
            assert len(calls) == 1  # idempotent: evaluated once
            assert service.metrics.counters["memo_hits"] == 1

            # A different cell is new work, not a memo hit.
            third = service.handle_evaluate(_body(n_threads=4))
            assert third[2] == "ok"
            assert len(calls) == 2
        finally:
            service.close()

    def test_memo_is_bounded_and_evicted_keys_still_degrade(
            self, isolated_cache, monkeypatch):
        monkeypatch.setattr(app_module, "MEMO_ENTRIES", 3)
        slow = threading.Event()

        def evaluate(request):
            if slow.is_set():
                time.sleep(1.0)
            return _fake_result(request, speedup=float(request.n_threads))

        service = SchedulerService(ServiceConfig(
            workers=0, quiet=True, evaluate_fn=evaluate))
        try:
            for n_threads in range(1, 9):
                assert service.handle_evaluate(
                    _body(n_threads=n_threads))[2] == "ok"
                assert len(service._memo) <= 3
            # Least recently used goes first: the newest keys remain.
            assert service.handle_evaluate(_body(n_threads=8))[2] == "memo"
            # An evicted key is new work again; when that work times
            # out, the persisted service-result stage still degrades it.
            slow.set()
            service.config.request_timeout = 0.05
            status, document, outcome, key = service.handle_evaluate(
                _body(n_threads=1))
            assert (status, outcome) == (200, "stale")
            assert document["stale"] is True
            assert document["metrics"]["speedup"] == 1.0
            assert key not in service._memo
        finally:
            service.close()

    def test_validation_failure_is_400(self, isolated_cache):
        service = SchedulerService(ServiceConfig(workers=0, quiet=True))
        try:
            status, document, outcome, _ = service.handle_evaluate(
                _body(program={"kind": "registry",
                               "value": "no-such-workload"}))
            assert (status, outcome) == (400, "invalid")
            assert document["kind"] == "validation"
            assert service.metrics.counters["validation_errors"] == 1
        finally:
            service.close()


def _sleepy_evaluate(request_dict, cache_dir, cache_enabled):
    """Fork-inherited stand-in for the real evaluation (slow enough to
    kill a worker mid-flight, fast enough to keep the test snappy)."""
    time.sleep(0.6)
    return {"workload": request_dict["program"]["value"],
            "n_threads": request_dict["n_threads"], "telemetry": None}


def _requires_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")


class TestProcessPoolRecovery:
    def test_killed_worker_respawns_and_retries(self, isolated_cache,
                                                monkeypatch):
        _requires_fork()
        monkeypatch.setattr(workers_module, "_EVALUATE", _sleepy_evaluate)
        metrics = ServiceMetrics()
        pool = ProcessWorkerPool(ServiceConfig(
            workers=2, max_retries=2, retry_backoff=0.01,
            poll_interval=0.01), metrics)
        pool.start()
        try:
            tasks = [pool.submit(EvaluateRequest.from_dict(_body(
                n_threads=n))) for n in (2, 4)]
            deadline = time.time() + 5.0
            while (pool.snapshot()["in_flight"] < 2
                   and time.time() < deadline):
                time.sleep(0.01)
            assert pool.snapshot()["in_flight"] == 2

            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)

            # Both requests finish: the killed worker's task is retried
            # on a respawned process, the survivor is untouched.
            for task in tasks:
                assert task.wait(10.0), "task never finished"
                assert task.result is not None, task.error
            results = {task.result["n_threads"] for task in tasks}
            assert results == {2, 4}
            assert pool.respawns >= 1
            assert metrics.counters["worker_crashes"] >= 1
            assert metrics.counters["retries_total"] >= 1
            assert metrics.counters["worker_respawns"] >= 1
        finally:
            pool.stop()

    def test_cancel_inflight_kills_and_frees_the_slot(self, isolated_cache,
                                                      monkeypatch):
        _requires_fork()
        monkeypatch.setattr(workers_module, "_EVALUATE", _sleepy_evaluate)
        metrics = ServiceMetrics()
        pool = ProcessWorkerPool(ServiceConfig(
            workers=1, max_retries=0, retry_backoff=0.01,
            poll_interval=0.01), metrics)
        pool.start()
        try:
            doomed = pool.submit(EvaluateRequest.from_dict(_body()))
            deadline = time.time() + 5.0
            while (pool.snapshot()["in_flight"] < 1
                   and time.time() < deadline):
                time.sleep(0.01)
            pool.cancel(doomed)
            assert doomed.wait(2.0)
            assert doomed.timed_out and doomed.result is None
            assert pool.respawns >= 1

            follow_up = pool.submit(
                EvaluateRequest.from_dict(_body(n_threads=4)))
            assert follow_up.wait(10.0), "respawned slot unusable"
            assert follow_up.result is not None
        finally:
            pool.stop()

    def test_cancel_queued_task_never_dispatches(self, isolated_cache,
                                                 monkeypatch):
        _requires_fork()
        monkeypatch.setattr(workers_module, "_EVALUATE", _sleepy_evaluate)
        pool = ProcessWorkerPool(ServiceConfig(
            workers=1, poll_interval=0.01), ServiceMetrics())
        pool.start()
        try:
            running = pool.submit(EvaluateRequest.from_dict(_body()))
            deadline = time.time() + 5.0
            while (pool.snapshot()["in_flight"] < 1
                   and time.time() < deadline):
                time.sleep(0.01)
            queued = pool.submit(
                EvaluateRequest.from_dict(_body(n_threads=4)))
            pool.cancel(queued)
            assert queued.wait(1.0) and queued.timed_out
            assert pool.respawns == 0  # queued cancel never kills
            assert running.wait(10.0) and running.result is not None
        finally:
            pool.stop()


class TestMakePool:
    def test_workers_zero_selects_inline(self, isolated_cache):
        pool = make_pool(ServiceConfig(workers=0, quiet=True),
                         ServiceMetrics())
        try:
            assert isinstance(pool, InlineWorkerPool)
            assert pool.worker_pids() == []
        finally:
            pool.stop()
