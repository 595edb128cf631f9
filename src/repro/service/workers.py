"""The bounded evaluation worker pool behind ``repro serve``.

Two interchangeable executors sit behind one :class:`Task` interface:

* :class:`ProcessWorkerPool` — ``workers`` persistent child processes,
  each looping over a private inbox and a shared outbox and answering
  through :func:`repro.api.evaluate`, so service workers, sweeps and
  ``repro tune`` share cell-level results through the on-disk artifact
  cache.  A supervisor thread dispatches
  queued tasks, detects **crashed workers** (respawn + bounded retry
  with linear backoff), and executes **cancellations**: a timed-out
  request's worker is terminated and respawned, so one runaway
  evaluation never wedges a slot.
* :class:`InlineWorkerPool` — a thread executor with the same surface,
  used when ``--workers 0`` or when ``multiprocessing`` is unavailable.
  Threads cannot be cancelled preemptively; a timed-out task is
  *abandoned* (its eventual completion is discarded) — documented
  graceful degradation.

Neither pool knows about HTTP, admission, memoization, or staleness —
that is :mod:`repro.service.app`'s job.
"""

from __future__ import annotations

import collections
import os
import queue as queue_module
import threading
import time
import warnings
from typing import Deque, Dict, List, Optional, Tuple

from ..api import EvaluateRequest, ensure_cache, evaluate
from .config import ServiceConfig
from .metrics import ServiceMetrics

_TIMEOUT_ERROR = "evaluation timed out"


def _test_delay() -> None:
    """Test seam: stretch every evaluation (both executors) so failover
    tests can SIGKILL a node mid-request deterministically."""
    delay = float(os.environ.get("REPRO_SERVE_TEST_DELAY", "0") or 0)
    if delay > 0:
        time.sleep(delay)


def _evaluate_request_dict(request_dict: Dict[str, object],
                           cache_dir: str,
                           cache_enabled: bool) -> Dict[str, object]:
    """The unit of work a worker process executes: rebuild the request
    and answer it through the facade — the one typed path, so a cell
    any process sharing this cache has computed is a single load — on
    the parent's cache (kept between requests when it matches)."""
    _test_delay()
    ensure_cache(cache_dir, cache_enabled)
    return evaluate(EvaluateRequest.from_dict(request_dict)).as_dict()


#: Module-level evaluation hook: worker children call through this name
#: so tests (under the fork start method) can substitute slow/blocking
#: evaluations before the pool starts.
_EVALUATE = _evaluate_request_dict


def _worker_main(worker_id: int, inbox, outbox, cache_dir: str,
                 cache_enabled: bool) -> None:  # pragma: no cover - child
    while True:
        item = inbox.get()
        if item is None:
            return
        task_id, request_dict = item
        try:
            result = _EVALUATE(request_dict, cache_dir, cache_enabled)
            outbox.put((worker_id, task_id, True, result))
        except BaseException as error:
            try:
                outbox.put((worker_id, task_id, False,
                            "%s: %s" % (type(error).__name__, error)))
            except Exception:
                return


class Task:
    """One submitted evaluation: a future the HTTP handler waits on."""

    _next_id = [0]
    _id_lock = threading.Lock()

    def __init__(self, request: EvaluateRequest):
        with Task._id_lock:
            Task._next_id[0] += 1
            self.id = Task._next_id[0]
        self.request = request
        self.enqueued_at = time.time()
        self.attempts = 0
        self._lock = threading.Lock()
        self._event = threading.Event()
        self.done = False
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.timed_out = False

    def complete(self, result: Dict[str, object]) -> bool:
        with self._lock:
            if self.done:
                return False
            self.done, self.result = True, result
        self._event.set()
        return True

    def fail(self, error: str, timed_out: bool = False) -> bool:
        with self._lock:
            if self.done:
                return False
            self.done, self.error, self.timed_out = True, error, timed_out
        self._event.set()
        return True

    def wait(self, timeout: Optional[float]) -> bool:
        return self._event.wait(timeout)


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("worker_id", "process", "inbox", "task")

    def __init__(self, worker_id: int, process, inbox):
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox
        self.task: Optional[Task] = None


class ProcessWorkerPool:
    """Persistent multiprocess executor with supervision."""

    def __init__(self, config: ServiceConfig, metrics: ServiceMetrics):
        import multiprocessing
        self.config = config
        self.metrics = metrics
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        from ..api import get_cache
        cache = get_cache()
        self._cache_dir = cache.directory
        self._cache_enabled = cache.enabled
        self._outbox = self._ctx.Queue()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: Deque[Task] = collections.deque()
        self._delayed: List[Tuple[float, Task]] = []
        self._inflight: Dict[int, Task] = {}
        self._handles: List[_WorkerHandle] = []
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessWorkerPool":
        with self._lock:
            for worker_id in range(self.config.workers):
                self._handles.append(self._spawn(worker_id))
        self._threads = [
            threading.Thread(target=self._supervise, daemon=True,
                             name="repro-serve-supervisor"),
            threading.Thread(target=self._collect, daemon=True,
                             name="repro-serve-collector"),
        ]
        for thread in self._threads:
            thread.start()
        return self

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, self._outbox, self._cache_dir,
                  self._cache_enabled),
            daemon=True, name="repro-serve-worker-%d" % worker_id)
        process.start()
        return _WorkerHandle(worker_id, process, inbox)

    def stop(self) -> None:
        with self._wakeup:
            self._stopping = True
            for task in list(self._pending) + [t for _, t in self._delayed]:
                task.fail("service shutting down")
            self._pending.clear()
            self._delayed = []
            handles = list(self._handles)
            self._wakeup.notify_all()
        for handle in handles:
            try:
                handle.inbox.put(None)
            except Exception:
                pass
        deadline = time.time() + 2.0
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.time()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.task is not None:
                handle.task.fail("service shutting down")

    # -- submission --------------------------------------------------------

    def submit(self, request: EvaluateRequest) -> Task:
        task = Task(request)
        with self._wakeup:
            if self._stopping:
                task.fail("service shutting down")
                return task
            self._pending.append(task)
            self._wakeup.notify_all()
        return task

    def cancel(self, task: Task, reason: str = _TIMEOUT_ERROR) -> None:
        """Cancel a task: drop it if still queued, or terminate (and
        respawn) the worker evaluating it."""
        with self._wakeup:
            if task.done:
                return
            try:
                self._pending.remove(task)
            except ValueError:
                pass
            else:
                task.fail(reason, timed_out=True)
                return
            self._delayed = [(ready, t) for ready, t in self._delayed
                             if t is not task]
            handle = next((h for h in self._handles if h.task is task),
                          None)
            if handle is None:
                task.fail(reason, timed_out=True)
                return
            self._kill_and_respawn(handle)
        task.fail(reason, timed_out=True)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "queue_depth": len(self._pending) + len(self._delayed),
                "in_flight": sum(1 for h in self._handles
                                 if h.task is not None),
                "workers": len(self._handles),
            }

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [handle.process.pid for handle in self._handles]

    # -- supervision -------------------------------------------------------

    def _kill_and_respawn(self, handle: _WorkerHandle) -> None:
        """Terminate a worker and give its slot a fresh process.  The
        caller holds the lock and owns completing/failing the old
        task."""
        if handle.task is not None:
            self._inflight.pop(handle.task.id, None)
        handle.task = None
        try:
            handle.process.terminate()
            handle.process.join(1.0)
        except Exception:
            pass
        fresh = self._spawn(handle.worker_id)
        handle.process, handle.inbox = fresh.process, fresh.inbox
        self.respawns += 1
        self.metrics.incr("worker_respawns")

    def _supervise(self) -> None:
        while True:
            with self._wakeup:
                if self._stopping:
                    return
                now = time.time()
                # Promote delayed retries whose backoff elapsed.
                ready = [t for r, t in self._delayed if r <= now]
                self._delayed = [(r, t) for r, t in self._delayed
                                 if r > now]
                for task in ready:
                    self._pending.appendleft(task)
                # Detect crashed workers (killed or died mid-task).
                for handle in self._handles:
                    if handle.process.is_alive():
                        continue
                    task = handle.task
                    if task is not None:
                        self._inflight.pop(task.id, None)
                    handle.task = None
                    fresh = self._spawn(handle.worker_id)
                    handle.process = fresh.process
                    handle.inbox = fresh.inbox
                    self.respawns += 1
                    self.metrics.incr("worker_respawns")
                    if task is not None and not task.done:
                        self.metrics.incr("worker_crashes")
                        task.attempts += 1
                        if task.attempts <= self.config.max_retries:
                            self.metrics.incr("retries_total")
                            backoff = (self.config.retry_backoff
                                       * task.attempts)
                            self._delayed.append((now + backoff, task))
                        else:
                            task.fail("worker crashed (%d attempts)"
                                      % task.attempts)
                # Dispatch queued tasks onto idle workers.
                for handle in self._handles:
                    if not self._pending:
                        break
                    if handle.task is not None:
                        continue
                    task = self._pending.popleft()
                    if task.done:
                        continue
                    handle.task = task
                    self._inflight[task.id] = task
                    try:
                        handle.inbox.put(
                            (task.id, task.request.as_dict()))
                    except Exception as error:
                        handle.task = None
                        self._inflight.pop(task.id, None)
                        task.fail("dispatch failed: %s" % (error,))
                self._wakeup.wait(self.config.poll_interval)

    def _collect(self) -> None:
        while True:
            try:
                item = self._outbox.get(timeout=0.1)
            except queue_module.Empty:
                with self._lock:
                    if self._stopping:
                        return
                continue
            except (EOFError, OSError):
                return
            worker_id, task_id, ok, payload = item
            with self._wakeup:
                task = self._inflight.pop(task_id, None)
                for handle in self._handles:
                    if (handle.worker_id == worker_id
                            and handle.task is not None
                            and handle.task.id == task_id):
                        handle.task = None
                self._wakeup.notify_all()
            if task is None:
                continue  # stale result for a cancelled/retried task
            if ok:
                task.complete(payload)
            else:
                task.fail(payload)


class InlineWorkerPool:
    """Thread executor with the :class:`ProcessWorkerPool` surface."""

    def __init__(self, config: ServiceConfig, metrics: ServiceMetrics):
        self.config = config
        self.metrics = metrics
        self._queue: "queue_module.Queue[Optional[Task]]" = \
            queue_module.Queue()
        self._lock = threading.Lock()
        self._in_flight = 0
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self.respawns = 0

    def start(self) -> "InlineWorkerPool":
        for index in range(self.config.inline_threads):
            thread = threading.Thread(
                target=self._run, daemon=True,
                name="repro-serve-inline-%d" % index)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
        for _ in self._threads:
            self._queue.put(None)

    def submit(self, request: EvaluateRequest) -> Task:
        task = Task(request)
        with self._lock:
            if self._stopping:
                task.fail("service shutting down")
                return task
        self._queue.put(task)
        return task

    def cancel(self, task: Task, reason: str = _TIMEOUT_ERROR) -> None:
        # Threads cannot be preempted: mark the task done so the
        # eventual completion is discarded (abandonment, not cancel).
        task.fail(reason, timed_out=True)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"queue_depth": self._queue.qsize(),
                    "in_flight": self._in_flight,
                    "workers": len(self._threads)}

    def worker_pids(self) -> List[int]:
        return []

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            if task.done:
                continue
            with self._lock:
                self._in_flight += 1
            try:
                _test_delay()
                evaluate_fn = self.config.evaluate_fn or evaluate
                result = evaluate_fn(task.request)
                task.complete(result.as_dict())
            except Exception as error:
                task.fail("%s: %s" % (type(error).__name__, error))
            finally:
                with self._lock:
                    self._in_flight -= 1


def make_pool(config: ServiceConfig, metrics: ServiceMetrics):
    """Build the configured executor, degrading to the inline pool when
    process pools cannot start (no ``multiprocessing``, sandboxed
    platforms, ...)."""
    if config.workers > 0:
        try:
            return ProcessWorkerPool(config, metrics).start()
        except Exception as error:
            warnings.warn("process worker pool unavailable (%s); "
                          "falling back to inline threads" % (error,),
                          RuntimeWarning)
    return InlineWorkerPool(config, metrics).start()
