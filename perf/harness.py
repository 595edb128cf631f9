"""One workload, set up, measured and verified in this process -- the
child that ``run.py`` starts afresh for every workload.

The untraced path touches only the covenanted surfaces: the
``repro.api`` facade, the ``python -m repro serve`` command line and the
HTTP wire documents.  The traced path additionally reads ``/metrics``
and the daemons' request logs."""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import cells
import contract
import layers
import verify
from cells import Op
from loadgen import Daemon, DaemonError, run_clients, scrubbed_env, wait_until
from measure import (CpuMeter, Mark, SpanRecorder, interval_values,
                     percentile)

#: Client threads of the served workloads (= cores of the reference box).
CLIENTS = 2
#: Length of one interval of a served window, seconds.
SLICE_S = 0.5

#: Operation counts at scale 1.0, sized so the timed windows of a run take
#: about ``RUN_SECONDS`` together on the 2-core reference box: (count,
#: floor).  Counts, not a clock, end a window, so exact counters repeat
#: run to run.  (The two compute-bound in-process workloads take longer:
#: below 3 rounds, or 8 traced cells a repetition, there is no median.)
RUN_SECONDS = 6
COUNTS = {
    "sweep-cold": {"rounds": (3, 1)},
    "sweep-warm": {"rounds": (24, 1)},
    "trace-cold": {"cells": (24, 2)},
    "serve-hot": {"warmup": (200, 10), "timed": (2500, 20)},
    "serve-miss": {"warmup": (5, 2), "timed": (80, 20)},
    "cluster-hot": {"warmup": (200, 10), "timed": (1600, 20)},
}


@dataclasses.dataclass
class Params:
    """What one child run is asked to do."""

    workload: str
    seed: int
    scale: float
    quick: bool
    traced: bool
    inject: Optional[str]
    work_dir: str
    src_dir: str

    def count(self, name: str) -> int:
        base, floor = COUNTS[self.workload][name]
        return max(floor, int(round(base * self.scale)))

    def rng(self, purpose: str) -> random.Random:
        return random.Random("perf-%s-%s-%d" % (self.workload, purpose,
                                                self.seed))


class Recorder:
    """The ops of one timed window: (key, start, end, ok) per client, and
    the first answer seen for each key.  A later answer to the same key
    that differs from the first fails on the spot; the first answers are
    verified against the oracle after the window."""

    def __init__(self, clients: int = 1, meter: Optional[CpuMeter] = None):
        self.ops: List[List[Tuple[str, float, float, bool]]] = [
            [] for _ in range(clients)]
        self.first: Dict[str, object] = {}
        self.errors: List[str] = []
        self.meter = meter
        self.marks: List[Mark] = []

    def mark(self) -> None:
        """An interval boundary (see ``measure.interval_values``)."""
        self.marks.append((time.perf_counter(), self.meter.read(),
                           sum(len(ops) for ops in self.ops)))

    def record(self, client: int, key: str, start: float, end: float,
               ok: bool, answer: object) -> None:
        if ok:
            seen = self.first.setdefault(key, answer)
            if seen is not answer and seen != answer:
                ok = False
                answer = "differs from the first answer to this request"
        if not ok:
            self.errors.append("%s: %s" % (key, str(answer)[:300]))
        self.ops[client].append((key, start, end, ok))

    def record_http(self, client: int, key: str, start: float, end: float,
                    status: int, document: object) -> None:
        ok = status == 200
        self.record(client, key, start, end, ok,
                    document if ok else "HTTP %d: %s" % (status, document))

    def all_ops(self) -> List[Tuple[str, float, float, bool]]:
        return [op for ops in self.ops for op in ops]

    def latencies_ms(self) -> List[float]:
        return [1000.0 * (end - start) for _, start, end, _ in self.all_ops()]


# -- in-process workloads ---------------------------------------------------

class InProcess:
    """``api.evaluate`` called from this process."""

    clients = 1

    def __init__(self, api, params: Params):
        self.api = api
        self.params = params
        self.cache_stats: Dict[str, float] = {}
        self.telemetry = None  # the traced window's api.Telemetry
        names = api.workload_names()
        warmup = cells.warmup16(names)
        ops = warmup if params.quick else cells.cells64(
            names, params.rng("cells"))
        self.bodies = dict(warmup + ops)
        self.warmup_ops = self.requests(warmup)
        self.cells = self.requests(ops)
        self.rounds = 1

    def requests(self, ops: Sequence[Op]):
        return [(key, self.api.EvaluateRequest.from_dict(body))
                for key, body in ops]

    def cache_dir(self, name: str) -> str:
        return os.path.join(self.params.work_dir, name)

    def evaluate(self, ops, recorder: Optional[Recorder]) -> None:
        """Evaluate ``ops`` in order.  Without a recorder (set-up) a
        failure is fatal; with one it is a failed op."""
        evaluate, telemetry = self.api.evaluate, self.telemetry
        for key, request in ops:
            start = time.perf_counter()
            try:
                answer, ok = evaluate(request, telemetry=telemetry).metrics, True
            except Exception as error:
                if recorder is None:
                    raise
                answer, ok = "%s: %s" % (type(error).__name__, error), False
            if recorder is not None:
                recorder.record(0, key, start, time.perf_counter(), ok, answer)

    def bank_cache_stats(self) -> None:
        for name, value in self.api.get_cache().stats.as_dict().items():
            self.cache_stats[name] = self.cache_stats.get(name, 0) + value

    def begin(self, traced: bool) -> None:
        self.telemetry = self.api.Telemetry() if traced else None
        self.cache_stats = {}
        self.api.get_cache().stats.reset()

    def timed(self, recorder: Recorder) -> None:
        """Rounds of identical work, one interval each."""
        recorder.mark()
        for _ in range(self.rounds):
            self.round(recorder)
            recorder.mark()

    def end(self, traced: bool) -> None:
        self.bank_cache_stats()

    def expected(self, key: str) -> verify.Expected:
        return verify.expected_answer(self.api, self.bodies[key], False)

    def check(self, answer: object, expected: verify.Expected):
        return verify.metrics_error(answer, expected)

    def layer_metrics(self, recorder: Recorder) -> Dict[str, float]:
        totals = layers.stage_totals([self.telemetry.to_dict()])
        metrics = layers.stage_metrics(totals)
        metrics["pipeline.self_s"] = (
            sum(recorder.latencies_ms()) / 1000.0
            - layers.stage_seconds(totals))
        metrics.update(layers.simulation_metrics(
            [recorder.first[key] for key, _, _, ok in recorder.all_ops()
             if ok], totals))
        metrics.update(layers.cache_metrics(self.cache_stats))
        metrics.update(layers.probe_workload_build(self.api))
        metrics.update(layers.probe_cache(
            self.api, self.api.get_cache().directory,
            self.cache_dir("probe-scratch")))
        return metrics

    def spans(self, recorder: Recorder, spans: SpanRecorder) -> None:
        offset = time.time() - time.perf_counter()
        for key, start, end, ok in recorder.all_ops():
            spans.add("api.evaluate", start + offset, end + offset,
                      key=key, ok=ok)

    def close(self) -> None:
        pass


class SweepCold(InProcess):
    def __init__(self, api, params):
        super().__init__(api, params)
        self.rounds = params.count("rounds")
        self.rounds_done = 0

    def setup(self) -> None:
        self.api.configure_cache(self.cache_dir("cache-warmup"))
        self.evaluate(self.warmup_ops, None)

    def round(self, recorder: Recorder) -> None:
        self.bank_cache_stats()
        self.rounds_done += 1
        self.api.configure_cache(
            self.cache_dir("cache-round-%d" % self.rounds_done))
        self.evaluate(self.cells, recorder)


class SweepWarm(InProcess):
    def __init__(self, api, params):
        super().__init__(api, params)
        self.rounds = params.count("rounds")

    def setup(self) -> None:
        self.api.configure_cache(self.cache_dir("cache"))
        self.evaluate(self.cells, None)
        self.api.get_cache().drop_memory()
        self.evaluate(self.cells, None)

    def round(self, recorder: Recorder) -> None:
        self.api.get_cache().drop_memory()
        self.evaluate(self.cells, recorder)


class TraceCold(InProcess):
    def __init__(self, api, params):
        super().__init__(api, params)
        ops = cells.trace_cells(api.workload_names(), params.count("cells"),
                                params.rng("cells"))
        self.bodies = dict(ops)
        self.cells = self.requests(ops)
        self.untraced_simulate_mt_s = 0.0

    def setup(self) -> None:
        """Pre-warm the front stages with an untraced pass over the same
        cells (a traced simulate-mt bypasses the cache)."""
        self.api.configure_cache(self.cache_dir("cache"))
        untraced = self.requests(
            [(key, dict(body, trace=False))
             for key, body in self.bodies.items()])
        self.telemetry = self.api.Telemetry()
        self.evaluate(untraced, None)
        self.untraced_simulate_mt_s = \
            self.telemetry.stage("simulate-mt").seconds

    def round(self, recorder: Recorder) -> None:
        self.evaluate(self.cells, recorder)

    def layer_metrics(self, recorder):
        metrics = super().layer_metrics(recorder)
        metrics["trace.traced_over_untraced"] = layers.ratio(
            metrics["machine.simulate_mt_s"], self.untraced_simulate_mt_s)
        return metrics


# -- served workloads -------------------------------------------------------

class Served:
    """Closed-loop HTTP clients against daemons this process boots."""

    clients = CLIENTS
    document_check = True
    hot = True

    def __init__(self, api, params: Params):
        self.api = api
        self.params = params
        self.daemons: List[Daemon] = []
        self.url = ""
        self.posted = 0
        self.bodies: Dict[str, Dict[str, object]] = {}
        names = api.workload_names()
        self.cells = (cells.warmup16(names) if params.quick
                      else cells.cells64(names, params.rng("cells")))
        self.draws = 0
        self.op_lists: List[Sequence[Op]] = []
        self.before: Dict[str, object] = {}
        self.after: Dict[str, object] = {}

    # -- daemons -----------------------------------------------------------

    def cache_dir(self, daemon_name: str) -> str:
        return os.path.join(self.params.work_dir, daemon_name + "-cache")

    def spawn(self, name: str, serve_args: Sequence[str]) -> Daemon:
        daemon = Daemon(name, serve_args, scrubbed_env(
            self.params.src_dir, self.cache_dir(name)))
        self.daemons.append(daemon)
        return daemon

    def boot(self) -> None:
        daemon = self.spawn("daemon", ["--port", "0", "--workers", "2",
                                       "--queue-limit", "16"])
        self.url = daemon.wait_listening()
        client = self.api.ServiceClient(self.url)
        wait_until(lambda: client.health()["status"] == "ok",
                   "daemon not healthy")

    def nodes(self) -> List[Daemon]:
        """The daemons that own a memo and a pool."""
        return self.daemons

    def front(self) -> Daemon:
        """The daemon the clients talk to."""
        return self.daemons[0]

    # -- traffic -----------------------------------------------------------

    def post(self, op_lists: Sequence[Sequence[Op]],
             recorder: Optional[Recorder]) -> None:
        """Run one closed-loop batch.  Without a recorder (set-up) every
        answer must be a 200."""
        batch = recorder or Recorder(len(op_lists))
        self.posted += sum(len(ops) for ops in op_lists)
        run_clients(
            lambda: self.api.ServiceClient(self.url), op_lists,
            batch.record_http,
            shed_first=recorder is not None
            and self.params.inject == "shed")
        if recorder is None and batch.errors:
            raise DaemonError("set-up request failed: %s" % batch.errors[0])

    def split(self, ops: Sequence[Op]) -> List[Sequence[Op]]:
        return [ops[client::CLIENTS] for client in range(CLIENTS)]

    def next_ops(self, count_name: str) -> List[Sequence[Op]]:
        """Per-client Zipf draws; every call draws afresh."""
        self.draws += 1
        return [cells.zipf_ops(
            self.cells, self.params.count(count_name),
            self.params.rng("zipf-%d-%d" % (self.draws, client)))
            for client in range(CLIENTS)]

    def setup(self) -> None:
        self.boot()
        # Share the front daemon's disk cache (a coordinator's store has
        # the same layout and every blob its workers wrote): the in-process
        # verification pass then loads what the daemons computed instead of
        # recomputing it.  The oracle it is checked against is independent.
        self.api.configure_cache(self.cache_dir(self.front().name))
        self.bodies = dict(self.cells)
        if self.hot:
            self.post(self.split(self.cells), None)
        self.post(self.next_ops("warmup"), None)

    def begin(self, traced: bool) -> None:
        self.op_lists = self.next_ops("timed")
        if traced:
            self.before = self.snapshot()

    def timed(self, recorder: Recorder) -> None:
        """One interval per ``SLICE_S`` of the closed loop."""
        done = threading.Event()

        def sample() -> None:
            while not done.wait(SLICE_S):
                recorder.mark()
        sampler = threading.Thread(target=sample)
        recorder.mark()
        sampler.start()
        try:
            self.post(self.op_lists, recorder)
        finally:
            done.set()
            sampler.join()
        recorder.mark()

    def end(self, traced: bool) -> None:
        if traced:
            self.after = self.snapshot()

    def expected(self, key: str) -> verify.Expected:
        return verify.expected_answer(self.api, self.bodies[key],
                                      self.document_check)

    def check(self, answer: object, expected: verify.Expected):
        return verify.document_error(answer, expected)

    # -- traced run --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Request logs (once every posted request is logged) and
        ``/metrics`` of every daemon."""
        def logged() -> bool:
            return all(sum(len(daemon.evaluate_log()) for daemon in group)
                       >= self.posted
                       for group in ([self.front()], self.nodes()))
        wait_until(logged, "request logs incomplete", timeout=10.0)
        return {daemon.name: {
            "log": daemon.evaluate_log(),
            "metrics": self.api.ServiceClient(daemon.url).metrics()}
            for daemon in self.daemons}

    def log_slice(self, daemon: Daemon) -> List[Dict[str, object]]:
        skip = len(self.before[daemon.name]["log"])
        return self.after[daemon.name]["log"][skip:]

    def metrics_delta(self, daemons: Sequence[Daemon], *path: str
                      ) -> Dict[str, float]:
        """Summed ``after - before`` of one ``/metrics`` section."""
        total: Dict[str, float] = {}
        for daemon in daemons:
            sections = []
            for snapshot in (self.before, self.after):
                section = snapshot[daemon.name]["metrics"]
                for name in path:
                    section = section.get(name, {})
                sections.append(section)
            for name, value in layers.counter_delta(*sections).items():
                total[name] = total.get(name, 0) + value
        return total

    def layer_metrics(self, recorder: Recorder) -> Dict[str, float]:
        answers = [recorder.first[key]
                   for key, _, _, ok in recorder.all_ops() if ok]
        ran = [answer for answer in answers if not answer.get("memoized")]
        totals = layers.stage_totals(
            answer.get("telemetry") or {} for answer in ran)
        metrics = layers.stage_metrics(totals)
        metrics.update(layers.simulation_metrics(
            [answer["metrics"] for answer in answers], totals))
        metrics.update(layers.cache_metrics(
            self.metrics_delta(self.nodes(), "cache")))
        node_records = [record for daemon in self.nodes()
                        for record in self.log_slice(daemon)]
        metrics.update(layers.service_metrics(
            recorder.latencies_ms(),
            layers.handler_ms(self.log_slice(self.front())), node_records,
            self.metrics_delta(self.nodes(), "counters")))
        if self.hot:
            metrics.update(layers.probe_request_parsing(
                self.api, [body for _, body in self.cells]))
        if ran:
            handler = metrics["service.handler_ms_mean"]
            evaluation = 1000.0 * layers.stage_seconds(totals) / len(ran)
            metrics["service.eval_ms_mean"] = evaluation
            metrics["service.pool_overhead_ms_mean"] = handler - evaluation
        return metrics

    def spans(self, recorder: Recorder, spans: SpanRecorder) -> None:
        """Client op > coordinator log line > node log line > stages.
        Log lines carry their end (``ts``) and duration; they are matched
        to client ops of the same request key in order."""
        offset = time.time() - time.perf_counter()
        waiting: Dict[str, List[int]] = {}
        keys = {}
        for key, body in self.bodies.items():
            request = self.api.EvaluateRequest.from_dict(body)
            keys[key] = request.request_key()
        for key, start, end, ok in sorted(recorder.all_ops(),
                                          key=lambda op: op[1]):
            span = spans.add("client.evaluate", start + offset, end + offset,
                             key=key, ok=ok)
            waiting.setdefault(keys[key], []).append(span)
        levels = [self.nodes()]
        if self.front() not in self.nodes():
            levels.insert(0, [self.front()])
        for level in levels:
            matched: Dict[str, List[int]] = {}
            for daemon in level:
                for record in self.log_slice(daemon):
                    request_key = record.get("request_key")
                    parents = waiting.get(request_key)
                    end = float(record.get("ts", 0.0))
                    span = spans.add(
                        daemon.name + ".handler",
                        end - float(record.get("seconds", 0.0)), end,
                        parent=parents.pop(0) if parents else None,
                        outcome=record.get("outcome"))
                    matched.setdefault(request_key, []).append(span)
            waiting = matched

    def close(self) -> None:
        for daemon in reversed(self.daemons):
            daemon.stop()


class ServeHot(Served):
    pass


class ServeMiss(Served):
    hot = False
    document_check = False

    def __init__(self, api, params):
        super().__init__(api, params)
        self.cells = []
        self.generator = cells.ProgramGenerator(params.seed)

    def next_ops(self, count_name: str) -> List[Sequence[Op]]:
        ops = self.generator.take(CLIENTS * self.params.count(count_name))
        self.bodies.update(ops)
        return self.split(ops)

    def layer_metrics(self, recorder):
        metrics = super().layer_metrics(recorder)
        unseen = self.generator.take(20)
        metrics.update(layers.probe_frontend(
            self.api, [body for _, body in unseen]))
        return metrics


class ClusterHot(Served):
    def boot(self) -> None:
        coordinator = self.spawn("coordinator", [
            "--role", "coordinator", "--port", "0", "--queue-limit", "16",
            "--heartbeat-interval", "0.5"])
        self.url = coordinator.wait_listening()
        workers = [self.spawn("worker-%d" % index, [
            "--role", "worker", "--coordinator", self.url,
            "--node-id", "perf-w%d" % index, "--port", "0",
            "--workers", "1", "--heartbeat-interval", "0.5"])
            for index in range(2)]
        for worker in workers:
            worker.wait_listening()
        client = self.api.ServiceClient(self.url)
        wait_until(
            lambda: len(client.metrics()["cluster"]["healthy_nodes"]) == 2,
            "coordinator never saw 2 healthy worker nodes")

    def nodes(self) -> List[Daemon]:
        return self.daemons[1:]

    def layer_metrics(self, recorder):
        metrics = super().layer_metrics(recorder)
        coordinator = [self.front()]
        metrics.update(layers.cluster_metrics(
            recorder.latencies_ms(),
            layers.handler_ms(self.log_slice(self.front())),
            layers.handler_ms([record for daemon in self.nodes()
                               for record in self.log_slice(daemon)]),
            self.metrics_delta(coordinator, "cluster", "counters"),
            self.metrics_delta(coordinator, "cluster",
                               "shard_distribution")))
        return metrics


WORKLOADS = {
    "sweep-cold": SweepCold, "sweep-warm": SweepWarm, "trace-cold": TraceCold,
    "serve-hot": ServeHot, "serve-miss": ServeMiss, "cluster-hot": ClusterHot,
}


# -- one run ------------------------------------------------------------------

class Window:
    """One timed window and the accounting around it."""

    def __init__(self, workload, traced: bool):
        meter = CpuMeter()
        self.recorder = Recorder(workload.clients, meter)
        workload.begin(traced)
        own = time.process_time()
        workload.timed(self.recorder)
        self.own_cpu_s = time.process_time() - own
        marks = self.recorder.marks
        self.wall = marks[-1][0] - marks[0][0]
        self.cpu_s = marks[-1][1] - marks[0][1]
        self.peak_rss_mib = meter.peak_rss_mib()
        workload.end(traced)


def verify_window(workload, window: Window, inject: Optional[str]
                  ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, errors)``: an op fails if it failed in the
    window or its request's first answer fails verification."""
    recorder = window.recorder
    errors = list(recorder.errors)
    bad = set()
    for index, (key, answer) in enumerate(sorted(recorder.first.items())):
        expected = workload.expected(key)
        if inject == "metrics" and index == 0:
            expected.metrics["mt_cycles"] += 1.0
        problems = list(expected.errors)
        problem = workload.check(answer, expected)
        if problem is not None:
            problems.append(problem)
        if problems:
            bad.add(key)
            errors.extend("%s: %s" % (key, text) for text in problems)
    ops = recorder.all_ops()
    failed = sum(1 for key, _, _, ok in ops if not ok or key in bad)
    return len(ops), failed, errors


def end_to_end(repetitions: Sequence[Dict[str, object]]
               ) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of one untraced run from its repetitions
    (see :func:`run`): medians, over the repetitions for set-up time and
    memory, over the intervals of all repetitions for the timings."""
    values = {name: percentile([value for repetition in repetitions
                                for value in repetition["intervals"][name]],
                               50)
              for name in repetitions[0]["intervals"]}
    for name, field in (("setup_s", "setup_s"),
                        ("peak_rss_mb", "peak_rss_mib")):
        values[name] = percentile(
            [repetition[field] for repetition in repetitions], 50)
    return contract.with_units(values, contract.END_TO_END)


def run(params: Params, started: float) -> Dict[str, object]:
    """Set up, measure and verify one workload in this process.
    ``started`` is the ``perf_counter`` reading when the process began, so
    set-up includes the imports.  An untraced run returns one
    *repetition*: its set-up time, the per-interval values of its window
    and its peak memory, for :func:`end_to_end` to pool with the other
    repetitions.  A traced run returns the per-layer metrics and spans."""
    from repro import api
    workload = WORKLOADS[params.workload](api, params)
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        untraced = Window(workload, traced=False)
        measured = Window(workload, traced=True) if params.traced else untraced
        attempted, failed, errors = verify_window(workload, measured,
                                                  params.inject)
        result = {"attempted": attempted, "failed": failed,
                  "errors": errors[:20], "wall_s": measured.wall}
        if not params.traced:
            recorder = untraced.recorder
            result.update(
                setup_s=setup_s, peak_rss_mib=untraced.peak_rss_mib,
                intervals=interval_values(
                    recorder.marks,
                    [(start, end) for _, start, end, _ in recorder.all_ops()]))
            return result
        metrics = workload.layer_metrics(measured.recorder)
        metrics["perf.trace_overhead_share"] = (
            (measured.wall - untraced.wall) / untraced.wall)
        metrics["perf.loadgen_cpu_share"] = layers.ratio(
            measured.own_cpu_s, measured.cpu_s)
        result["metrics"] = layers.complete(metrics)
        spans = SpanRecorder()
        workload.spans(measured.recorder, spans)
        result["spans"] = spans.spans
        return result
    finally:
        workload.close()
