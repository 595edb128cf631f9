"""Measurement helpers: percentiles, Zipf draws, ``/proc`` accounting
and the in-memory span recorder.  Nothing here imports ``repro``."""

from __future__ import annotations

import bisect
import itertools
import os
import random
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between the two nearest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def zipf_indices(n_items: int, count: int, rng: random.Random) -> List[int]:
    """``count`` draws from Zipf(1) over ranks ``0..n_items-1`` (rank
    ``k`` has weight ``1/(k+1)``)."""
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(n_items)))
    return rng.choices(range(n_items), cum_weights=cumulative, k=count)


# -- /proc accounting --------------------------------------------------------

def parse_stat(text: str) -> Dict[str, float]:
    """``ppid`` and CPU seconds (user + system, all threads) from the
    text of ``/proc/<pid>/stat``.  The command name may hold spaces and
    parentheses, so fields are counted from the last ``)``."""
    fields = text[text.rindex(")") + 2:].split()
    return {"ppid": int(fields[1]),
            "cpu_s": (int(fields[11]) + int(fields[12])) / CLOCK_TICKS}


def parse_peak_rss_mib(status_text: str) -> float:
    """``VmHWM`` of ``/proc/<pid>/status`` in MiB (0 when absent, as for
    a zombie)."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:  # the process ended between listing and reading
        return None


def process_tree(root_pid: int) -> Dict[int, float]:
    """CPU seconds of ``root_pid`` and every live descendant, by pid."""
    stats: Dict[int, Dict[str, float]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            text = _read("/proc/%s/stat" % entry)
            if text is not None:
                stats[int(entry)] = parse_stat(text)
    children: Dict[int, List[int]] = {}
    for pid, stat in stats.items():
        children.setdefault(int(stat["ppid"]), []).append(pid)
    tree: Dict[int, float] = {}
    pending = [root_pid]
    while pending:
        pid = pending.pop()
        if pid in stats and pid not in tree:
            tree[pid] = stats[pid]["cpu_s"]
            pending.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed CPU seconds of ``pids`` (a process that ended counts 0)."""
    total = 0.0
    for pid in pids:
        text = _read("/proc/%d/stat" % pid)
        if text is not None:
            total += parse_stat(text)["cpu_s"]
    return total


class CpuMeter:
    """CPU seconds of this process and its descendants.  The descendants
    are listed once (daemons and pool workers do not change during a
    timed window) and cost one ``/proc`` read each (10 ms ticks); this
    process is read from its nanosecond clock."""

    def __init__(self) -> None:
        self.descendants = [pid for pid in process_tree(os.getpid())
                            if pid != os.getpid()]

    def read(self) -> float:
        return time.process_time() + cpu_seconds(self.descendants)

    def peak_rss_mib(self) -> float:
        return tree_peak_rss_mib([os.getpid()] + self.descendants)


def tree_peak_rss_mib(pids: Iterable[int]) -> float:
    total = 0.0
    for pid in pids:
        text = _read("/proc/%d/status" % pid)
        if text is not None:
            total += parse_peak_rss_mib(text)
    return total


# -- interval statistics ------------------------------------------------------

#: One boundary of the timed window: (clock, CPU seconds so far, ops done).
Mark = Tuple[float, float, int]


def interval_values(marks: Sequence[Mark],
                    ops: Sequence[Tuple[float, float]]
                    ) -> Dict[str, List[float]]:
    """Per interval of a timed window: operations per second, CPU ms per
    operation, and the median and 90th percentile of the latencies of the
    operations that ended in it.  ``marks`` bound the intervals; ``ops``
    are ``(start, end)`` clocks."""
    times = [clock for clock, _, _ in marks]
    latencies: List[List[float]] = [[] for _ in marks[1:]]
    for start, end in ops:
        index = min(max(bisect.bisect_left(times, end) - 1, 0),
                    len(latencies) - 1)
        latencies[index].append(1000.0 * (end - start))
    values: Dict[str, List[float]] = {
        "throughput_ops_s": [], "cpu_ms_per_op": [],
        "latency_p50_ms": [], "latency_p90_ms": []}
    for (t0, cpu0, done0), (t1, cpu1, done1), sample in zip(
            marks, marks[1:], latencies):
        if done1 > done0 and t1 > t0 and sample:
            values["throughput_ops_s"].append((done1 - done0) / (t1 - t0))
            values["cpu_ms_per_op"].append(
                1000.0 * (cpu1 - cpu0) / (done1 - done0))
            values["latency_p50_ms"].append(percentile(sample, 50))
            values["latency_p90_ms"].append(percentile(sample, 90))
    if not values["throughput_ops_s"]:
        raise ValueError("no interval of the window completed an operation")
    return values


# -- spans -------------------------------------------------------------------

class SpanRecorder:
    """Spans of the traced run: kept in memory; ``run.py`` writes them
    out at the end.  Times are epoch seconds."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs: object) -> int:
        span_id = len(self.spans)
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent}
        span.update(attrs)
        self.spans.append(span)
        return span_id
