"""Differential simulator-equivalence checker.

The production simulator core (:mod:`repro.machine.fast_timing`)
promises **bit-identical** results to its oracle, the line-for-line
reference loop (:mod:`repro.machine.timing`) — not "close", identical:
every cycle count, every per-core stall attribution, every queue
timestamp, every live-out, down to the int/float type of each number
(the reference mixes both deliberately, and a ``1635`` silently becoming
``1635.0`` would change downstream repr-based fingerprints).  This
module is the executable form of that contract:

* :func:`snapshot_result` flattens a
  :class:`~repro.machine.timing.TimedResult` into a JSON-able tree
  whose leaves are ``[type_name, repr]`` pairs — equality of snapshots
  is bit-equality of results;
* :func:`diff_snapshots` returns path-labelled differences
  (``cycles: ('int', '1635') != ('float', '1635.0')``);
* :func:`run_workload_case` / :func:`run_fuzz_case` execute one
  comparison — a registry workload under a (technique, topology)
  configuration, or a seeded random program from
  :mod:`repro.check.generate` — on **both** loops and report the
  divergences plus per-loop host seconds;
* :func:`run_differential` sweeps the whole grid (all workloads x
  topology presets x partitioners, plus N fuzz seeds) and aggregates a
  machine-readable report — ``tools/check_backend_equivalence.py``
  turns it into the CI ``backend-equivalence`` job and uploads the
  report on failure.

Only untraced runs are compared: the fast core cannot trace, and the
pipeline runs the reference loop for every traced simulation.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..machine import timing
from ..machine.fast_timing import (simulate_program_fast,
                                   simulate_single_fast)
from ..mtcg.codegen import generate
from ..pipeline.core import parallelize
from ..pipeline.stages import normalize
from ..workloads import all_workloads, get_workload
from .generate import random_args, random_partition, random_sketch, \
    render_program

ProgressFn = Optional[Callable[[str], None]]

#: The default comparison grid (mirrors tests/test_backend_equivalence).
DEFAULT_TOPOLOGIES = (None, "paper-dual", "quad-2x2")
DEFAULT_TECHNIQUES = ("gremio", "dswp")

#: Cores per preset: quad-2x2 fits 4 threads, the rest 2.
_TOPOLOGY_THREADS = {None: 2, "paper-dual": 2, "quad-2x2": 4}


def _typed(value):
    """JSON-able, type-preserving view: containers recurse, every leaf
    becomes ``[type_name, repr]`` so ``1`` never equals ``1.0``."""
    if isinstance(value, dict):
        return {str(key): _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return [type(value).__name__, repr(value)]


def snapshot_result(result) -> Dict[str, object]:
    """Every observable of a TimedResult, typed (see module docstring)."""
    queues = None
    if result.queues is not None:
        q = result.queues
        queues = {
            "push_counts": list(q.push_counts),
            "pop_counts": list(q.pop_counts),
            "pop_times": [list(times) for times in q.pop_times],
            "timestamps": [list(times) for times in q.timestamps],
            "staged_push_time": q.staged_push_time,
            "last_popped_time": q.last_popped_time,
            "total_pushes": q.total_pushes,
            "pushes_per_queue": list(q.pushes_per_queue),
            "max_occupancy": q.max_occupancy,
        }
    return _typed({
        "cycles": result.cycles,
        "core_finish": list(result.core_finish),
        "per_thread_instructions": list(result.per_thread_instructions),
        "per_thread_communication":
            list(result.per_thread_communication),
        "opcode_counts": dict(sorted(
            (opcode.value, count)
            for opcode, count in result.opcode_counts.items())),
        "live_outs": result.live_outs,
        "memory": list(result.memory.snapshot()),
        "cache_stats": dict(result.cache_stats),
        "comm_stats": dict(result.comm_stats),
        "queues": queues,
    })


def diff_snapshots(reference, fast, path: str = "",
                   limit: int = 50) -> List[str]:
    """Path-labelled differences between two snapshots (both sides
    produced by :func:`snapshot_result`)."""
    diffs: List[str] = []
    _diff(reference, fast, path, diffs)
    return diffs[:limit]


def _diff(a, b, path: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            _diff(a.get(key), b.get(key),
                  "%s.%s" % (path, key) if path else str(key), out)
        return
    if isinstance(a, list) and isinstance(b, list) \
            and not _is_leaf(a) and not _is_leaf(b):
        if len(a) != len(b):
            out.append("%s: length %d != %d" % (path, len(a), len(b)))
            return
        for index, (left, right) in enumerate(zip(a, b)):
            _diff(left, right, "%s[%d]" % (path, index), out)
        return
    if a != b:
        out.append("%s: %r != %r" % (path, a, b))


def _is_leaf(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(item, str) for item in value))


class CaseResult:
    """One executed comparison: a label, the divergences (empty =
    bit-identical), and the per-loop host seconds."""

    def __init__(self, label: str, divergences: List[str],
                 reference_seconds: float, fast_seconds: float):
        self.label = label
        self.divergences = divergences
        self.reference_seconds = reference_seconds
        self.fast_seconds = fast_seconds

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, object]:
        return {"label": self.label, "ok": self.ok,
                "divergences": list(self.divergences),
                "reference_seconds": round(self.reference_seconds, 6),
                "fast_seconds": round(self.fast_seconds, 6)}

    def __repr__(self) -> str:  # pragma: no cover
        return "<CaseResult %s: %s>" % (
            self.label, "ok" if self.ok else
            "%d divergences" % len(self.divergences))


def _capture(run) -> Dict[str, object]:
    """Run one loop; an exception is an observable too — both must
    raise the same type with the same message (fuzz programs trap by
    design: division by zero, undefined registers)."""
    try:
        return {"result": snapshot_result(run())}
    except Exception as error:
        return {"error": _typed([type(error).__name__, str(error)])}


def _compare(label: str, run_reference, run_fast) -> CaseResult:
    started = time.perf_counter()
    reference = _capture(run_reference)
    mid = time.perf_counter()
    fast = _capture(run_fast)
    done = time.perf_counter()
    divergences = diff_snapshots(reference, fast)
    return CaseResult(label, divergences, mid - started, done - mid)


def run_workload_case(workload_name: str,
                      technique: Optional[str] = None,
                      topology: Optional[str] = None,
                      n_threads: int = 2,
                      scale: str = "train") -> CaseResult:
    """Compare both loops on one registry workload.

    ``technique=None`` runs the single-threaded simulator; otherwise the
    workload is parallelized once (the build side does not simulate)
    and the resulting MT program timed by both.
    """
    workload = get_workload(workload_name)
    inputs = workload.make_inputs(scale)
    label = "%s/%s/%s/%dT" % (workload_name, technique or "st",
                              topology or "flat", n_threads)
    if technique is None:
        return _compare(
            label,
            lambda: timing.simulate_single(
                workload.build(), inputs.args, inputs.memory),
            lambda: simulate_single_fast(
                workload.build(), inputs.args, inputs.memory))

    train = workload.make_inputs("train")
    built = parallelize(workload.build(), technique=technique,
                        n_threads=n_threads, profile_args=train.args,
                        profile_memory=train.memory, cache=False,
                        topology=topology)
    return _compare(
        label,
        lambda: timing.simulate_program(
            built.program, inputs.args, inputs.memory,
            config=built.config),
        lambda: simulate_program_fast(
            built.program, inputs.args, inputs.memory,
            config=built.config))


def run_fuzz_case(seed: int, depth: int = 2,
                  max_threads: int = 3) -> CaseResult:
    """Compare both loops on one seeded random program: the
    single-threaded run, plus an MTCG program built from a random
    partition of the same function (the adversarial shapes the
    workload registry never produces)."""
    rng = random.Random(seed)
    sketch = random_sketch(rng, depth=depth)
    args = random_args(rng)
    n_threads = rng.randint(2, max_threads)

    function = render_program(sketch)
    normalize(function)
    st = _compare("fuzz-%d/st" % seed,
                  lambda: timing.simulate_single(function, args),
                  lambda: simulate_single_fast(function, args))

    from ..analysis.pdg import build_pdg
    pdg = build_pdg(function)
    partition = random_partition(random.Random(seed * 7919 + 13),
                                 function, n_threads=n_threads)
    program = generate(function, pdg, partition)
    mt = _compare("fuzz-%d/random-%dT" % (seed, n_threads),
                  lambda: timing.simulate_program(program, args),
                  lambda: simulate_program_fast(program, args))

    return CaseResult(
        "fuzz-%d" % seed, st.divergences + mt.divergences,
        st.reference_seconds + mt.reference_seconds,
        st.fast_seconds + mt.fast_seconds)


class DifferentialReport:
    """Aggregate of one equivalence sweep."""

    def __init__(self):
        self.cases: List[CaseResult] = []

    def add(self, case: CaseResult) -> None:
        self.cases.append(case)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if not case.ok]

    @property
    def reference_seconds(self) -> float:
        return sum(case.reference_seconds for case in self.cases)

    @property
    def fast_seconds(self) -> float:
        return sum(case.fast_seconds for case in self.cases)

    def speedup(self) -> float:
        return self.reference_seconds / max(self.fast_seconds, 1e-9)

    def summary(self) -> str:
        return ("backend-equivalence: %d cases, %d divergent; "
                "reference %.2fs, fast %.2fs (%.2fx)"
                % (len(self.cases), len(self.failures),
                   self.reference_seconds, self.fast_seconds,
                   self.speedup()))

    def as_dict(self) -> Dict[str, object]:
        return {"schema": "repro.check.backend-equivalence/v1",
                "ok": self.ok,
                "cases": [case.as_dict() for case in self.cases],
                "reference_seconds": round(self.reference_seconds, 4),
                "fast_seconds": round(self.fast_seconds, 4)}


def run_differential(workloads: Optional[Iterable[str]] = None,
                     topologies: Sequence[Optional[str]]
                     = DEFAULT_TOPOLOGIES,
                     techniques: Sequence[str] = DEFAULT_TECHNIQUES,
                     scale: str = "train",
                     fuzz_seeds: Iterable[int] = (),
                     progress: ProgressFn = None) -> DifferentialReport:
    """Sweep the full equivalence grid and aggregate the report.

    Every (workload x topology x technique) cell plus the
    single-threaded run per workload, then one :func:`run_fuzz_case`
    per seed.  Any divergence makes ``report.ok`` false; nothing short-
    circuits, so the report always carries the complete failure list.
    """
    report = DifferentialReport()
    names = list(workloads) if workloads is not None \
        else [workload.name for workload in all_workloads()]
    for name in names:
        report.add(run_workload_case(name, scale=scale))
        for topology in topologies:
            n_threads = _TOPOLOGY_THREADS.get(topology, 2)
            for technique in techniques:
                case = run_workload_case(
                    name, technique=technique, topology=topology,
                    n_threads=n_threads, scale=scale)
                report.add(case)
                if progress:
                    progress("%s: %s" % (case.label,
                                         "ok" if case.ok else "FAIL"))
    for seed in fuzz_seeds:
        case = run_fuzz_case(seed)
        report.add(case)
        if progress:
            progress("%s: %s" % (case.label,
                                 "ok" if case.ok else "FAIL"))
    return report
