"""Differential fuzzing driver: ``python -m repro fuzz``.

CPython is the ground truth for every random program, from its Python
source down to the production simulator.  Each iteration samples a
program sketch (:mod:`repro.check.generate`) and three input sets, then
checks this chain:

1. the sketch renders to Python (:func:`~repro.check.generate
   .sketch_to_python`) and CPython runs it on every input set: the
   expected returns and ``m`` image, or the exception it raised;
2. :mod:`repro.frontend` compiles the source (``frontend-error``), and
   the single-threaded IR must agree with CPython on every input set
   (``frontend-divergence``);
3. a matrix of cells over the compiled function — GREMIO, DSWP and
   uniformly random partitions, each with COCO off and on — profiled
   on the first input set by :func:`~repro.executor.untimed
   .run_compiled`, as the ``profile`` stage does.  Every cell's MTCG
   output goes through the static validators (``validator``) and the
   differential execution oracle (its verdicts: write order,
   deadlock/livelock, queue residue);
4. the production timed core runs every cell under its technique's
   machine configuration (random partitions: the default one), and its
   ``__ret*`` live-outs and ``m`` image must equal CPython's
   (``simulator-divergence``).

Agreement includes both sides raising: the frontend promises CPython's
values wherever CPython computes one, and a trap wherever it raises.
Every comparison is counted as ``<stage>_agreed`` or
``<stage>_both_raised``.

A failing cell is *shrunk* by greedy statement/block deletion over the
sketch, keeping only candidates that fail the same way, and the
reproducer is persisted into the corpus directory: a JSON document with
everything :func:`replay` needs to rebuild the cell, and the Python
source with its compiled IR.  Everything is deterministic in ``--seed``:
program sampling, input sets, partition draws, thread counts and queue
capacities all derive from it.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..analysis.pdg import build_pdg
from ..coco.driver import optimize as coco_optimize
from ..executor.untimed import run_compiled
from ..frontend.compiler import compile_source, python_callable
from ..interp.profile import static_profile
from ..ir.printer import format_function
from ..machine.fast_timing import simulate_program_fast
from ..mtcg.codegen import generate
from ..pipeline.stages import make_partitioner, normalize, technique_config
from .generate import (PYTHON_ENTRY, ProgramSketch, fuzz_args,
                       random_partition, random_sketch, shrink_candidates,
                       sketch_from_json, sketch_size, sketch_to_json,
                       sketch_to_python)
from .oracle import run_oracle
from .validators import validate_program

QUEUE_CAPACITIES = (1, 2, 32)
ARG_SETS = 3

#: A check's outcome: None when it passes, else ``(kind, detail)``.
Failure = Optional[Tuple[str, str]]


class _Cell(NamedTuple):
    """One (partition source, COCO, threads, queue capacity)
    configuration, rebuildable from scratch for any sketch: the unit
    fuzzing, shrinking and :func:`replay` evaluate."""

    name: str                       # "gremio" / "random-0" ...
    technique: Optional[str]        # None => random partition
    partition_seed: Optional[int]
    n_threads: int
    coco: bool
    queue_capacity: int

    def describe(self) -> str:
        return "%s%s/t%d/cap%d" % (self.name,
                                   "+coco" if self.coco else "",
                                   self.n_threads, self.queue_capacity)


class FuzzFailure:
    """One minimized counterexample.  ``cell`` is None when the
    frontend stage failed, before any cell ran."""

    def __init__(self, seed: int, iteration: int, cell: Optional[_Cell],
                 kind: str, detail: str, sketch: ProgramSketch,
                 arg_sets: List[dict], original_size: int):
        self.seed = seed
        self.iteration = iteration
        self.cell = cell
        self.kind = kind            # see the module docstring
        self.detail = detail
        self.sketch = sketch
        self.arg_sets = arg_sets
        self.original_size = original_size

    @property
    def shrunk_size(self) -> int:
        return sketch_size(self.sketch)

    @property
    def label(self) -> str:
        return self.cell.describe() if self.cell else "frontend"

    @property
    def stem(self) -> str:
        """The corpus file name, unique across seeds and cells
        (``failure-seed0-007-gremio-coco``)."""
        name = self.label.split("/")[0].replace("+", "-")
        return "failure-seed%d-%03d-%s" % (self.seed, self.iteration, name)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iteration": self.iteration,
            "cell": self.cell._asdict() if self.cell else None,
            "kind": self.kind,
            "detail": self.detail,
            "sketch": json.loads(sketch_to_json(self.sketch)),
            "arg_sets": self.arg_sets,
            "original_size": self.original_size,
            "shrunk_size": self.shrunk_size,
        }


class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    def __init__(self, seed: int, iterations: int):
        self.seed = seed
        self.iterations = iterations
        self.cells_run = 0
        self.shrink_attempts = 0
        self.failures: List[FuzzFailure] = []
        self.counters: Dict[str, int] = {}
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "cells_run": self.cells_run,
            "shrink_attempts": self.shrink_attempts,
            "elapsed_seconds": round(self.elapsed, 3),
            "counters": dict(sorted(self.counters.items())),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def summary(self) -> str:
        return ("fuzz: seed %d, %d iterations, %d cells, %d failure(s), "
                "%.1fs" % (self.seed, self.iterations, self.cells_run,
                           len(self.failures), self.elapsed))


# ---------------------------------------------------------------------------
# Observables: CPython's and the IR's, compared.

def _outcome(call: Callable[[], object]):
    """``call()`` — or the name of the exception it raised."""
    try:
        return call()
    except Exception as error:
        return type(error).__name__


def _inputs(args: dict) -> Tuple[dict, dict]:
    """An input set as the IR takes it: scalars and memory image."""
    return ({"in0": args["in0"], "in1": args["in1"]},
            {"m": list(args["memory"])})


def _python_run(fn, args: dict) -> Tuple[tuple, list]:
    memory = list(args["memory"])
    return tuple(fn(args["in0"], args["in1"], memory)), memory


def _ir_run(function, run) -> Tuple[tuple, list]:
    """The same observables of an IR run (a ``RunResult`` or a
    ``TimedResult``): the ``__ret*`` live-outs and the ``m`` image."""
    m = function.mem_objects["m"]
    return (tuple(run.live_outs[name] for name in function.live_outs),
            run.memory.read_array(m.base, m.size))


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN on both sides


def _judge(report: FuzzReport, stage: str, expected, observed,
           side: str) -> Optional[str]:
    """Compare one run's outcome with CPython's and count it; return
    a description of the mismatch, or None when they agree."""
    raised = isinstance(expected, str), isinstance(observed, str)
    if any(raised):
        if all(raised):
            report.count(stage + "_both_raised")
            return None
        return ("error mismatch: CPython %s vs %s %s"
                % (expected if raised[0] else "ok", side,
                   observed if raised[1] else "ok"))
    (want, want_memory), (got, got_memory) = expected, observed
    if len(want) != len(got) or not all(map(_same, want, got)):
        return "return mismatch: CPython %r vs %s %r" % (want, side, got)
    for index, (a, b) in enumerate(zip(want_memory, got_memory)):
        if not _same(a, b):
            return ("memory mismatch at m[%d]: CPython %r vs %s %r"
                    % (index, a, side, b))
    report.count(stage + "_agreed")
    return None


# ---------------------------------------------------------------------------
# The chain.

def _frontend(sketch: ProgramSketch, arg_sets: List[dict],
              report: FuzzReport):
    """Steps 1-2: CPython's outcome on every input set, and the
    frontend's normalized function checked against it.  Returns
    ``(failure, function, expected)``."""
    source = sketch_to_python(sketch)
    fn = python_callable(source, name=PYTHON_ENTRY)
    expected = [_outcome(lambda: _python_run(fn, args))
                for args in arg_sets]
    try:
        function = normalize(
            compile_source(source, name=PYTHON_ENTRY).function)
    except Exception as error:
        return (("frontend-error", "%s: %s" % (type(error).__name__, error)),
                None, expected)
    for args, want in zip(arg_sets, expected):
        scalars, memory = _inputs(args)
        got = _outcome(lambda: _ir_run(
            function, run_compiled(function, scalars, memory)))
        mismatch = _judge(report, "frontend", want, got, "IR")
        if mismatch is not None:
            return ("frontend-divergence", mismatch), function, expected
    return None, function, expected


def _check_cell(function, expected: list, arg_sets: List[dict],
                cell: _Cell, report: FuzzReport) -> Failure:
    """Steps 3-4 for one cell, on the first input set."""
    args, memory = _inputs(arg_sets[0])
    try:
        profile = run_compiled(function, args, memory).profile
    except Exception:
        # The input traps (so does CPython: _frontend checked that), and
        # the partitioners still need a profile.
        profile = static_profile(function)
    pdg = build_pdg(function)
    config = technique_config(cell.technique).with_cores(cell.n_threads)
    if cell.technique is not None:
        partition = make_partitioner(cell.technique, config).partition(
            function, pdg, profile, cell.n_threads)
    else:
        partition = random_partition(random.Random(cell.partition_seed),
                                     function, n_threads=cell.n_threads)
    options = {}
    if cell.coco:
        coco = coco_optimize(function, pdg, partition, profile)
        options = {"data_channels": coco.data_channels,
                   "condition_covered": coco.condition_covered}
    program = generate(function, pdg, partition, **options)

    validation = validate_program(program)
    for name, amount in validation.counters.items():
        report.count("validator_" + name, amount)
    report.count("programs_validated")
    if not validation.ok:
        return "validator", validation.describe()

    if isinstance(expected[0], str):
        # The single-threaded run traps: no write order to compare.
        report.count("oracle_skipped")
    else:
        oracle = run_oracle(function, program, args, memory,
                            queue_capacity=cell.queue_capacity)
        report.count("oracle_" + oracle.verdict)
        if not oracle.ok:
            return oracle.verdict, oracle.describe()

    observed = _outcome(lambda: _ir_run(function, simulate_program_fast(
        program, args, memory, config=config)))
    mismatch = _judge(report, "simulator", expected[0], observed,
                      "simulator")
    if mismatch is not None:
        return "simulator-divergence", mismatch
    return None


def _evaluate(sketch: ProgramSketch, arg_sets: List[dict],
              cell: Optional[_Cell], report: FuzzReport) -> Failure:
    """The whole chain for one sketch (``cell`` None: frontend only)."""
    failure, function, expected = _frontend(sketch, arg_sets, report)
    if failure is not None or cell is None:
        return failure
    return _check_cell(function, expected, arg_sets, cell, report)


def _shrink(sketch: ProgramSketch, arg_sets: List[dict],
            cell: Optional[_Cell], failure: Tuple[str, str],
            report: FuzzReport, max_attempts: int = 150
            ) -> Tuple[ProgramSketch, Tuple[str, str]]:
    """Greedy deletion: keep taking the first smaller variant that
    still fails with the same kind, until none does or the attempt
    budget runs out.  Returns the reproducer and its failure."""
    scratch = FuzzReport(report.seed, 0)  # shrinking runs count nothing
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in shrink_candidates(sketch):
            attempts += 1
            report.shrink_attempts += 1
            if attempts >= max_attempts:
                break
            try:
                outcome = _evaluate(candidate, arg_sets, cell, scratch)
            except Exception:
                # A crash during rebuild is a different bug; keep the
                # current reproducer rather than chase it.
                continue
            if outcome is not None and outcome[0] == failure[0]:
                sketch, failure = candidate, outcome
                improved = True
                break
    return sketch, failure


def replay(payload: dict) -> Failure:
    """Rebuild a corpus reproducer (a :meth:`FuzzFailure.to_dict`
    document) from its JSON alone and run the chain again: the failure
    it gives now, or None once the bug is fixed."""
    cell = _Cell(**payload["cell"]) if payload["cell"] else None
    sketch = sketch_from_json(json.dumps(payload["sketch"]))
    return _evaluate(sketch, payload["arg_sets"], cell,
                     FuzzReport(payload["seed"], 0))


def _iteration_cells(rng: random.Random, seed: int, iteration: int,
                     techniques: Sequence[str],
                     random_partitions: int, max_threads: int,
                     coco_modes: Sequence[bool]) -> List[_Cell]:
    n_threads = rng.randint(2, max_threads)
    capacity = rng.choice(QUEUE_CAPACITIES)
    sources = [(technique, technique, None) for technique in techniques] \
        + [("random-%d" % index, None,
            (seed * 1_000_003 + iteration) * 101 + index)
           for index in range(random_partitions)]
    return [_Cell(name, technique, partition_seed, n_threads, coco,
                  capacity)
            for name, technique, partition_seed in sources
            for coco in coco_modes]


def run_fuzz(seed: int = 0, iterations: int = 100,
             corpus_dir: Optional[str] = None,
             techniques: Sequence[str] = ("gremio", "dswp"),
             random_partitions: int = 2,
             coco_modes: Sequence[bool] = (False, True),
             max_threads: int = 3, depth: int = 2,
             progress: Optional[Callable[[str], None]] = None
             ) -> FuzzReport:
    """Run the differential fuzzing loop; see the module docstring."""
    report = FuzzReport(seed, iterations)
    start = time.perf_counter()

    def record(iteration, sketch, arg_sets, cell, failure) -> None:
        shrunk, failure = _shrink(sketch, arg_sets, cell, failure, report)
        entry = FuzzFailure(seed, iteration, cell, failure[0], failure[1],
                            shrunk, arg_sets, sketch_size(sketch))
        report.failures.append(entry)
        if corpus_dir:
            _persist_failure(corpus_dir, entry)
        if progress is not None:
            progress("iteration %d: FAILURE in %s (%s)"
                     % (iteration, entry.label, entry.kind))

    for iteration in range(iterations):
        rng = random.Random(seed * 1_000_003 + iteration)
        sketch = random_sketch(rng, depth=depth)
        arg_sets = [fuzz_args(rng) for _ in range(ARG_SETS)]
        failure, function, expected = _frontend(sketch, arg_sets, report)
        if failure is not None:
            record(iteration, sketch, arg_sets, None, failure)
            continue
        for cell in _iteration_cells(rng, seed, iteration, techniques,
                                     random_partitions, max_threads,
                                     coco_modes):
            report.cells_run += 1
            failure = _check_cell(function, expected, arg_sets, cell,
                                  report)
            if failure is not None:
                record(iteration, sketch, arg_sets, cell, failure)
        if progress is not None and (iteration + 1) % 10 == 0:
            progress("iteration %d/%d: %d cells, %d failure(s)"
                     % (iteration + 1, iterations, report.cells_run,
                        len(report.failures)))
    report.elapsed = time.perf_counter() - start
    if corpus_dir:
        os.makedirs(corpus_dir, exist_ok=True)
        path = os.path.join(corpus_dir, "report-seed%d.json" % seed)
        with open(path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
    return report


def _persist_failure(corpus_dir: str, failure: FuzzFailure) -> None:
    """The JSON reproducer, and the Python source with its compiled IR
    for a human reader."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, failure.stem)
    with open(path + ".json", "w") as handle:
        json.dump(failure.to_dict(), handle, indent=2, sort_keys=True)
    source = sketch_to_python(failure.sketch)
    try:
        text = format_function(normalize(compile_source(
            source, name=PYTHON_ENTRY).function), show_iids=True)
    except Exception as error:
        text = "compilation failed: %s" % error
    with open(path + ".py", "w") as handle:
        handle.write("# %s (%s): %s\n%s\n# Compiled IR:\n# %s\n"
                     % (failure.label, failure.kind,
                        failure.detail.replace("\n", " | "), source,
                        "\n# ".join(text.splitlines())))
