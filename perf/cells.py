"""Workload inputs: the fixed evaluation cells, the seeded orders and
draws over them, and the generator of unique inline programs.

Everything here is plain wire documents (``EvaluateRequest`` JSON), so
the same body is used in process (``EvaluateRequest.from_dict``) and
over HTTP."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from measure import zipf_indices

TECHNIQUES = ("gremio", "dswp")
#: The four (technique, coco) variants of one workload.
VARIANTS = tuple((technique, coco) for technique in TECHNIQUES
                 for coco in (False, True))

Body = Dict[str, object]
#: One operation: (answer key, wire document).  Ops with equal keys must
#: get equal answers.
Op = Tuple[str, Body]


def request_body(program: Body, technique: str, coco: bool,
                 trace: bool = False) -> Body:
    """Threads, scale and backend are pinned so a later flip of a
    default is not measured as a gain."""
    return {"program": program, "technique": technique, "coco": coco,
            "n_threads": 2, "scale": "ref", "backend": "fast",
            "check": True, "trace": trace}


def cell_op(workload: str, technique: str, coco: bool,
            trace: bool = False) -> Op:
    """One registry cell."""
    key = "%s/%s/%s%s" % (workload, technique, "coco" if coco else "plain",
                          "/trace" if trace else "")
    return key, request_body({"kind": "registry", "value": workload},
                             technique, coco, trace)


def cells64(workload_names: Sequence[str], rng: random.Random) -> List[Op]:
    """16 workloads x {gremio, dswp} x coco {off, on}, workload-major (the
    four cells of a workload stay adjacent, as in a ``repro sweep``) in
    a seeded order."""
    names = list(workload_names)
    rng.shuffle(names)
    cells = []
    for name in names:
        variants = list(VARIANTS)
        rng.shuffle(variants)
        cells.extend(cell_op(name, technique, coco)
                     for technique, coco in variants)
    return cells


def warmup16(workload_names: Sequence[str]) -> List[Op]:
    """One cell per workload, cycling the four variants: touches every
    workload's input generator and every technique's code once."""
    return [cell_op(name, *VARIANTS[index % len(VARIANTS)])
            for index, name in enumerate(sorted(workload_names))]


def trace_cells(workload_names: Sequence[str], count: int,
                rng: random.Random) -> List[Op]:
    """``count`` coco-on traced cells.  The set is fixed (a prefix of the
    workload list alternating the technique; beyond 16, the other
    technique of each workload), only the order is seeded: the ops are
    compute-bound, so a seeded *set* would measure the draw."""
    names = sorted(workload_names)
    ordered = [cell_op(name, TECHNIQUES[(index + lap) % 2], True, trace=True)
               for lap in range(2) for index, name in enumerate(names)]
    chosen = ordered[:count]
    rng.shuffle(chosen)
    return chosen


def zipf_ops(cells: Sequence[Op], count: int,
             rng: random.Random) -> List[Op]:
    """``count`` requests drawn Zipf(1) over a seeded ranking of
    ``cells``."""
    ranking = list(cells)
    rng.shuffle(ranking)
    return [ranking[index] for index in zipf_indices(len(ranking), count, rng)]


# -- inline programs (serve-miss) -------------------------------------------
#
# Copies of the five ``syn.*`` kernels (src/repro/workloads/synthetic.py)
# with the outer trip count a literal and one dead constant, so every
# generated text is a new program to the frontend, the cache and the memo.
# They live here so the benchmark imports nothing outside ``repro.api``.

KERNELS = (
    '''
def dotsat(lo: int, hi: int, xs: "int[48]", ys: "int[48]"):
    dead = {dead}
    acc = 0
    for rep in range({trips}):
        for i in range(48):
            acc = acc + xs[i] * ys[i]
            acc = max(lo, min(acc, hi))
    return acc
''',
    '''
def prefix(limit: int, data: "int[40]"):
    dead = {dead}
    peaks = 0
    for rep in range({trips}):
        run = 0
        for i in range(40):
            run = run + data[i]
            if run > limit or 0 - limit > run:
                run = 0
                peaks = peaks + 1
            data[i] = run
    return peaks
''',
    '''
def blur3(src: "int[32]", dst: "int[32]"):
    dead = {dead}
    total = 0
    for rep in range({trips}):
        for i in range(32):
            left = max(i - 1, 0)
            right = min(i + 1, 31)
            value = (src[left] + src[i] + src[right]) // 3
            dst[i] = value
            total = total + abs(value)
    return total
''',
    '''
def quant(scale: int, xs: "float[24]", out: "int[24]"):
    dead = {dead}
    energy = 0.0
    for rep in range({trips}):
        for i in range(24):
            value = xs[i] * float(scale)
            magnitude = sqrt(value * value + 1.0)
            out[i] = int(magnitude)
            energy = energy + magnitude
    return int(energy)
''',
    '''
def argmin(sentinel: int, data: "int[36]"):
    dead = {dead}
    best = data[0]
    best_at = 0
    for rep in range({trips}):
        i = 1
        while i < 36:
            value = data[i]
            if value == sentinel:
                break
            if value < best:
                best = value
                best_at = i
            i = i + 1
    return best, best_at
''',
)

TRIP_COUNTS = tuple(range(6, 14))


class ProgramGenerator:
    """Unique inline-source requests.  Program ``i`` uses kernel
    ``i % 5`` and technique ``i % 2`` (ten combinations); each
    combination walks its own seeded permutation of the trip counts
    6..13, so the total work of a run does not depend on the seed, only
    which program gets which count.  The dead constant makes every text
    unique within the run and across seeds."""

    def __init__(self, seed: int):
        self.seed = abs(seed)
        self.index = 0
        rng = random.Random("perf-programs-%d" % seed)
        self._trips = []
        for _ in range(len(KERNELS) * len(TECHNIQUES)):
            trips = list(TRIP_COUNTS)
            rng.shuffle(trips)
            self._trips.append(trips)

    def take(self, count: int) -> List[Op]:
        ops = []
        combos = len(self._trips)
        for index in range(self.index, self.index + count):
            trips = self._trips[index % combos][
                index // combos % len(TRIP_COUNTS)]
            text = KERNELS[index % len(KERNELS)].format(
                dead=self.seed * 1_000_003 + index, trips=trips)
            technique = TECHNIQUES[index % len(TECHNIQUES)]
            ops.append(("program-%d/%s" % (index, technique), request_body(
                {"kind": "source", "value": text, "name": None},
                technique, True)))
        self.index += count
        return ops
