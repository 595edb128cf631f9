"""Workload infrastructure: the benchmark-function registry.

Each workload reproduces one of the evaluated functions of the papers'
Figure 6(b) — the hot function of a MediaBench / SPEC-CPU /
Pointer-Intensive benchmark — as a mini-IR kernel with the same loop,
branch, and dependence structure, plus a seeded input generator and a pure
Python reference implementation (the oracle the IR version is tested
against).

Inputs come in two scales, mirroring the papers' methodology: ``train``
(used to collect the edge profile) and ``ref`` (used for measurements) —
different seeds and sizes, so profile-guided decisions face realistic
mismatch.
"""

from __future__ import annotations

import difflib
import functools
import random
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.cfg import Function


class WorkloadInputs:
    """Concrete inputs for one run: scalar args + memory initializers."""

    def __init__(self, args: Dict[str, object],
                 memory: Dict[str, List]):
        self.args = args
        self.memory = memory


class Workload:
    """One benchmark function: IR builder + inputs + reference oracle."""

    def __init__(self, name: str, benchmark: str, function_name: str,
                 exec_percent: int, suite: str,
                 build: Callable[[], Function],
                 make_inputs: Callable[[str], WorkloadInputs],
                 reference: Callable[[WorkloadInputs], Dict[str, object]],
                 output_objects: Tuple[str, ...] = (),
                 description: str = ""):
        self.name = name
        self.benchmark = benchmark
        self.function_name = function_name
        self.exec_percent = exec_percent
        self.suite = suite
        self.build = build
        self._make_inputs = make_inputs
        self._inputs_cache: Dict[str, WorkloadInputs] = {}
        self._inputs_fingerprints: Dict[str, str] = {}
        self._ir_fingerprint: Optional[str] = None
        self.reference = reference
        # Memory objects whose final contents are workload outputs (checked
        # against the oracle in addition to live-out registers).
        self.output_objects = output_objects
        self.description = description

    def _pristine_inputs(self, scale: str) -> WorkloadInputs:
        cached = self._inputs_cache.get(scale)
        if cached is None:
            cached = self._inputs_cache[scale] = self._make_inputs(scale)
        return cached

    def make_inputs(self, scale: str) -> WorkloadInputs:
        """Inputs for ``scale``, generated once per process.

        The generators are deterministic (seeded by workload name and
        scale) but not cheap — a matrix sweep would otherwise re-run
        them per cell.  Callers receive fresh top-level containers, so
        simulating (which consumes the memory image) or mutating the
        returned maps cannot leak into later evaluations.
        """
        cached = self._pristine_inputs(scale)
        return WorkloadInputs(dict(cached.args),
                              {name: list(values)
                               for name, values in cached.memory.items()})

    def inputs_fingerprint(self, scale: str) -> str:
        """Content hash of ``make_inputs(scale)``, computed once per
        process from the pristine copy — which is never handed out, so
        the hash cannot go stale."""
        fingerprint = self._inputs_fingerprints.get(scale)
        if fingerprint is None:
            # Imported lazily: the pipeline package imports this one.
            from ..pipeline.fingerprint import fingerprint_inputs
            cached = self._pristine_inputs(scale)
            fingerprint = self._inputs_fingerprints[scale] = \
                fingerprint_inputs(cached.args, cached.memory)
        return fingerprint

    def ir_fingerprint(self) -> Optional[str]:
        """Content hash of ``build()``'s normalized IR, or ``None``
        until the pipeline first normalizes a build of this workload in
        this process (:meth:`remember_ir_fingerprint`).  ``build()`` is
        deterministic and returns a fresh function on every call, so
        that first hash holds for every later build: a cached cell can
        be looked up without building, and a kernel edited on disk
        still misses in the next process, which hashes it anew."""
        return self._ir_fingerprint

    def remember_ir_fingerprint(self, fingerprint: str) -> None:
        self._ir_fingerprint = fingerprint

    def __repr__(self) -> str:  # pragma: no cover
        return "<Workload %s (%s:%s)>" % (self.name, self.benchmark,
                                          self.function_name)


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError("duplicate workload %r" % workload.name)
    _REGISTRY[workload.name] = workload
    return workload


#: Convenience aliases: benchmark family name -> registered kernel.
_ALIASES = {"adpcm": "adpcmdec"}


def registry_name(name: str) -> Optional[str]:
    """The registered kernel ``name`` stands for — itself, or the
    kernel an alias names — or ``None``.  Inline session programs are
    not registry names."""
    _ensure_loaded()
    name = _ALIASES.get(name, name)
    return name if name in _REGISTRY else None


def get_workload(name: str) -> Workload:
    kernel = registry_name(name)
    if kernel is not None:
        return _REGISTRY[kernel]
    # Inline programs (``--source`` / ``--ir`` / serve bodies) live in a
    # per-process session registry under content-hashed names.
    from .inline import lookup_inline
    inline = lookup_inline(name)
    if inline is not None:
        return inline
    raise KeyError(unknown_workload_message(name))


def unknown_workload_message(name: str) -> str:
    """Error text for an unknown workload, with did-you-mean suggestions."""
    _ensure_loaded()
    candidates = sorted(set(_REGISTRY) | set(_ALIASES))
    close = difflib.get_close_matches(name, candidates, n=3, cutoff=0.6)
    if close:
        hint = "did you mean %s?" % " or ".join(repr(c) for c in close)
    else:
        hint = "see `python -m repro list` for the registry"
    return "unknown workload %r (%s)" % (name, hint)


def all_workloads() -> List[Workload]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def workload_names() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


@functools.lru_cache(maxsize=None)
def _ensure_loaded() -> None:
    # Import kernel modules for their registration side effects (once:
    # request validation asks on every call).
    from . import adpcm, ks, mpeg2, mesa, mcf  # noqa: F401
    from . import equake, ammp, twolf, gromacs, sjeng  # noqa: F401
    from . import synthetic  # noqa: F401


def rng_for(name: str, scale: str) -> random.Random:
    """Deterministic per-workload, per-scale random source."""
    return random.Random("%s/%s" % (name, scale))


def scale_size(scale: str, train: int, ref: int) -> int:
    if scale == "train":
        return train
    if scale == "ref":
        return ref
    raise ValueError("unknown scale %r (use 'train' or 'ref')" % scale)


def benchmark_table() -> str:
    """Render the papers' Figure 6(b): benchmark, function, exec %."""
    _ensure_loaded()
    rows = [("Benchmark", "Function", "Exec. %", "Suite")]
    for workload in all_workloads():
        rows.append((workload.benchmark, workload.function_name,
                     str(workload.exec_percent), workload.suite))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
        if index == 0:
            lines.append("-" * (sum(widths) + 6))
    return "\n".join(lines)
