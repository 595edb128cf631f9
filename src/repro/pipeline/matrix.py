"""Batch evaluation: fan (workload x technique x coco x threads) matrix
cells across a ``multiprocessing`` pool.

``evaluate_cells()`` is the one batch engine — behind ``repro sweep``,
``repro report``, ``repro bench``, ``evaluate_many`` and ``repro tune``
— answering each cell from the cell-level result entry when it can.
Cells are evaluated through the same staged, cached pipeline as single
calls, so parallel workers share the persistent artifact cache (atomic
writes make that safe) and results are bit-identical to serial
execution; what a worker sends back is a
:class:`~repro.pipeline.core.CellResult` — numbers, never a program or
a memory image.  When no process pool can be started the batch degrades
to the serial path; an error raised by an evaluation propagates.

Cells may carry *overrides* — a tuple of namespaced ``(knob, value)``
pairs tweaking the machine model (``machine.comm_latency``) or the
partitioner's cost-model thresholds (``partitioner.split_threshold``).
They are how the ``repro tune`` search driver dispatches candidate
configurations through the same batched, cached evaluation path as
everything else; :func:`validate_overrides` is the single gatekeeper
for the knob namespace.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..machine.config import TUNABLE_MACHINE_FIELDS, MachineConfig
from ..workloads import get_workload
from .cache import ensure_cache, get_cache
from .core import CellResult, evaluate_summary, _publish_telemetry
from .stages import PARTITIONER_PARAMS, technique_config
from .telemetry import Telemetry

Overrides = Tuple[Tuple[str, object], ...]


def validate_overrides(overrides: Iterable[Sequence],
                       technique: str = "gremio") -> Overrides:
    """Check ``(knob, value)`` override pairs against the tunable-knob
    registries and return them as a canonical sorted tuple.

    Knobs are namespaced: ``machine.<field>`` tweaks a whitelisted
    :class:`~repro.machine.config.MachineConfig` field
    (:data:`~repro.machine.config.TUNABLE_MACHINE_FIELDS`);
    ``partitioner.<param>`` forwards a keyword to the technique's
    partitioner (:data:`~repro.pipeline.stages.PARTITIONER_PARAMS`).
    Raises :class:`ValueError` with an actionable message otherwise.
    """
    canonical: Dict[str, object] = {}
    partitioner_params = PARTITIONER_PARAMS.get(technique, ())
    for pair in overrides:
        if len(tuple(pair)) != 2 or not isinstance(pair[0], str):
            raise ValueError(
                "override entries must be (name, value) pairs with a "
                "string name, got %r" % (pair,))
        name, value = pair
        domain, _, field = name.partition(".")
        if domain == "machine":
            if field not in TUNABLE_MACHINE_FIELDS:
                raise ValueError(
                    "unknown machine override %r (tunable machine "
                    "fields: %s)" % (name, ", ".join(
                        sorted(TUNABLE_MACHINE_FIELDS))))
            TUNABLE_MACHINE_FIELDS[field].check(name, value)
        elif domain == "partitioner":
            if field not in partitioner_params:
                raise ValueError(
                    "technique %r does not accept partitioner override "
                    "%r (tunable: %s)"
                    % (technique, name,
                       ", ".join(partitioner_params) or "none"))
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not value > 0:
                raise ValueError(
                    "partitioner override %r must be a positive number, "
                    "got %r" % (name, value))
        else:
            raise ValueError(
                "unknown override namespace %r in %r (use "
                "'machine.<field>' or 'partitioner.<param>')"
                % (domain, name))
        if name in canonical:
            raise ValueError("duplicate override %r" % (name,))
        canonical[name] = value
    return tuple(sorted(canonical.items()))


def split_overrides(overrides: Optional[Iterable[Sequence]]
                    ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Partition override pairs into machine-config fields and
    partitioner keyword arguments (names with the namespace stripped)."""
    machine: Dict[str, object] = {}
    partitioner: Dict[str, object] = {}
    for name, value in overrides or ():
        domain, _, field = name.partition(".")
        (machine if domain == "machine" else partitioner)[field] = value
    return machine, partitioner


def overrides_config(technique: str,
                     overrides: Optional[Iterable[Sequence]]
                     ) -> Tuple[Optional[MachineConfig],
                                Optional[Mapping[str, object]]]:
    """Resolve override pairs into the ``(config, partitioner_args)``
    arguments of :func:`~repro.pipeline.core.evaluate_workload`: a
    machine configuration with the overridden fields applied on top of
    the technique's default (or ``None`` when untouched), plus the
    partitioner keyword mapping (or ``None``)."""
    machine, partitioner = split_overrides(overrides)
    config = None
    if machine:
        config = dataclasses.replace(technique_config(technique),
                                     **machine)
    return config, (partitioner or None)


class MatrixCell(NamedTuple):
    """One point of the evaluation matrix.

    ``overrides`` optionally carries ``(knob, value)`` pairs (see
    :func:`validate_overrides`); the empty default keeps the identity
    tuple byte-compatible with pre-override cells."""

    workload: str
    technique: str = "gremio"
    coco: bool = False
    n_threads: int = 2
    scale: str = "ref"
    alias_mode: str = "annotated"
    local_schedule: Optional[str] = None
    mt_check: bool = False
    topology: Optional[str] = None
    placer: str = "identity"
    overrides: Overrides = ()

    def identity(self) -> tuple:
        """The cell as the key for caches, baselines, and the daemon."""
        base = tuple(self[:-1])
        if self.overrides:
            return base + (("overrides",
                            tuple(sorted(self.overrides))),)
        return base


def evaluate_cell(cell: MatrixCell, check: bool = True,
                  telemetry: Optional[Telemetry] = None,
                  **options) -> Optional[CellResult]:
    """One cell through the cell-level result entry
    (:func:`~repro.pipeline.core.evaluate_summary`, which also takes
    the ``options`` a cell does not carry: ``trace``, ``backend``,
    ``walk``) — the one function every typed result comes from."""
    config, partitioner_args = overrides_config(cell.technique,
                                                cell.overrides)
    return evaluate_summary(
        get_workload(cell.workload), technique=cell.technique,
        n_threads=cell.n_threads, coco=cell.coco, scale=cell.scale,
        config=config, check=check, alias_mode=cell.alias_mode,
        local_schedule=cell.local_schedule, mt_check=cell.mt_check,
        telemetry=telemetry, topology=cell.topology, placer=cell.placer,
        partitioner_args=partitioner_args, **options)


def evaluate_cells(cells: Sequence[Tuple[MatrixCell, bool]],
                   jobs: int = 1) -> List[CellResult]:
    """:func:`evaluate_cell` over ``(cell, check)`` pairs, in order.
    With ``jobs > 1`` the parent answers every cached cell itself and
    only the misses fan out — workers return summaries, and an all-warm
    batch starts no process."""
    results: List[Optional[CellResult]] = [None] * len(cells)
    if jobs and jobs > 1:
        results = [evaluate_cell(cell, check, walk=False)
                   for cell, check in cells]
        misses = [index for index, result in enumerate(results)
                  if result is None]
        if len(misses) > 1:
            pooled = _evaluate_pool(
                [pool_payload(*cells[index]) for index in misses], jobs)
            for index, result in zip(misses, pooled or ()):
                results[index] = result
    return [result if result is not None else evaluate_cell(cell, check)
            for result, (cell, check) in zip(results, cells)]


def pool_payload(cell: MatrixCell, check: bool = True) -> tuple:
    """The picklable unit of work a pool worker executes: the cell plus
    the parent's cache configuration."""
    cache = get_cache()
    return (cell, check, cache.directory, cache.enabled)


def run_cell_payload(payload) -> CellResult:
    """Execute one :func:`pool_payload` in the current process, on the
    parent's cache (:func:`~repro.pipeline.cache.ensure_cache`: kept
    when it already matches, so back-to-back cells of one workload
    share their front-end artifacts through its memory tier)."""
    cell, check, cache_dir, cache_enabled = payload
    ensure_cache(cache_dir, cache_enabled)
    return evaluate_cell(cell, check)


def _run_batch_payload(batch) -> List[CellResult]:
    return [run_cell_payload(payload) for payload in batch]


def _evaluate_pool(payloads: List[tuple],
                   jobs: int) -> Optional[List[CellResult]]:
    """:func:`run_cell_payload` over ``payloads`` on a process pool,
    results in order; ``None`` (after a warning) when no pool can be
    started.  An error raised *by an evaluation* is not a reason to
    fall back — it propagates, once."""
    # One batch per workload: cells of a workload share their expensive
    # front-end artifacts (profile, PDG, the single-threaded baseline
    # simulation), and a worker that evaluates them back-to-back reuses
    # those through its in-process cache tier.  Scattering them across
    # workers instead would race the disk tier and compute the shared
    # stages once per worker.
    groups: dict = {}
    for index, payload in enumerate(payloads):
        groups.setdefault(payload[0].workload, []).append(index)
    batches = [[payloads[index] for index in indices]
               for indices in groups.values()]
    try:
        import multiprocessing
        pool = multiprocessing.Pool(min(jobs, len(batches)))
    except (ImportError, OSError) as error:
        warnings.warn("parallel evaluation unavailable (%s); "
                      "falling back to serial execution" % (error,),
                      RuntimeWarning)
        return None
    with pool:
        batch_results = pool.map(_run_batch_payload, batches)
    results: list = [None] * len(payloads)
    for indices, batch in zip(groups.values(), batch_results):
        for index, result in zip(indices, batch):
            results[index] = result
            # as a serial run would have
            _publish_telemetry(result.telemetry, None)
    return results
