"""Statistics helpers shared by the benchmark harnesses."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def relative_delta(current: float, baseline: float) -> float:
    """Signed relative change of ``current`` vs ``baseline`` (0.1 = 10%
    above baseline).  A zero baseline makes any nonzero current an
    infinite change."""
    if baseline == 0:
        return 0.0 if current == 0 else math.inf
    return (current - baseline) / abs(baseline)


def within_band(current: float, baseline: float,
                tolerance: float, one_sided: bool = False) -> bool:
    """Whether ``current`` stays inside the relative tolerance band
    around ``baseline``.  ``tolerance=0`` demands exact equality; with
    ``one_sided`` only *increases* beyond the band fail (wall-time
    metrics: getting faster is never a regression)."""
    delta = relative_delta(current, baseline)
    if one_sided and delta <= 0:
        return True
    return abs(delta) <= tolerance


def communicates(base_metrics) -> bool:
    """Whether a cell's baseline MTCG code communicates at all.  Only
    then does its relative communication count: Figure 7 and its average
    leave the other functions out."""
    return base_metrics["communication_instructions"] > 0


def relative_communication(coco_metrics, base_metrics) -> float:
    """Dynamic communication after COCO relative to baseline MTCG, in %
    (the metric of the companion paper's Figure 7; 100% = unchanged),
    from the two cells' ``metrics`` mappings."""
    base = base_metrics["communication_instructions"]
    if base == 0:
        return 100.0
    return 100.0 * coco_metrics["communication_instructions"] / base


def queue_traffic(program, result) -> List[Tuple[int, str, int]]:
    """Per-channel message counts from a simulation result: rows of
    (physical queue id, channel description, messages).  Works with both
    the functional (`MTRunResult`) and timed (`TimedResult`) results —
    anything carrying a ``queues`` object with ``pushes_per_queue``."""
    queues = result.queues
    if queues is None:
        return []
    rows: List[Tuple[int, str, int]] = []
    for channel in program.channels:
        description = "%s %s T%d->T%d" % (
            channel.kind.value, channel.register or "(sync)",
            channel.source_thread, channel.target_thread)
        messages = (queues.pushes_per_queue[channel.queue]
                    if channel.queue < len(queues.pushes_per_queue) else 0)
        rows.append((channel.queue, description, messages))
    return rows


def overhead_breakdown(program, mt_result) -> Dict[str, float]:
    """Attribute every dynamically executed instruction of an MT run to one
    of four classes (percentages):

    * ``computation`` — the original program's work;
    * ``communication`` — produce/consume (data and sync);
    * ``replicated_control`` — duplicated branches implementing cross-
      thread control dependences;
    * ``glue`` — jumps/exits (present in single-threaded code too, but
      MTCG adds retargeting trampolines and per-thread entry/exit).

    ``mt_result`` is a ``run_mt_program`` result: its counts are keyed by
    ``(thread, iid)``, since MTCG's threads reuse iids.
    """
    from .ir.instructions import Opcode
    by_key = {(index, instruction.iid): instruction
              for index, thread in enumerate(program.threads)
              for instruction in thread.instructions()}
    classes = {"computation": 0, "communication": 0,
               "replicated_control": 0, "glue": 0}
    for key, count in mt_result.instruction_counts.items():
        instruction = by_key[key]
        if instruction.is_communication():
            classes["communication"] += count
        elif instruction.op is Opcode.BR and instruction.origin is not None:
            classes["replicated_control"] += count
        elif instruction.op in (Opcode.JMP, Opcode.EXIT):
            classes["glue"] += count
        else:
            classes["computation"] += count
    total = sum(classes.values())
    if total == 0:
        return {key: 0.0 for key in classes}
    return {key: 100.0 * value / total for key, value in classes.items()}


def breakdown_rows(evaluations) -> List[Tuple[str, float, float]]:
    """Per-benchmark (name, computation %, communication %) rows from a
    list of evaluations (the Figure 1 breakdown)."""
    rows = []
    for evaluation in evaluations:
        total = evaluation.mt_result.dynamic_instructions
        comm = evaluation.mt_result.communication_instructions
        comp = total - comm
        if total == 0:
            rows.append((evaluation.workload.name, 100.0, 0.0))
        else:
            rows.append((evaluation.workload.name,
                         100.0 * comp / total, 100.0 * comm / total))
    return rows
