"""Execution profiles: CFG edge and block weights.

COCO's min-cut arc costs and GREMIO's latency estimates are driven by these
weights.  Profiles come from instrumented interpretation
(:func:`repro.executor.run_function` fills one in), or from the
static estimator below when no profiling run is available — mirroring the
papers, which profile on `train` inputs or fall back to static estimates
(Wu & Larus).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.cfg import Function


class EdgeProfile:
    """Execution counts for CFG blocks and edges of one function."""

    def __init__(self, function: Function):
        self.function = function
        self.block_counts: Dict[str, float] = {b.label: 0.0
                                               for b in function.blocks}
        self.edge_counts: Dict[Tuple[str, str], float] = {}
        for block in function.blocks:
            for successor in block.successors():
                self.edge_counts[(block.label, successor)] = 0.0

    # -- recording ------------------------------------------------------------

    def count_block(self, label: str, amount: float = 1.0) -> None:
        self.block_counts[label] += amount

    def count_edge(self, source: str, target: str,
                   amount: float = 1.0) -> None:
        self.edge_counts[(source, target)] += amount

    # -- queries -----------------------------------------------------------------

    def block_weight(self, label: str) -> float:
        return self.block_counts.get(label, 0.0)

    def edge_weight(self, source: str, target: str) -> float:
        return self.edge_counts.get((source, target), 0.0)

    def total_blocks_executed(self) -> float:
        return sum(self.block_counts.values())

    def scaled(self, factor: float) -> "EdgeProfile":
        clone = EdgeProfile(self.function)
        for label, count in self.block_counts.items():
            clone.block_counts[label] = count * factor
        for edge, count in self.edge_counts.items():
            clone.edge_counts[edge] = count * factor
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return "<EdgeProfile %s: %d blocks>" % (self.function.name,
                                                len(self.block_counts))


def static_profile(function: Function, loop_factor: float = 10.0,
                   branch_bias: float = 0.5) -> EdgeProfile:
    """Static weight estimate: blocks weigh ``loop_factor ** depth`` where
    depth is the natural-loop nesting depth; branch edges split the block
    weight evenly (``branch_bias`` to the taken side), except loop back
    edges, which receive the share that keeps the loop header balanced.
    """
    from ..analysis.loops import loop_nest_forest

    forest = loop_nest_forest(function)
    depth = forest.depth_by_block()
    profile = EdgeProfile(function)
    for block in function.blocks:
        profile.block_counts[block.label] = loop_factor ** depth.get(
            block.label, 0)
    for block in function.blocks:
        successors = block.successors()
        weight = profile.block_counts[block.label]
        if len(successors) == 1:
            profile.edge_counts[(block.label, successors[0])] = weight
        elif len(successors) == 2:
            taken, not_taken = successors
            profile.edge_counts[(block.label, taken)] = weight * branch_bias
            profile.edge_counts[(block.label, not_taken)] = (
                weight * (1.0 - branch_bias))
    return profile
