"""Pluggable search strategies for ``repro tune``.

Strategies are ask/tell: the driver asks for a batch of *unseen*
candidate assignments (:meth:`Strategy.propose`), evaluates them, and
tells the scores back (:meth:`Strategy.observe`).  All randomness comes
from the seeded :class:`random.Random` the driver injects, and batch
sizes are fixed by the driver independently of ``--jobs``, so a given
``(seed, budget)`` always explores the same candidates in the same
order.

Every strategy falls back to deterministic grid enumeration when its
own proposal mechanism runs out of fresh candidates, so the budget is
honored exactly until the canonical space is exhausted.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from .space import KnobSpace, candidate_key

#: Proposal attempts per requested candidate before a sampling strategy
#: concedes and falls back to grid enumeration.
_ATTEMPTS_PER_SLOT = 64


class Strategy:
    """Base: shared dedupe bookkeeping and the grid fallback."""

    name = "base"

    def __init__(self, space: KnobSpace, rng):
        self.space = space
        self.rng = rng
        self._grid: Optional[Iterator[Dict[str, object]]] = None

    # -- the ask/tell protocol --------------------------------------------

    def propose(self, count: int,
                seen: Set[str]) -> List[Dict[str, object]]:
        """Up to ``count`` assignments whose canonical keys are neither
        in ``seen`` nor duplicated within the batch.  Returning fewer
        means the strategy (and the grid fallback) found nothing new —
        the space is exhausted."""
        batch: List[Dict[str, object]] = []
        taken = set(seen)
        self._fill(batch, taken, count)
        if len(batch) < count:
            self._fill_from_grid(batch, taken, count)
        return batch

    def observe(self, assignment: Dict[str, object], key: str,
                score: float) -> None:
        """One evaluated candidate (lower score is better)."""

    # -- machinery ---------------------------------------------------------

    def _fill(self, batch: List[Dict[str, object]], taken: Set[str],
              count: int) -> None:
        """Strategy-specific proposals; the base class has none."""

    def _admit(self, batch: List[Dict[str, object]], taken: Set[str],
               assignment: Dict[str, object]) -> bool:
        key = candidate_key(self.space.canonical(assignment))
        if key in taken:
            return False
        taken.add(key)
        batch.append(assignment)
        return True

    def _fill_from_grid(self, batch: List[Dict[str, object]],
                        taken: Set[str], count: int) -> None:
        if self._grid is None:
            self._grid = self.space.grid()
        for assignment in self._grid:
            if len(batch) >= count:
                return
            self._admit(batch, taken, assignment)


class GridStrategy(Strategy):
    """Exhaustive enumeration in deterministic knob-major order — the
    right tool when the (sub)space is small enough to sweep."""

    name = "grid"


class RandomStrategy(Strategy):
    """Uniform random sampling of the space."""

    name = "random"

    def _fill(self, batch: List[Dict[str, object]], taken: Set[str],
              count: int) -> None:
        attempts = _ATTEMPTS_PER_SLOT * count
        while len(batch) < count and attempts > 0:
            attempts -= 1
            self._admit(batch, taken,
                        self.space.random_assignment(self.rng))


class GreedyStrategy(Strategy):
    """Mutate-the-best hill climbing with random restarts.

    Proposals are single-knob (occasionally double-knob) mutations of
    the best candidate observed so far; every fourth slot is a fresh
    random sample to keep exploring.  Before any observation (or when
    mutations dry up) it degrades to random sampling, then to the grid.
    """

    name = "greedy"

    def __init__(self, space: KnobSpace, rng):
        super().__init__(space, rng)
        self._best: Optional[Dict[str, object]] = None
        self._best_score = float("inf")

    def observe(self, assignment: Dict[str, object], key: str,
                score: float) -> None:
        if score < self._best_score \
                or (score == self._best_score and self._best is None):
            self._best = dict(assignment)
            self._best_score = score

    def _fill(self, batch: List[Dict[str, object]], taken: Set[str],
              count: int) -> None:
        attempts = _ATTEMPTS_PER_SLOT * count
        while len(batch) < count and attempts > 0:
            attempts -= 1
            explore = self._best is None or len(batch) % 4 == 3
            if explore:
                candidate = self.space.random_assignment(self.rng)
            else:
                candidate = self.space.mutate(self._best, self.rng)
                if self.rng.random() < 0.25:
                    candidate = self.space.mutate(candidate, self.rng)
            self._admit(batch, taken, candidate)


_STRATEGIES = {cls.name: cls for cls in
               (GridStrategy, RandomStrategy, GreedyStrategy)}


def strategy_names() -> tuple:
    return tuple(sorted(_STRATEGIES))


def make_strategy(name: str, space: KnobSpace, rng) -> Strategy:
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError("unknown strategy %r (use one of %s)"
                         % (name, ", ".join(strategy_names())))
    return cls(space, rng)
