"""The declared knob space ``repro tune`` searches.

A :class:`Knob` is one named axis with a finite value set and the paper
default; a :class:`KnobSpace` is an ordered collection of knobs.  A
*candidate* is a full assignment (one value per knob).  Candidates are
compared through their **canonical form** (:meth:`KnobSpace.canonical`):
inert values — the technique's own defaults, parameters the technique
does not accept, ``None`` sentinels — are dropped, so a candidate that
re-states the paper configuration maps to exactly the legacy evaluation
cell (sharing its cache entries and baselines), and assignments that
would evaluate identically deduplicate instead of burning budget twice.

:data:`DEFAULT_SPACE` is the space the CLI searches; ``--knob`` narrows
it via :meth:`KnobSpace.subspace`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from ..api import PARTITIONER_PARAMS, technique_config
from ..api.types import Overrides, validate_overrides

#: The partitioner cost-model defaults (``GremioPartitioner.__init__``);
#: a ``partitioner.*`` knob set to its default is dropped from the
#: canonical override set.
PARTITIONER_DEFAULTS: Dict[str, float] = {
    "split_threshold": 1.0,
    "occupancy_factor": 1.5,
    "latency_factor": 1.0,
}


@dataclass(frozen=True)
class Knob:
    """One tunable axis: a finite, ordered value set plus the default
    (the papers' configuration) every search starts from."""

    name: str
    values: Tuple[object, ...]
    default: object
    description: str = ""

    def __post_init__(self) -> None:
        if self.default not in self.values:
            raise ValueError("knob %r default %r is not among its "
                             "values %r"
                             % (self.name, self.default, self.values))
        if len(set(self.values)) != len(self.values):
            raise ValueError("knob %r has duplicate values %r"
                             % (self.name, self.values))


class CanonicalCandidate(NamedTuple):
    """The workload-independent identity of one candidate: the cell
    coordinates it evaluates at, plus the canonical override set."""

    technique: str
    coco: bool
    placer: str
    topology: Optional[str]
    overrides: Overrides

    def key(self) -> str:
        """Deterministic dedupe/sort key."""
        return repr(tuple(self))


class KnobSpace:
    """An ordered set of knobs plus the candidate algebra over them."""

    def __init__(self, knobs: Iterable[Knob]):
        self.knobs: Tuple[Knob, ...] = tuple(knobs)
        self._by_name: Dict[str, Knob] = {}
        for knob in self.knobs:
            if knob.name in self._by_name:
                raise ValueError("duplicate knob %r" % (knob.name,))
            self._by_name[knob.name] = knob

    def __len__(self) -> int:
        return len(self.knobs)

    def __iter__(self) -> Iterator[Knob]:
        return iter(self.knobs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> Tuple[str, ...]:
        return tuple(knob.name for knob in self.knobs)

    def knob(self, name: str) -> Knob:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError("unknown knob %r (tunable knobs: %s)"
                             % (name, ", ".join(self.names())))

    def subspace(self, names: Iterable[str]) -> "KnobSpace":
        """The sub-space spanned by ``names`` (declared order kept);
        unknown names raise an actionable :class:`ValueError`."""
        wanted = list(names)
        unknown = sorted(set(wanted) - set(self.names()))
        if unknown:
            raise ValueError(
                "unknown knob(s) %s (tunable knobs: %s)"
                % (", ".join(repr(n) for n in unknown),
                   ", ".join(self.names())))
        keep = set(wanted)
        return KnobSpace(k for k in self.knobs if k.name in keep)

    # -- assignments -------------------------------------------------------

    def default_assignment(self) -> Dict[str, object]:
        """The papers' configuration, restricted to this space."""
        return {knob.name: knob.default for knob in self.knobs}

    def assignment(self, partial: Dict[str, object]) -> Dict[str, object]:
        """Defaults overlaid with ``partial`` (unknown knobs rejected)."""
        full = self.default_assignment()
        for name, value in partial.items():
            knob = self.knob(name)
            if value not in knob.values:
                raise ValueError(
                    "knob %r has no value %r (choices: %s)"
                    % (name, value,
                       ", ".join(repr(v) for v in knob.values)))
            full[name] = value
        return full

    def grid(self) -> Iterator[Dict[str, object]]:
        """Every assignment, in deterministic knob-major order."""
        names = self.names()
        for combo in itertools.product(
                *(knob.values for knob in self.knobs)):
            yield dict(zip(names, combo))

    def size(self) -> int:
        """Upper bound on distinct candidates (before canonical
        deduplication)."""
        total = 1
        for knob in self.knobs:
            total *= len(knob.values)
        return total

    def random_assignment(self, rng) -> Dict[str, object]:
        return {knob.name: rng.choice(knob.values)
                for knob in self.knobs}

    def mutate(self, assignment: Dict[str, object],
               rng) -> Dict[str, object]:
        """A copy of ``assignment`` with one knob moved to a different
        value (identity when no knob has an alternative)."""
        movable = [knob for knob in self.knobs if len(knob.values) > 1]
        if not movable:
            return dict(assignment)
        knob = rng.choice(movable)
        alternatives = [v for v in knob.values
                        if v != assignment.get(knob.name, knob.default)]
        mutated = dict(assignment)
        mutated[knob.name] = rng.choice(alternatives)
        return mutated

    # -- canonicalization --------------------------------------------------

    def canonical(self, assignment: Dict[str, object]
                  ) -> CanonicalCandidate:
        """Collapse an assignment to its evaluation identity.

        ``machine.*`` values equal to the technique's default
        configuration (and the ``None`` sentinel) are dropped;
        ``partitioner.*`` values the technique does not accept, or equal
        to the partitioner defaults, are dropped.  The result's override
        set is validated and canonically sorted.
        """
        technique = str(assignment.get("technique", "gremio"))
        base = technique_config(technique)
        accepted = PARTITIONER_PARAMS.get(technique, ())
        pairs = []
        for name, value in assignment.items():
            domain, _, field = name.partition(".")
            if domain == "machine":
                if value is None or value == getattr(base, field):
                    continue
                pairs.append((name, value))
            elif domain == "partitioner":
                if field not in accepted or value is None:
                    continue
                if value == PARTITIONER_DEFAULTS.get(field):
                    continue
                pairs.append((name, value))
        return CanonicalCandidate(
            technique=technique,
            coco=bool(assignment.get("coco", False)),
            placer=str(assignment.get("placer", "identity")),
            topology=assignment.get("topology"),
            overrides=validate_overrides(pairs, technique))


#: The space ``repro tune`` searches by default.  Every knob includes
#: the papers' configuration as its default, so the untouched search
#: always contains the GREMIO and DSWP baselines.  ``gremio-flat`` is
#: deliberately absent: it is GREMIO with scope hierarchy disabled — an
#: ablation, not a candidate scheduler.
DEFAULT_SPACE = KnobSpace([
    Knob("technique", ("gremio", "dswp"), "gremio",
         "the partitioning technique"),
    Knob("coco", (False, True), False,
         "run the COCO communication optimizer"),
    Knob("placer", ("identity", "affinity"), "identity",
         "the thread-to-core placement heuristic"),
    Knob("topology", (None, "quad-flat", "quad-2x2"), None,
         "machine-topology preset (None = the papers' flat machine)"),
    Knob("machine.comm_latency", (1, 2, 4), 2,
         "produce-to-consume latency, cycles"),
    Knob("machine.sa_access_latency", (1, 2), 1,
         "synchronization-array access latency, cycles"),
    Knob("machine.sa_queue_size", (None, 1, 8, 32), None,
         "SA queue depth (None = the technique's default)"),
    Knob("partitioner.split_threshold", (0.5, 1.0, 2.0), 1.0,
         "GREMIO recursive-split profitability threshold"),
    Knob("partitioner.occupancy_factor", (1.0, 1.5), 1.5,
         "GREMIO occupancy weight in the merge cost model"),
    Knob("partitioner.latency_factor", (0.5, 1.0, 2.0), 1.0,
         "GREMIO communication-latency weight"),
])
