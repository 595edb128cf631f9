"""The ``BenchSpec`` interface: machine-readable benchmark definitions.

Every experiment of the papers' evaluation is registered here as a
:class:`BenchSpec` — an id, the matrix cells it evaluates (so a runner
can prewarm them through ``evaluate_many``), a *metric extractor* that
returns a flat ``{name: Metric}`` mapping, and the paper's claims
(:class:`Claim`) that those metrics test.  ``python -m repro bench`` and the
``benchmarks/`` module both drive the same specs, so the gated
``BENCH_RESULTS.json`` values, the fidelity scorecard and the tables
EXPERIMENTS.md quotes cannot drift apart.

Metric names are ``/``-separated paths (``speedup/gremio/181.mcf``);
benchmark names may contain dots, so ``.`` is *not* a separator.

Tolerances select the comparator's regression policy per metric:

* ``0.0`` — exact: any change is a regression (deterministic simulator
  metrics: cycles, instruction counts, speedups derived from them);
* ``t > 0`` — relative band: a regression iff the value moved by more
  than ``t * |baseline|`` (for ``unit="s"`` wall-time metrics only an
  *increase* beyond the band regresses — getting faster never fails);
* ``None`` — informational: recorded and diffed, never gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import EvaluateRequest

#: Exact comparison (deterministic simulator metrics).
EXACT = 0.0
#: Default relative band for host wall-time metrics: a 5x slowdown
#: gates, scheduler jitter on shared CI runners does not.
TIME_BAND = 4.0
#: The ``--host-strict`` band: on a quiet, dedicated host a 2x slowdown
#: is a real regression, not jitter.  The comparator substitutes this
#: for any looser wall-time tolerance when host-strict comparison is
#: requested (baselines recorded on the same host; see
#: ``docs/performance.md``).
STRICT_TIME_BAND = 1.0


@dataclass(frozen=True)
class Metric:
    """One measured value with its comparison policy."""

    value: float
    unit: str = ""                       # "x", "%", "cycles", "count", "s"
    tolerance: Optional[float] = EXACT   # see module docstring

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value, "unit": self.unit,
                "tolerance": self.tolerance}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metric":
        return cls(value=data["value"], unit=data.get("unit", ""),
                   tolerance=data.get("tolerance", EXACT))


@dataclass(frozen=True)
class BenchMode:
    """How a bench run is scaled: the CI smoke configuration measures on
    ``train`` inputs and truncated benchmark lists; the full
    configuration reproduces the papers' methodology (``ref`` inputs,
    every benchmark)."""

    name: str           # "smoke" | "full"
    scale: str          # measurement inputs ("train" | "ref")
    smoke_limit: int    # per-spec benchmark-list truncation under smoke

    @property
    def is_smoke(self) -> bool:
        return self.name == "smoke"

    def pick(self, benches: Sequence[str],
             limit: Optional[int] = None) -> List[str]:
        """The benchmark subset this mode evaluates."""
        benches = list(benches)
        if not self.is_smoke:
            return benches
        return benches[:limit if limit is not None else self.smoke_limit]


SMOKE = BenchMode("smoke", scale="train", smoke_limit=2)
FULL = BenchMode("full", scale="ref", smoke_limit=10 ** 9)

MODES = {"smoke": SMOKE, "full": FULL}

MetricMap = Dict[str, Metric]

# -- claims -----------------------------------------------------------------

#: A claim's statuses, and the value its exact ``claim/<id>`` metric
#: records, so the baseline comparator gates the scorecard.
HOLDS, DEVIATES, NA = "holds", "deviates", "n/a"
STATUS_CODES = {HOLDS: 1, NA: 0, DEVIATES: -1}


class Absent(LookupError):
    """A claim read a metric its spec did not emit."""


class Readings:
    """What a claim's check sees of its spec's metrics: a value by exact
    name, or every value under a name prefix.  Nothing found raises
    :class:`Absent`, which makes the claim read ``n/a`` — there is no
    default value to hide a misspelt name behind."""

    def __init__(self, metrics: MetricMap):
        self._metrics = metrics

    def __getitem__(self, name: str) -> float:
        if name not in self._metrics:
            raise Absent(name)
        return self._metrics[name].value

    def under(self, prefix: str) -> Dict[str, float]:
        """``{rest of the name: value}`` for every name under ``prefix``."""
        found = {name[len(prefix):]: metric.value
                 for name, metric in self._metrics.items()
                 if name.startswith(prefix)}
        if not found:
            raise Absent(prefix + "*")
        return found


@dataclass(frozen=True)
class Claim:
    """One statement of the paper's evaluation.  ``check`` reads the
    metrics of the spec carrying the claim and returns the measured value
    (as text) and whether the statement holds."""

    id: str        # "<experiment>/<slug>", e.g. "COCO-Fig7/never-increases"
    paper: str     # the paper's statement or value
    check: Callable[[Readings], Tuple[str, bool]]

    def judge(self, metrics: MetricMap) -> "Verdict":
        try:
            measured, holds = self.check(Readings(metrics))
        except Absent as missing:
            return Verdict(self, NA, "no `%s`" % missing.args[0])
        return Verdict(self, HOLDS if holds else DEVIATES, measured)


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    status: str        # HOLDS | DEVIATES | NA
    measured: str


@dataclass(frozen=True, eq=False)
class BenchSpec:
    """One registered experiment.

    ``collect`` runs the experiment under a :class:`BenchMode` and
    returns the metrics; ``cells`` (optional) names the evaluation-
    matrix cells the experiment consumes, so the runner can bulk-prewarm
    them across a process pool before collecting serially; ``claims``
    are judged over what ``collect`` returns.
    """

    id: str
    title: str
    collect: Callable[[BenchMode], MetricMap]
    cells: Optional[Callable[[BenchMode], List[EvaluateRequest]]] = None
    claims: List[Claim] = field(default_factory=list)

    def prewarm_cells(self, mode: BenchMode) -> List[EvaluateRequest]:
        return self.cells(mode) if self.cells is not None else []

    def claim(self, id: str, paper: str) -> Callable:
        """Decorator: attach the decorated check as a :class:`Claim`."""
        def wrap(check: Callable[[Readings], Tuple[str, bool]]) -> Claim:
            claim = Claim(id, paper, check)
            self.claims.append(claim)
            return claim
        return wrap

    def judge(self, metrics: MetricMap) -> List[Verdict]:
        return [claim.judge(metrics) for claim in self.claims]


_REGISTRY: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    if spec.id in _REGISTRY:
        raise ValueError("duplicate bench spec id: %s" % spec.id)
    _REGISTRY[spec.id] = spec
    return spec


def bench_spec(id: str, title: str,
               cells: Optional[Callable[[BenchMode],
                                        List[EvaluateRequest]]] = None
               ) -> Callable:
    """Decorator form: registers the decorated collect function and
    returns the :class:`BenchSpec`, whose :meth:`~BenchSpec.claim`
    attaches the claims that follow it."""
    def wrap(collect: Callable[[BenchMode], MetricMap]) -> BenchSpec:
        return register(BenchSpec(id=id, title=title, collect=collect,
                                  cells=cells))
    return wrap


def _ensure_loaded() -> None:
    # Spec modules register themselves on import; importing the package
    # lazily here keeps `repro.bench.spec` import-cheap and cycle-free.
    from . import specs  # noqa: F401


def get_spec(spec_id: str) -> BenchSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[spec_id]
    except KeyError:
        raise KeyError("unknown bench spec %r (known: %s)"
                       % (spec_id, ", ".join(sorted(_REGISTRY))))


def all_specs() -> List[BenchSpec]:
    _ensure_loaded()
    return [_REGISTRY[spec_id] for spec_id in sorted(_REGISTRY)]


def spec_ids() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)
