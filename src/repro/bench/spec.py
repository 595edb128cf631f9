"""The ``BenchSpec`` interface: machine-readable benchmark definitions.

Every experiment of the papers' evaluation (one ``benchmarks/bench_*``
module each) is registered here as a :class:`BenchSpec` — an id, the
matrix cells it evaluates (so a runner can prewarm them through
``evaluate_many``), and a *metric extractor* that returns a flat
``{name: Metric}`` mapping.  The pytest benchmark modules and the
headless ``python -m repro bench`` runner both drive the same specs, so
the printed figure tables and the ``BENCH_RESULTS.json`` perf
trajectory can never drift apart.

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
from typing import Callable, Dict, List, Optional, Sequence

from ..api import MatrixCell

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


@dataclass(frozen=True)
class BenchSpec:
    """One registered experiment.

    ``collect`` runs the experiment under a :class:`BenchMode` and
    returns the metrics; ``cells`` (optional) names the evaluation-
    matrix cells the experiment consumes, so the runner can bulk-prewarm
    them across a process pool before collecting serially.
    """

    id: str
    title: str
    source: str          # the benchmarks/ module this spec reproduces
    collect: Callable[[BenchMode], MetricMap]
    cells: Optional[Callable[[BenchMode], List[MatrixCell]]] = None
    tags: Sequence[str] = field(default_factory=tuple)

    def prewarm_cells(self, mode: BenchMode) -> List[MatrixCell]:
        return self.cells(mode) if self.cells is not None else []


_REGISTRY: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    if spec.id in _REGISTRY:
        raise ValueError("duplicate bench spec id: %s" % spec.id)
    _REGISTRY[spec.id] = spec
    return spec


def bench_spec(id: str, title: str, source: str,
               cells: Optional[Callable[[BenchMode],
                                        List[MatrixCell]]] = None,
               tags: Sequence[str] = ()) -> Callable:
    """Decorator form: registers the decorated collect function."""
    def wrap(collect: Callable[[BenchMode], MetricMap]) -> BenchSpec:
        return register(BenchSpec(id=id, title=title, source=source,
                                  collect=collect, cells=cells,
                                  tags=tuple(tags)))
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
