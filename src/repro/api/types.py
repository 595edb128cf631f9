"""Versioned request/response types of the ``repro.api`` facade.

:class:`EvaluateRequest` is the wire-level description of one
evaluation-matrix cell (workload, technique, coco, threads, scale,
alias mode, ...) and the only one: the CLI, the bench specs, ``repro
tune`` and the batch engine all build requests.  It validates itself
against the live registries (workload names, techniques, override
knobs) and derives a deterministic **request key** — a content
fingerprint that the ``repro serve`` daemon uses for idempotent
response memoization and stale-artifact lookup.

:class:`EvaluateResult` is the matching response: the paper metrics of
one :class:`~repro.pipeline.core.Evaluation`, the per-stage cache
fingerprints, the run telemetry, and the service markers (``stale``,
``memoized``).  Both types round-trip through plain JSON-able dicts and
carry ``schema_version`` so clients can detect incompatible servers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..machine.config import TUNABLE_MACHINE_FIELDS, MachineConfig
from ..pipeline.fingerprint import SCHEMA_VERSION as PIPELINE_SCHEMA
from ..pipeline.fingerprint import digest
from ..pipeline.stages import (BACKENDS, PARTITIONER_PARAMS, TECHNIQUES,
                               technique_config)
from ..workloads import registry_name, unknown_workload_message

#: Bumped on any incompatible change to the request/response layout.
API_SCHEMA_VERSION = "repro.api/v1"

#: Bumped on any incompatible change to the tune request/leaderboard
#: layout (the tune schema evolves independently of the evaluate one).
TUNE_SCHEMA_VERSION = "repro.tune/v2"

SCALES = ("train", "ref")
ALIAS_MODES = ("annotated", "provenance", "none")
LOCAL_SCHEDULES = (None, "early", "late", "neutral")

#: Search strategies ``repro tune`` accepts (see
#: :mod:`repro.tune.strategies`).
STRATEGIES = ("grid", "random", "greedy")


class RequestValidationError(ValueError):
    """The request is malformed or names unknown entities (HTTP 400)."""


#: The program-input kinds :class:`ProgramSpec` accepts.
PROGRAM_KINDS = ("registry", "ir", "source")

#: Upper bound on inline program text (UTF-8 bytes); ``repro serve``
#: turns anything larger into a 400 before a worker ever sees it.
MAX_INLINE_PROGRAM_BYTES = 64 * 1024

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


def overrides_config(technique: str,
                     overrides: Optional[Iterable[Sequence]]
                     ) -> Tuple[Optional[MachineConfig],
                                Optional[Mapping[str, object]]]:
    """Resolve override pairs into the ``(config, partitioner_args)``
    arguments of :func:`~repro.pipeline.core.evaluate_workload`: a
    machine configuration with the overridden fields applied on top of
    the technique's default (or ``None`` when untouched), plus the
    partitioner keyword mapping (or ``None``)."""
    machine: Dict[str, object] = {}
    partitioner: Dict[str, object] = {}
    for name, value in overrides or ():
        domain, _, field = name.partition(".")
        (machine if domain == "machine" else partitioner)[field] = value
    config = (replace(technique_config(technique), **machine)
              if machine else None)
    return config, (partitioner or None)


@dataclass(frozen=True)
class ProgramSpec:
    """The canonical program input: a validated union of a registry
    workload reference, inline IR text, or inline Python source.

    * ``ProgramSpec.registry("ks")`` — a named workload from
      :mod:`repro.workloads` (exactly what the deprecated
      ``workload=`` field meant);
    * ``ProgramSpec.inline_ir(text)`` — textual IR, parsed and verified;
    * ``ProgramSpec.source(text)`` — Python source compiled by
      :mod:`repro.frontend`.

    Inline programs materialize into session workloads named by a
    content hash (:meth:`workload_name`), so identical programs share
    request keys — and therefore artifact-cache entries and ``repro
    serve`` memo hits — while registry references keep their historical
    names and keys byte-identical."""

    kind: str
    value: str
    #: For ``source`` programs: the target function name (default: the
    #: first function defined in the module).
    name: Optional[str] = None

    @classmethod
    def registry(cls, name: str) -> "ProgramSpec":
        return cls(kind="registry", value=name)

    @classmethod
    def inline_ir(cls, text: str) -> "ProgramSpec":
        return cls(kind="ir", value=text)

    @classmethod
    def source(cls, text: str,
               name: Optional[str] = None) -> "ProgramSpec":
        return cls(kind="source", value=text, name=name)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProgramSpec":
        if not isinstance(data, Mapping):
            raise RequestValidationError(
                "program must be a JSON object with 'kind' and 'value', "
                "got %s" % type(data).__name__)
        unknown = sorted(set(data) - {"kind", "value", "name"})
        if unknown:
            raise RequestValidationError(
                "unknown program field(s): %s" % ", ".join(unknown))
        try:
            return cls(**dict(data))
        except TypeError as error:
            raise RequestValidationError(str(error))

    def validate(self) -> "ProgramSpec":
        """Check shape, size cap, registry existence — and, for inline
        programs, that they actually compile/parse and verify (which
        also materializes them as session workloads, so later
        ``get_workload`` calls in this process resolve them)."""
        if self.kind not in PROGRAM_KINDS:
            raise RequestValidationError(
                "unknown program kind %r (use one of %s)"
                % (self.kind, ", ".join(PROGRAM_KINDS)))
        if not isinstance(self.value, str) or not self.value.strip():
            raise RequestValidationError(
                "program value must be non-empty text")
        if self.name is not None and not isinstance(self.name, str):
            raise RequestValidationError(
                "program name must be a string, got %r" % (self.name,))
        if self.kind == "registry":
            if registry_name(self.value) is None:
                raise RequestValidationError(
                    unknown_workload_message(self.value))
            return self
        encoded = len(self.value.encode("utf-8"))
        if encoded > MAX_INLINE_PROGRAM_BYTES:
            raise RequestValidationError(
                "inline program too large: %d bytes (cap %d)"
                % (encoded, MAX_INLINE_PROGRAM_BYTES))
        from ..workloads.inline import materialize_program
        materialize_program(self)  # raises RequestValidationError
        return self

    def workload_name(self) -> str:
        """The workload-registry name this program evaluates under:
        the registered kernel (an alias names its kernel), or a
        content-hashed session name for inline programs (identical
        content ⇒ identical name ⇒ shared request keys and cache
        entries)."""
        if self.kind == "registry":
            return registry_name(self.value) or self.value
        tag = digest("program:" + self.kind, self.value,
                     self.name or "")[:12]
        return "inline-%s-%s" % ("ir" if self.kind == "ir" else "py",
                                 tag)

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value,
                "name": self.name}


#: The fields that name a cell, in key order.  They make the identity
#: tuple :meth:`EvaluateRequest.request_key` hashes (the sorted
#: overrides follow when there are any), and every one but ``workload``
#: is the :func:`~repro.pipeline.core.evaluate_summary` keyword of the
#: same name.
KEY_FIELDS = ("workload", "technique", "coco", "n_threads", "scale",
              "alias_mode", "local_schedule", "mt_check", "topology",
              "placer")
_key_values = attrgetter(*KEY_FIELDS)


@dataclass(frozen=True)
class EvaluateRequest:
    """One evaluation-matrix cell, as clients describe it.

    The program under evaluation is described by ``program`` (a
    :class:`ProgramSpec`); the derived ``workload`` string is kept as a
    read-only convenience and must equal ``program.workload_name()``.
    (The PR-9 ``workload=``-only constructor shim has completed its
    one-release deprecation window and now raises
    :class:`RequestValidationError`.)"""

    workload: str = ""
    technique: str = "gremio"
    coco: bool = False
    n_threads: int = 2
    scale: str = "ref"
    alias_mode: str = "annotated"
    local_schedule: Optional[str] = None
    mt_check: bool = False
    check: bool = True
    trace: bool = False
    topology: Optional[str] = None
    placer: str = "identity"
    #: The oracle seam: ``"reference"`` makes an in-process
    #: :func:`repro.api.evaluate` run the reference simulator loop
    #: instead of the production core, pooled or not.  Bit-identical by
    #: contract, so it is in no key; validated and echoed for the wire.
    backend: str = "fast"
    #: Namespaced ``(knob, value)`` tuning overrides — ``machine.<field>``
    #: or ``partitioner.<param>`` pairs (see :func:`validate_overrides`).
    #: Part of the
    #: request key when non-empty; the empty default keeps keys
    #: byte-compatible with pre-tune clients.
    overrides: Overrides = ()
    schema_version: str = API_SCHEMA_VERSION
    #: The canonical program input (required).
    program: Optional[ProgramSpec] = None

    def __post_init__(self):
        program = self.program
        if program is not None and not isinstance(program, ProgramSpec):
            raise RequestValidationError(
                "program must be a ProgramSpec, got %r" % (program,))
        if program is None:
            if isinstance(self.workload, str) and self.workload:
                raise RequestValidationError(
                    "EvaluateRequest(workload=...) was removed after "
                    "its deprecation window; pass "
                    "program=ProgramSpec.registry(%r)" % self.workload)
        elif not self.workload:
            object.__setattr__(self, "workload",
                               program.workload_name())

    # -- validation --------------------------------------------------------

    def validate(self) -> "EvaluateRequest":
        """Return self after checking every field against the live
        registries; raise :class:`RequestValidationError` otherwise."""
        if self.schema_version != API_SCHEMA_VERSION:
            raise RequestValidationError(
                "schema mismatch: request has %r, this facade speaks %r"
                % (self.schema_version, API_SCHEMA_VERSION))
        if self.program is None:
            raise RequestValidationError(
                "missing workload name (pass program=ProgramSpec....)")
        self.program.validate()
        expected = self.program.workload_name()
        if self.workload != expected:
            raise RequestValidationError(
                "workload %r does not match the program (which "
                "evaluates as %r)" % (self.workload, expected))
        if self.technique not in TECHNIQUES:
            raise RequestValidationError(
                "unknown technique %r (use one of %s)"
                % (self.technique, ", ".join(TECHNIQUES)))
        if not isinstance(self.n_threads, int) or isinstance(
                self.n_threads, bool) or self.n_threads < 1:
            raise RequestValidationError(
                "n_threads must be a positive integer, got %r"
                % (self.n_threads,))
        if self.scale not in SCALES:
            raise RequestValidationError(
                "unknown scale %r (use one of %s)"
                % (self.scale, ", ".join(SCALES)))
        if self.alias_mode not in ALIAS_MODES:
            raise RequestValidationError(
                "unknown alias_mode %r (use one of %s)"
                % (self.alias_mode, ", ".join(ALIAS_MODES)))
        if self.local_schedule not in LOCAL_SCHEDULES:
            raise RequestValidationError(
                "unknown local_schedule %r (use early/late/neutral)"
                % (self.local_schedule,))
        for name in ("coco", "mt_check", "check", "trace"):
            if not isinstance(getattr(self, name), bool):
                raise RequestValidationError(
                    "%s must be a boolean, got %r"
                    % (name, getattr(self, name)))
        from ..machine.placement import PLACERS
        from ..machine.topology import TOPOLOGIES
        if self.topology is not None:
            if self.topology not in TOPOLOGIES:
                raise RequestValidationError(
                    "unknown topology %r (use one of %s)"
                    % (self.topology, ", ".join(sorted(TOPOLOGIES))))
            preset = TOPOLOGIES[self.topology]
            if self.n_threads > preset.n_cores:
                raise RequestValidationError(
                    "n_threads=%d exceeds topology %r (%d cores)"
                    % (self.n_threads, self.topology, preset.n_cores))
        if self.placer not in PLACERS:
            raise RequestValidationError(
                "unknown placer %r (use one of %s)"
                % (self.placer, ", ".join(PLACERS)))
        if self.backend not in BACKENDS:
            raise RequestValidationError(
                "unknown backend %r (use one of %s)"
                % (self.backend, ", ".join(BACKENDS)))
        if self.overrides:
            try:
                canonical = validate_overrides(self.overrides,
                                               self.technique)
            except ValueError as error:
                raise RequestValidationError(str(error))
            except TypeError:
                raise RequestValidationError(
                    "overrides must be a list of (name, value) pairs, "
                    "got %r" % (self.overrides,))
            if canonical != tuple(self.overrides):
                return replace(self, overrides=canonical)
        return self

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EvaluateRequest":
        """Build and validate a request from a plain (JSON) mapping.
        Unknown keys are rejected — a typoed field silently falling back
        to a default is worse than a 400."""
        if not isinstance(data, Mapping):
            raise RequestValidationError(
                "request body must be a JSON object, got %s"
                % type(data).__name__)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestValidationError(
                "unknown request field(s): %s" % ", ".join(unknown))
        data = dict(data)
        if data.get("program") is not None:
            data["program"] = ProgramSpec.from_dict(data["program"])
        try:
            request = cls(**data)
        except TypeError as error:
            raise RequestValidationError(str(error))
        return request.validate()

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    # -- identity ----------------------------------------------------------

    def request_key(self) -> str:
        """Deterministic idempotency key: a digest over the pipeline
        schema, the API schema, and every cell-identifying field.  Two
        requests for the same work always collide; any bump of either
        schema invalidates memoized responses.  ``backend`` is *not*
        part of the key — the simulator and its oracle are
        bit-identical, so one memoized response answers both (and keys
        stay byte-compatible with clients that predate the field)."""
        identity = _key_values(self)
        if self.overrides:
            identity += (("overrides", tuple(sorted(
                tuple(pair) for pair in self.overrides))),)
        return digest("api:evaluate", PIPELINE_SCHEMA, API_SCHEMA_VERSION,
                      repr(identity), repr(self.check), repr(self.trace))


@dataclass
class EvaluateResult:
    """The response for one evaluated cell."""

    request: EvaluateRequest
    metrics: Dict[str, float] = field(default_factory=dict)
    fingerprints: Dict[str, Optional[str]] = field(default_factory=dict)
    telemetry: Optional[Dict[str, object]] = None
    stale: bool = False
    memoized: bool = False
    stale_age_seconds: Optional[float] = None
    trace: Optional[Dict[str, object]] = None
    schema_version: str = API_SCHEMA_VERSION

    @classmethod
    def from_summary(cls, request: EvaluateRequest,
                     summary) -> "EvaluateResult":
        """Wrap a :class:`~repro.pipeline.core.CellResult`."""
        return cls(request=request, metrics=dict(summary.metrics),
                   fingerprints=dict(summary.fingerprints),
                   telemetry=summary.telemetry.to_dict(),
                   trace=summary.trace)

    @property
    def speedup(self) -> float:
        return float(self.metrics.get("speedup", 0.0))

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "request": self.request.as_dict(),
            "metrics": dict(self.metrics),
            "fingerprints": dict(self.fingerprints),
            "telemetry": self.telemetry,
            "stale": self.stale,
            "memoized": self.memoized,
            "stale_age_seconds": self.stale_age_seconds,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EvaluateResult":
        if not isinstance(data, Mapping) or "request" not in data:
            raise RequestValidationError(
                "not an EvaluateResult document (missing 'request')")
        schema = data.get("schema_version", API_SCHEMA_VERSION)
        if schema != API_SCHEMA_VERSION:
            raise RequestValidationError(
                "schema mismatch: document has %r, this facade speaks %r"
                % (schema, API_SCHEMA_VERSION))
        request = EvaluateRequest.from_dict(data["request"])
        age = data.get("stale_age_seconds")
        return cls(request=request,
                   metrics={str(k): float(v)
                            for k, v in data.get("metrics", {}).items()},
                   fingerprints=dict(data.get("fingerprints", {})),
                   telemetry=data.get("telemetry"),
                   stale=bool(data.get("stale", False)),
                   memoized=bool(data.get("memoized", False)),
                   stale_age_seconds=(float(age) if age is not None
                                      else None),
                   trace=data.get("trace"),
                   schema_version=schema)

    def marked(self, stale: Optional[bool] = None,
               memoized: Optional[bool] = None,
               stale_age_seconds: Optional[float] = None
               ) -> "EvaluateResult":
        """A copy with service markers updated (results are shared
        between the memo and concurrent responses, so never mutated)."""
        result = replace(self)
        if stale is not None:
            result.stale = stale
        if memoized is not None:
            result.memoized = memoized
        if stale_age_seconds is not None:
            result.stale_age_seconds = stale_age_seconds
        return result


@dataclass(frozen=True)
class TuneRequest:
    """One auto-tuning run: search the declared knob space for the
    configurations minimizing total MT cycles on each workload.

    ``knobs`` optionally restricts the search to a subset of the knob
    space (empty = every knob of :data:`repro.tune.space.DEFAULT_SPACE`).
    """

    workloads: Tuple[str, ...] = ()
    strategy: str = "greedy"
    budget: int = 24
    seed: int = 0
    n_threads: int = 2
    scale: str = "train"
    knobs: Tuple[str, ...] = ()
    schema_version: str = TUNE_SCHEMA_VERSION

    def validate(self) -> "TuneRequest":
        """Return self (canonicalized) after checking every field;
        raise :class:`RequestValidationError` otherwise."""
        if self.schema_version != TUNE_SCHEMA_VERSION:
            raise RequestValidationError(
                "schema mismatch: request has %r, this facade speaks %r"
                % (self.schema_version, TUNE_SCHEMA_VERSION))
        workloads = tuple(self.workloads)
        if not workloads:
            raise RequestValidationError(
                "tune request needs at least one workload "
                "(see `python -m repro list`)")
        for name in workloads:
            if not isinstance(name, str) or registry_name(name) is None:
                raise RequestValidationError(
                    unknown_workload_message(str(name)))
        workloads = tuple(map(registry_name, workloads))
        if self.strategy not in STRATEGIES:
            raise RequestValidationError(
                "unknown strategy %r (use one of %s)"
                % (self.strategy, ", ".join(STRATEGIES)))
        if not isinstance(self.budget, int) or isinstance(
                self.budget, bool) or self.budget < 1:
            raise RequestValidationError(
                "budget must be a positive integer (candidate "
                "evaluations per workload), got %r" % (self.budget,))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise RequestValidationError(
                "seed must be an integer, got %r" % (self.seed,))
        if not isinstance(self.n_threads, int) or isinstance(
                self.n_threads, bool) or self.n_threads < 1:
            raise RequestValidationError(
                "n_threads must be a positive integer, got %r"
                % (self.n_threads,))
        if self.scale not in SCALES:
            raise RequestValidationError(
                "unknown scale %r (use one of %s)"
                % (self.scale, ", ".join(SCALES)))
        knobs = tuple(self.knobs)
        if knobs:
            # Validated against the live space lazily: repro.tune sits
            # above the api facade in the layer order.
            from ..tune.space import DEFAULT_SPACE
            try:
                DEFAULT_SPACE.subspace(knobs)
            except ValueError as error:
                raise RequestValidationError(str(error))
        if workloads != self.workloads or knobs != self.knobs:
            return replace(self, workloads=workloads, knobs=knobs)
        return self

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneRequest":
        """Build and validate a tune request from a plain (JSON)
        mapping; unknown keys are rejected."""
        if not isinstance(data, Mapping):
            raise RequestValidationError(
                "request body must be a JSON object, got %s"
                % type(data).__name__)
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise RequestValidationError(
                "unknown request field(s): %s" % ", ".join(unknown))
        try:
            request = cls(**dict(data))
        except TypeError as error:
            raise RequestValidationError(str(error))
        return request.validate()

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["workloads"] = list(self.workloads)
        data["knobs"] = list(self.knobs)
        return data

    def request_key(self) -> str:
        """Deterministic key over everything that shapes the search
        outcome: schemas, workloads, strategy, budget, seed, threads,
        scale, and the knob subset — but not ``--jobs`` (results are
        pool-invariant).
        The per-candidate artifact-cache memo keys derive from this
        plus each candidate's :meth:`EvaluateRequest.request_key`."""
        return digest("api:tune", TUNE_SCHEMA_VERSION, PIPELINE_SCHEMA,
                      API_SCHEMA_VERSION,
                      repr((tuple(self.workloads), self.strategy,
                            self.budget, self.seed, self.n_threads,
                            self.scale, tuple(self.knobs))))


@dataclass
class TuneResult:
    """The outcome of one tuning run: a leaderboard per workload (rank
    0 = best), the best entry per workload, and bookkeeping."""

    request: TuneRequest
    leaderboards: Dict[str, List[Dict[str, object]]] = field(
        default_factory=dict)
    best: Dict[str, Dict[str, object]] = field(default_factory=dict)
    evaluated: int = 0
    schema_version: str = TUNE_SCHEMA_VERSION

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "request": self.request.as_dict(),
            "leaderboards": {name: [dict(entry) for entry in entries]
                             for name, entries in
                             sorted(self.leaderboards.items())},
            "best": {name: dict(entry)
                     for name, entry in sorted(self.best.items())},
            "evaluated": self.evaluated,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneResult":
        if not isinstance(data, Mapping) or "request" not in data:
            raise RequestValidationError(
                "not a TuneResult document (missing 'request')")
        schema = data.get("schema_version", TUNE_SCHEMA_VERSION)
        if schema != TUNE_SCHEMA_VERSION:
            raise RequestValidationError(
                "schema mismatch: document has %r, this facade speaks %r"
                % (schema, TUNE_SCHEMA_VERSION))
        request = TuneRequest.from_dict(data["request"])
        return cls(request=request,
                   leaderboards={str(k): list(v) for k, v in
                                 data.get("leaderboards", {}).items()},
                   best={str(k): dict(v)
                         for k, v in data.get("best", {}).items()},
                   evaluated=int(data.get("evaluated", 0)),
                   schema_version=schema)
