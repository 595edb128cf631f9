"""``repro.trace`` — simulated-time execution tracing, stall
attribution, and dynamic critical-path analysis.

The timing simulator (:mod:`repro.machine.fast_timing`, and its oracle
:mod:`repro.machine.timing_oracle`) accepts an optional ``tracer`` (a
:class:`TraceCollector`); when provided it emits one
event per dynamic instruction with a structured stall breakdown and
the dependence edges that constrained it, plus counter points for SA
queue occupancy — stored as plain rows, read as
:class:`~repro.trace.events.InstructionEvent` /
:class:`~repro.trace.events.QueueSample` views.  On top of the stream:

* :func:`analyze` — reconciliation-checked stall-attribution tables
  and the dynamic critical path (:class:`TraceAnalysis`);
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome Trace
  Format export, loadable in Perfetto / ``chrome://tracing``;
* :func:`stall_report_markdown` / :func:`stall_report_json` — the
  per core/thread/opcode-class report.

Tracing is strictly opt-in: with ``tracer=None`` the simulator's
results are bit-identical to an uninstrumented run.
"""

from .events import (EDGE_KINDS, EVENT_FIELDS, EXECUTE, PRODUCER_CATEGORY,
                     STALL_CATEGORIES, TRACE_SCHEMA_VERSION,
                     InstructionEvent, QueueSample, RingBuffer)
from .collector import (DEFAULT_EVENT_LIMIT, ClassAccount, CoreAccount,
                        TraceCollector)
from .critical_path import CriticalPath, critical_path
from .chrome import chrome_trace, write_chrome_trace
from .report import (TraceAnalysis, analyze, stall_report_json,
                     stall_report_markdown)

__all__ = [
    "TRACE_SCHEMA_VERSION", "STALL_CATEGORIES", "EXECUTE",
    "EDGE_KINDS", "EVENT_FIELDS", "PRODUCER_CATEGORY",
    "InstructionEvent", "QueueSample", "RingBuffer",
    "TraceCollector", "CoreAccount", "ClassAccount",
    "DEFAULT_EVENT_LIMIT",
    "CriticalPath", "critical_path",
    "chrome_trace", "write_chrome_trace",
    "TraceAnalysis", "analyze",
    "stall_report_markdown", "stall_report_json",
]
