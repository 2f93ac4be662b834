"""Unified telemetry: the simulation's YARN-Timeline-Server analogue.

The paper's evaluation (section 6) rests on being able to see *why* a
DAG ran the way it did — container reuse chains, locality hit rates,
shuffle stalls, re-execution cascades. Production Tez publishes this
through the YARN Application Timeline Server; this package plays that
role for the simulated stack:

* :class:`EventLog` / :class:`TelemetryEvent` — append-only structured
  record stream (timestamp, kind, attrs) emitted from ``sim.core``,
  ``yarn``, ``tez.am``, ``shuffle`` and ``chaos``.
* :class:`Tracer` / :class:`Span` — hierarchical spans
  (session → DAG → vertex → task-attempt, plus container lifecycle and
  shuffle-fetch spans).
* :class:`MetricsRegistry` — typed counters and histograms, the one
  counter surface of an AM (``DAGAppMaster.registry``).
* :class:`SpanStore` — the write-once on-disk store: a run's one
  artefact (``MANIFEST.json`` + ``segments/``).
* :class:`TimelineStore` — the query API (by span kind, event kind,
  attrs, time range), live or over a persisted store.
* :class:`RollupEngine` / :mod:`~repro.telemetry.analysis` — per-DAG
  summaries and critical paths, folded as spans close.
* :mod:`~repro.telemetry.export` — the Chrome trace-event view of a
  timeline (loadable in ``chrome://tracing`` / Perfetto).

Everything is simulation-clock aware: timestamps are ``env.now``
seconds, scaled to microseconds only at Chrome-trace export time.
"""

from .analysis import CriticalPathReport, CriticalPathSegment, DagSummary
from .events import EventLog, TaskTraceEntry, TelemetryEvent
from .export import chrome_trace, validate_records, write_chrome_trace
from .facade import Telemetry, get_telemetry
from .metrics import Counter, Histogram, MetricsRegistry
from .rollups import RollupEngine
from .spans import Span, Tracer
from .store import SpanStore
from .timeline import TimelineStore

__all__ = [
    "Counter",
    "CriticalPathReport",
    "CriticalPathSegment",
    "DagSummary",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "RollupEngine",
    "Span",
    "SpanStore",
    "TaskTraceEntry",
    "Telemetry",
    "TelemetryEvent",
    "TimelineStore",
    "Tracer",
    "chrome_trace",
    "get_telemetry",
    "validate_records",
    "write_chrome_trace",
]
