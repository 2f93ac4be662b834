"""Unified telemetry: the simulation's YARN-Timeline-Server analogue.

The paper's evaluation (section 6) rests on being able to see *why* a
DAG ran the way it did — container reuse chains, locality hit rates,
shuffle stalls, re-execution cascades. Production Tez publishes this
through the YARN Application Timeline Server; this package plays that
role for the simulated stack:

* :class:`Telemetry` — the one recorder, ambient on the environment:
  structured events (timestamp, kind, attrs; read back as
  :class:`TelemetryEvent`) emitted from ``yarn``, ``tez.am``,
  ``shuffle`` and ``chaos``, and hierarchical spans (:class:`Span`;
  session → DAG → vertex → task-attempt, plus container lifecycle and
  shuffle-fetch spans), each handed to the store as it is made or
  closed.
* :class:`MetricsRegistry` — a table of counters, the one counter
  surface of an AM (``DAGAppMaster.registry``).
* :class:`SpanStore` — the write-once on-disk store: a run's one
  artefact (``MANIFEST.json`` + ``segments/``).
* :class:`TimelineStore` — the query API (by span kind, event kind,
  attrs, time range) over a store, live (open spans included) or
  persisted.
* :class:`RollupEngine` / :mod:`~repro.telemetry.analysis` — per-DAG
  summaries and critical paths, folded as spans close.
* :mod:`~repro.telemetry.export` — the Chrome trace-event view of a
  timeline (loadable in ``chrome://tracing`` / Perfetto).

Everything is simulation-clock aware: timestamps are ``env.now``
seconds, scaled to microseconds only at Chrome-trace export time.
"""

from .analysis import CriticalPathReport, CriticalPathSegment, DagSummary
from .events import TelemetryEvent
from .export import chrome_trace, validate_records, write_chrome_trace
from .facade import Telemetry, get_telemetry
from .metrics import Counter, MetricsRegistry
from .rollups import RollupEngine
from .spans import Span
from .store import SpanStore
from .timeline import TimelineStore

__all__ = [
    "Counter",
    "CriticalPathReport",
    "CriticalPathSegment",
    "DagSummary",
    "MetricsRegistry",
    "RollupEngine",
    "Span",
    "SpanStore",
    "Telemetry",
    "TelemetryEvent",
    "TimelineStore",
    "chrome_trace",
    "get_telemetry",
    "validate_records",
    "write_chrome_trace",
]
