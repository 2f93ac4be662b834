"""TimelineStore: the query surface over events and spans.

This is the simulation's stand-in for the YARN Application Timeline
Server: exporters, the analysis module and tests all read execution
history through it — by DAG, by vertex, by event kind, by time range —
instead of poking at AM internals.

The query API is storage-agnostic: when the telemetry is backed by the
partitioned :class:`~repro.telemetry.store.SpanStore`, closed spans
are streamed back out of on-disk segments (pruned by partition) and
merged with the tracer's open-span set; without one, everything comes
from the in-memory tracer and log exactly as before.
"""

from __future__ import annotations

from typing import Optional

from .events import EventLog, TelemetryEvent
from .spans import Span, Tracer

__all__ = ["TimelineStore", "span_from_record"]


def span_from_record(rec: dict) -> Span:
    """Rehydrate a stored span record (see ``store.span_record``)."""
    return Span(span_id=rec["span_id"], kind=rec["kind"],
                name=rec["name"], start=rec["start"], end=rec["end"],
                parent_id=rec["parent_id"], attrs=rec["attrs"])


class TimelineStore:
    def __init__(self, log: Optional[EventLog] = None,
                 tracer: Optional[Tracer] = None, spanstore=None):
        if spanstore is None and (log is None or tracer is None):
            raise ValueError("TimelineStore needs a log+tracer, a "
                             "spanstore, or both")
        if log is None:
            log = EventLog(sink=spanstore)
        if tracer is None:
            tracer = Tracer(sink=spanstore)
        self.log = log
        self.tracer = tracer
        self.spanstore = spanstore

    @classmethod
    def open(cls, store_dir: str) -> "TimelineStore":
        """Query surface over a persisted partitioned store directory
        (no live tracer/log: exactly what the segments hold)."""
        from .store import SpanStore
        return cls(spanstore=SpanStore(dir=store_dir))

    # -- events ---------------------------------------------------------
    def events(
        self,
        kind: Optional[str] = None,
        prefix: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **attrs,
    ) -> list[TelemetryEvent]:
        return self.log.select(kind=kind, prefix=prefix, since=since,
                               until=until, **attrs)

    # -- spans ----------------------------------------------------------
    def spans(self, kind: Optional[str] = None, **attrs) -> list[Span]:
        if self.spanstore is None:
            return self.tracer.select(kind=kind, **attrs)
        closed = [span_from_record(rec) for rec in
                  self.spanstore.iter_span_records(kind=kind, attrs=attrs)]
        open_ = self.tracer.select(kind=kind, **attrs)
        if not open_:
            return closed
        # A stored record of a span still open is a persist-time
        # snapshot: the live span supersedes it.
        open_ids = {span.span_id for span in open_}
        return sorted([s for s in closed if s.span_id not in open_ids]
                      + open_, key=lambda s: s.span_id)

    def dag_ids(self) -> list[str]:
        """DAG execution ids in submission order."""
        out = []
        for span in self.spans(kind="dag"):
            dag_id = span.attrs.get("dag", span.name)
            if dag_id not in out:
                out.append(dag_id)
        return out

    def dag_span(self, dag_id: str) -> Optional[Span]:
        for span in self.spans(kind="dag"):
            if span.attrs.get("dag", span.name) == dag_id:
                return span
        return None

    def vertex_spans(self, dag_id: str) -> list[Span]:
        return self.spans(kind="vertex", dag=dag_id)

    def attempt_spans(self, dag_id: str,
                      vertex: Optional[str] = None) -> list[Span]:
        attrs = {"dag": dag_id}
        if vertex is not None:
            attrs["vertex"] = vertex
        return self.spans(kind="attempt", **attrs)
