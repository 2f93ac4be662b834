"""TimelineStore: the query surface over events and spans.

This is the simulation's stand-in for the YARN Application Timeline
Server: the Chrome-trace view, ``query`` and tests read execution
history through it — by span kind and attrs, by event kind, by time
range — instead of poking at AM internals.

Every closed record comes out of the
:class:`~repro.telemetry.store.SpanStore` (its spool, or a persisted
store's segments, pruned by partition). A timeline over a live run is
also given the recording :class:`~repro.telemetry.facade.Telemetry`,
whose open spans it merges in.
"""

from __future__ import annotations

from typing import Optional

from .events import TelemetryEvent
from .spans import Span

__all__ = ["TimelineStore", "span_from_record"]


def span_from_record(rec: dict) -> Span:
    """Rehydrate a stored span record (see ``store.span_record``)."""
    return Span(span_id=rec["span_id"], kind=rec["kind"],
                name=rec["name"], start=rec["start"], end=rec["end"],
                parent_id=rec["parent_id"], attrs=rec["attrs"])


class TimelineStore:
    def __init__(self, spanstore, live=None):
        self.spanstore = spanstore
        self.live = live        # the recording Telemetry, if any

    @classmethod
    def open(cls, store_dir: str) -> "TimelineStore":
        """Query surface over a persisted store directory (no live
        telemetry: exactly what the segments hold)."""
        from .store import SpanStore
        return cls(SpanStore(store_dir))

    # -- events ---------------------------------------------------------
    def events(
        self,
        kind: Optional[str] = None,
        prefix: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **attrs,
    ) -> list[TelemetryEvent]:
        """Filter by exact kind, kind prefix, time range and attrs."""
        return [
            TelemetryEvent(ts=rec["ts"], kind=rec["kind"],
                           attrs=rec["attrs"], seq=rec["seq"])
            for rec in self.spanstore.iter_event_records(
                kind=kind, prefix=prefix, since=since, until=until,
                attrs=attrs)
        ]

    # -- spans ----------------------------------------------------------
    def spans(self, kind: Optional[str] = None, **attrs) -> list[Span]:
        closed = [span_from_record(rec) for rec in
                  self.spanstore.iter_span_records(kind=kind, attrs=attrs)]
        if self.live is None:
            return closed
        open_ = [span for span in self.live.open_spans()
                 if (kind is None or span.kind == kind)
                 and all(span.attrs.get(k) == v for k, v in attrs.items())]
        if not open_:
            return closed
        # A stored record of a span still open is a persist-time
        # snapshot: the live span supersedes it.
        open_ids = {span.span_id for span in open_}
        return sorted([s for s in closed if s.span_id not in open_ids]
                      + open_, key=lambda s: s.span_id)
