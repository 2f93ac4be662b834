"""Structured events: the timeline's raw record stream.

Every emission is a simulated-clock timestamp, a dotted ``kind``
(``"yarn.allocation"``, ``"scheduler.task_placed"``, ``"chaos.fault"``,
...) and a free-form attribute dict; readers get each one back as a
:class:`TelemetryEvent`. The :class:`EventLog` is append-only and
ordered by emission; queries live on
:class:`~repro.telemetry.timeline.TimelineStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["TelemetryEvent", "EventLog", "TaskTraceEntry"]


@dataclass(slots=True)
class TelemetryEvent:
    """One typed record on the timeline."""

    ts: float
    kind: str
    attrs: dict = field(default_factory=dict)
    seq: int = 0        # emission order (ties on ts are meaningful)

    def __repr__(self) -> str:
        return f"<Event {self.kind} t={self.ts:.3f} {self.attrs}>"


class EventLog:
    """Append-only, emission-ordered log of :class:`TelemetryEvent`.

    With a *sink* (the partitioned span store) the log keeps nothing
    resident: every emission goes to the store's event ring as the
    ``(seq, ts, kind, attrs)`` tuple the spool writes, and queries
    stream back out of partitioned segments as :class:`TelemetryEvent`.
    Without one it retains the full list of events, as it always did.
    """

    def __init__(self, sink=None):
        self.sink = sink
        self._events: list[TelemetryEvent] = []
        self._count = 0

    def emit(self, kind: str, ts: float, attrs: dict) -> None:
        """Record one event; ``attrs`` is kept by reference."""
        seq = self._count
        self._count = seq + 1
        if self.sink is None:
            self._events.append(TelemetryEvent(ts, kind, attrs, seq))
        else:
            self.sink.add_event((seq, ts, kind, attrs))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TelemetryEvent]:
        if self.sink is None:
            return iter(self._events)
        return (
            TelemetryEvent(ts=rec["ts"], kind=rec["kind"],
                           attrs=rec["attrs"], seq=rec["seq"])
            for rec in self.sink.iter_event_records()
        )

    def select(
        self,
        kind: Optional[str] = None,
        prefix: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **attrs,
    ) -> list[TelemetryEvent]:
        """Filter by exact kind, kind prefix, time range and attrs."""
        if self.sink is not None:
            return [
                TelemetryEvent(ts=rec["ts"], kind=rec["kind"],
                               attrs=rec["attrs"], seq=rec["seq"])
                for rec in self.sink.iter_event_records(
                    kind=kind, prefix=prefix, since=since, until=until,
                    attrs=attrs)
            ]
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if prefix is not None and not ev.kind.startswith(prefix):
                continue
            if since is not None and ev.ts < since:
                continue
            if until is not None and ev.ts > until:
                continue
            if any(ev.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(ev)
        return out


@dataclass
class TaskTraceEntry:
    """One task run on one container (paper Figure 7), as
    ``TaskSchedulerService.task_trace`` records it: the placement record
    that exists with telemetry off. Read its fields by name."""

    container_id: str
    attempt_id: str
    vertex: str
    start: float
    end: float
    node_id: str = ""
    dag_id: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start
