"""Structured events: the timeline's raw record stream.

Every emission is a simulated-clock timestamp, a dotted ``kind``
(``"yarn.allocation"``, ``"scheduler.task_placed"``, ``"chaos.fault"``,
...) and a free-form attribute dict, numbered in emission order by
:meth:`~repro.telemetry.facade.Telemetry.event` and handed straight to
the store; readers get each one back as a :class:`TelemetryEvent` from
:class:`~repro.telemetry.timeline.TimelineStore` queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TelemetryEvent"]


@dataclass(slots=True)
class TelemetryEvent:
    """One typed record on the timeline."""

    ts: float
    kind: str
    attrs: dict = field(default_factory=dict)
    seq: int = 0        # emission order (ties on ts are meaningful)

    def __repr__(self) -> str:
        return f"<Event {self.kind} t={self.ts:.3f} {self.attrs}>"

