"""Hierarchical spans over the simulation clock.

A :class:`Span` is a named interval with a kind, optional parent and
attribute dict. The hierarchy mirrors the execution model:

    session -> dag -> vertex -> attempt
    session -> container            (lifecycle of one held container)
    attempt ~> fetch                (shuffle fetches, linked by attrs)

Spans are cheap records — no context managers, no thread-locals; the
emitting code opens and closes them explicitly through
:meth:`~repro.telemetry.facade.Telemetry.span` /
:meth:`~repro.telemetry.facade.Telemetry.finish` at the simulation's
current time. Only **open** spans stay resident (in the facade's open
set); a span's :meth:`Span.record` tuple is handed to the
:class:`~repro.telemetry.store.SpanStore` the moment it finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Span"]


@dataclass(slots=True)
class Span:
    span_id: int
    kind: str           # "session" | "dag" | "vertex" | "attempt" | ...
    name: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def record(self) -> tuple:
        """The store's record of this span, as it stands now. It shares
        ``attrs``, so an update before the record is flushed lands."""
        return (self.span_id, self.kind, self.name, self.start, self.end,
                self.parent_id, self.attrs)

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "..."
        return f"<Span {self.kind}:{self.name} [{self.start:.3f},{end}]>"
