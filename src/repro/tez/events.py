"""The event-based control plane (paper section 3.3).

All communication — framework to framework, application to framework,
application to application — travels as events with opaque payloads.
Tez only routes them: the CompositeDataMovementEvent a task output
announces is routed along the edge's connection pattern, one
DataMovementEvent per partition, to the right consumer task inputs;
error events travel from inputs back to the framework to drive
re-execution; VertexManagerEvents carry application statistics to
vertex managers; InputInitializerEvents target root-input initializers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

__all__ = [
    "TezEvent",
    "DataMovementEvent",
    "CompositeDataMovementEvent",
    "InputReadErrorEvent",
    "VertexManagerEvent",
    "InputInitializerEvent",
]

_event_counter = itertools.count(1)


@dataclass
class TezEvent:
    """Base event; concrete subclasses below.

    ``event_id`` is unique per event and drawn on first read, not at
    construction: a routed scatter-gather edge builds one
    DataMovementEvent per consumer partition, and nothing on the
    routing path reads the id."""

    @cached_property
    def event_id(self) -> int:
        return next(_event_counter)


@dataclass
class DataMovementEvent(TezEvent):
    """Producer output metadata for one (source task, source output
    partition). The payload is opaque to Tez — in practice a SpillRef,
    an HDFS path, or anything the paired input understands."""

    source_vertex: str
    source_task_index: int
    source_output_index: int   # partition index at the producer
    payload: Any
    version: int = 0           # attempt number that produced the data

    target_input_index: Optional[int] = None  # filled in by routing


@dataclass
class CompositeDataMovementEvent(TezEvent):
    """What a producer output announces: one event covering a
    contiguous partition range.

    Mirrors real Tez's CompositeDataMovementEvent: every spill output
    emits ONE of these per source attempt, whatever its partition
    count, instead of one DataMovementEvent per partition, compressing
    the m×n fanout of a scatter-gather edge on the control plane. The
    framework expands it lazily at the consumer side — only the
    partitions a given consumer task actually reads are materialised,
    as routed per-partition DataMovementEvents. ``payloads`` carries
    one payload per partition (a spill output's SpillRefs).
    """

    source_vertex: str
    source_task_index: int
    source_output_start: int
    count: int
    payloads: tuple            # len == count
    version: int = 0

    def sub_event(self, offset: int) -> DataMovementEvent:
        """Materialise the per-partition event at ``offset``."""
        return self.sub_events(((self, offset, None),))[0]

    @staticmethod
    def sub_events(picks) -> list[DataMovementEvent]:
        """Materialise ``(composite, offset, target_input_index)`` picks,
        in order: a consumer's whole snapshot of one edge in one call."""
        return [
            DataMovementEvent(
                source_vertex=comp.source_vertex,
                source_task_index=comp.source_task_index,
                source_output_index=comp.source_output_start + offset,
                payload=comp.payloads[offset],
                version=comp.version,
                target_input_index=target,
            )
            for comp, offset, target in picks
        ]

    def expand(self) -> list[DataMovementEvent]:
        return self.sub_events([(self, i, None) for i in range(self.count)])


@dataclass
class InputReadErrorEvent(TezEvent):
    """A consumer input failed to read a producer's output; the
    framework walks the DAG back and re-executes the producer."""

    source_vertex: str
    source_task_index: int
    version: int
    diagnostics: str = ""


@dataclass
class VertexManagerEvent(TezEvent):
    """Application statistics for a vertex manager (e.g. producers
    reporting output sizes for partition-cardinality estimation)."""

    target_vertex: str
    payload: Any
    producer_task_index: Optional[int] = None


@dataclass
class InputInitializerEvent(TezEvent):
    """Application metadata for a root-input initializer (e.g. Hive
    dynamic partition pruning sends the surviving partition ids)."""

    target_vertex: str
    target_input: str
    payload: Any
