"""Typed, deterministic control-plane event bus (Tez's AsyncDispatcher).

The real Tez AM centralises all control flow on one AsyncDispatcher:
components never call each other directly for lifecycle changes — they
dispatch typed events, and registered handlers react. This module is
the simulated analogue, with two delivery modes:

* :meth:`Dispatcher.dispatch` — run-to-completion delivery on the
  current simulation tick. Events dispatched *while* a handler is
  running are queued and drained FIFO, so a cascade triggered by one
  external stimulus is processed in a deterministic, enqueue-ordered
  sequence (Tez's single dispatcher thread).
* :meth:`Dispatcher.dispatch_after` — delivery through the simulation
  clock (heartbeat-delayed task events, buffered data-movement
  deliveries). Each event is stamped with a monotonically increasing
  sequence number and the sim kernel's FIFO-stable heap guarantees
  that events landing on the same simulated timestamp drain in
  enqueue order — the tiebreaker that makes control-plane replay
  byte-for-byte reproducible.

Handlers are registered per event *type* (subclass of
:class:`ControlEvent`); dispatching an event type nobody handles is an
error unless the type was explicitly marked ignorable — silently
dropped control events are how state machines rot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Type

__all__ = [
    "ControlEvent",
    "StateTransitionEvent",
    "AttemptExitedEvent",
    "AttemptBatchExitedEvent",
    "TaskUplinkEvent",
    "DataDeliveryEvent",
    "DataDeliveryBatchEvent",
    "NodeLostEvent",
    "FaultEvent",
    "RecoveryEvent",
    "Dispatcher",
    "UnhandledEventError",
]


class UnhandledEventError(Exception):
    """An event type reached the dispatcher with no registered handler."""


@dataclass
class ControlEvent:
    """Base class for everything that moves on the control plane."""

    # Stamped by the dispatcher: (time, seq) totally orders every event
    # that ever crossed the bus.
    seq: int = field(default=-1, init=False, compare=False)
    time: float = field(default=-1.0, init=False, compare=False)


@dataclass
class StateTransitionEvent(ControlEvent):
    """One state machine moved. Emitted for *every* transition."""

    machine: str            # "dag" | "vertex" | "task" | "attempt"
    subject_id: str
    from_state: Any
    to_state: Any
    trigger: str            # the table event that caused the move
    subject: Any = field(default=None, repr=False)


@dataclass
class AttemptExitedEvent(ControlEvent):
    """A task attempt's container body ended (success, error or kill)."""

    attempt: Any
    error: Optional[BaseException] = None


@dataclass
class AttemptBatchExitedEvent(ControlEvent):
    """All attempt exits landing on one simulated tick, coalesced into
    a single bus dispatch (mirroring :class:`DataDeliveryBatchEvent`).
    The journal and the opt-in determinism journal record the member
    exits individually, so the canonical event stream matches unit
    exits record-for-record (member *order within the tick* relative
    to interleaved transition records can differ)."""

    exits: list = field(default_factory=list)   # AttemptExitedEvent


@dataclass
class TaskUplinkEvent(ControlEvent):
    """An event sent by running task code to the AM (heartbeat-delayed)."""

    attempt: Any
    payload: Any = None     # a TezEvent (VM / initializer / read error)


@dataclass
class DataDeliveryEvent(ControlEvent):
    """A routed DataMovementEvent due for delivery to a live attempt."""

    attempt: Any
    payload: Any = None     # the routed DataMovementEvent


@dataclass
class DataDeliveryBatchEvent(ControlEvent):
    """All routed DME deliveries landing on one heartbeat tick,
    coalesced into a single bus dispatch (one kernel heap entry instead
    of one dispatcher process per event). The journal records the
    member deliveries individually."""

    deliveries: list = field(default_factory=list)  # DataDeliveryEvent


@dataclass
class NodeLostEvent(ControlEvent):
    """YARN declared a node LOST (missed liveness heartbeats)."""

    node: Any = None


@dataclass
class FaultEvent(ControlEvent):
    """A chaos fault arriving as a control-plane event (not a direct
    mutation): the handler applies it, so fault handling is subject to
    the same ordering/auditing as every other transition driver."""

    kind: str = ""          # "am_crash" | "node_crash" | "shuffle_output_loss"
    target: Any = None      # node id / spill id, kind-dependent
    detail: Any = None


@dataclass
class RecoveryEvent(ControlEvent):
    """One recovered task success re-dispatched into a restarted AM.

    Replay *is* event dispatch: the handler fires the attempt/task
    ``recover`` transitions through the audited machines, so a
    recovered DAG crosses exactly the tables a fresh one does."""

    vertex: str = ""
    index: int = -1
    number: int = 0         # original winning attempt number
    node_id: str = ""
    events: list = field(default_factory=list)  # routed output events


class Dispatcher:
    """Single-threaded, typed, FIFO event bus over the sim clock."""

    def __init__(self, env, name: str = "am"):
        self.env = env
        self.name = name
        self._handlers: dict[Type[ControlEvent], list[Callable]] = {}
        self._ignorable: set[Type[ControlEvent]] = set()
        self._seq = itertools.count()
        self._queue: list[ControlEvent] = []
        self._draining = False
        self.dispatched = 0
        # Write-ahead recovery journal (attached by the AM): every
        # event is appended at enqueue time, before its handler runs.
        self._journal = None
        self._journal_epoch = -1
        # Crash mechanics: a halted dispatcher silently drops every
        # dispatch — the in-simulation analogue of the AM process being
        # dead while its orphaned generators unwind.
        self.halted = False
        self._halt_at: Optional[int] = None
        self._halt_callback: Optional[Callable[[], None]] = None
        # Opt-in journal for determinism tests / debugging: (time, seq,
        # type name, summary) per event. Off by default — big DAG runs
        # cross the bus hundreds of thousands of times.
        self.keep_journal = False
        self.journal: list[tuple[float, int, str, str]] = []

    # ---------------------------------------------------- registration
    def register(self, event_type: Type[ControlEvent],
                 handler: Callable[[ControlEvent], None]) -> None:
        self._handlers.setdefault(event_type, []).append(handler)

    def ignore(self, event_type: Type[ControlEvent]) -> None:
        """Declare an event type acceptable to drop when unhandled."""
        self._ignorable.add(event_type)

    def attach_journal(self, journal, epoch: int) -> None:
        """Route every dispatched event into the write-ahead recovery
        journal, stamped with this AM attempt's writer epoch."""
        self._journal = journal
        self._journal_epoch = epoch

    # ---------------------------------------------------- crash control
    def halt(self) -> None:
        """Stop the bus dead: pending and future events are dropped.

        Models AM process death — the control plane goes silent at the
        exact event boundary where the crash landed."""
        self.halted = True

    def halt_after(self, dispatched_count: int,
                   callback: Callable[[], None]) -> None:
        """Arm a crash trigger: once the total delivered-event count
        reaches ``dispatched_count``, run ``callback`` (which is
        expected to halt the bus). The crash-anywhere sweep uses this
        to land a crash after every k-th dispatched event."""
        self._halt_at = dispatched_count
        self._halt_callback = callback

    # ------------------------------------------------------- dispatch
    def dispatch(self, event: ControlEvent) -> None:
        """Deliver now (same sim tick), run-to-completion.

        Nested dispatches (a handler dispatching more events) append to
        the drain queue and run after the current handler returns, in
        enqueue order.
        """
        if self.halted:
            return
        event.seq = next(self._seq)
        event.time = self.env.now
        if self._journal is not None:
            # Write-ahead: the record lands before any handler runs.
            self._journal.record(self._journal_epoch, event)
        self._queue.append(event)
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue and not self.halted:
                self._deliver(self._queue.pop(0))
            if self.halted:
                self._queue.clear()
        finally:
            self._draining = False

    def dispatch_after(self, delay: float, event: ControlEvent) -> None:
        """Deliver after ``delay`` simulated seconds, through one pooled
        kernel callback hop (one heap entry).

        Events scheduled for the same timestamp drain in enqueue order:
        each delivery is its own kernel event and the sim heap breaks
        timestamp ties by insertion sequence.
        """
        self.env.call_later_pooled(delay, lambda: self.dispatch(event))

    def _deliver(self, event: ControlEvent) -> None:
        if isinstance(event, AttemptBatchExitedEvent):
            # Count the member exits, not the envelope: `dispatched` is
            # a workload-volume metric (and the crash sweep's stride
            # axis), so it must not shrink when exits coalesce.
            self.dispatched += len(event.exits)
        else:
            self.dispatched += 1
        if self.keep_journal:
            if isinstance(event, DataDeliveryBatchEvent):
                # Journal the member deliveries, not the envelope.
                for inner in event.deliveries:
                    self.journal.append(
                        (event.time, event.seq, "DataDeliveryEvent",
                         self._summarize(inner))
                    )
            elif isinstance(event, AttemptBatchExitedEvent):
                for inner in event.exits:
                    self.journal.append(
                        (event.time, event.seq, "AttemptExitedEvent",
                         self._summarize(inner))
                    )
            else:
                self.journal.append(
                    (event.time, event.seq, type(event).__name__,
                     self._summarize(event))
                )
        try:
            handlers = self._handlers.get(type(event))
            if not handlers:
                if type(event) in self._ignorable:
                    return
                raise UnhandledEventError(
                    f"dispatcher {self.name!r}: no handler for "
                    f"{type(event).__name__}"
                )
            for handler in handlers:
                handler(event)
        finally:
            if (self._halt_at is not None
                    and self.dispatched >= self._halt_at):
                callback = self._halt_callback
                self._halt_at = self._halt_callback = None
                if callback is not None:
                    callback()

    @staticmethod
    def _stable_repr(obj) -> str:
        if isinstance(obj, (str, int, float, bool, type(None))):
            return repr(obj)
        if isinstance(obj, (tuple, list)):
            inner = ", ".join(Dispatcher._stable_repr(o) for o in obj)
            return f"({inner})"
        return type(obj).__name__

    @staticmethod
    def _summarize(event: ControlEvent) -> str:
        if isinstance(event, StateTransitionEvent):
            return (f"{event.machine}:{event.subject_id} "
                    f"{getattr(event.from_state, 'value', event.from_state)}"
                    f"->{getattr(event.to_state, 'value', event.to_state)} "
                    f"on {event.trigger}")
        if isinstance(event, AttemptExitedEvent):
            err = type(event.error).__name__ if event.error else "ok"
            return f"{getattr(event.attempt, 'attempt_id', '?')} {err}"
        if isinstance(event, FaultEvent):
            # Targets may hold live service objects whose default repr
            # embeds id(); summarize those by class name so journals
            # from identical runs compare byte-identical.
            return f"{event.kind}:{Dispatcher._stable_repr(event.target)}"
        if isinstance(event, DataDeliveryEvent):
            attempt_id = getattr(event.attempt, "attempt_id", "?")
            dme = event.payload
            src = (f"{getattr(dme, 'source_vertex', '?')}:"
                   f"{getattr(dme, 'source_task_index', '?')}:"
                   f"{getattr(dme, 'source_output_index', '?')}"
                   f"v{getattr(dme, 'version', '?')}")
            return f"{attempt_id} <- {src}"
        return ""

    def canonical_journal(self) -> list[tuple[float, str, str]]:
        """Journal with per-dispatch sequence numbers stripped.

        Coalescing changes how many times the bus is invoked (batches
        count once) and therefore the raw ``seq`` values, but not which
        deliveries happen when, or in what order. Determinism tests
        compare this canonical stream across batching modes.
        """
        return [(time, typename, summary)
                for (time, _seq, typename, summary) in self.journal]
