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
error — silently dropped control events are how state machines rot.

The bus keeps no log of its own. Every event is handed to the AM's
write-ahead :class:`~repro.tez.am.journal.RecoveryJournal` before its
handler runs, and the journal keeps the state transitions recovery
folds; what a run did is recorded in its telemetry store.
"""

from __future__ import annotations

import itertools
from collections import deque
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
    "RecoveryEvent",
    "Dispatcher",
    "UnhandledEventError",
]


class UnhandledEventError(Exception):
    """An event type reached the dispatcher with no registered handler."""


@dataclass(slots=True)
class ControlEvent:
    """Base class for everything that moves on the control plane."""

    # Stamped by the dispatcher: (time, seq) totally orders every event
    # that ever crossed the bus.
    seq: int = field(default=-1, init=False, compare=False)
    time: float = field(default=-1.0, init=False, compare=False)


class StateTransitionEvent(ControlEvent):
    """One state machine moved. Emitted for *every* transition.

    Slotted: ``StateMachine.fire`` allocates one and fills its slots in
    its own frame, without a constructor call. The constructor serves
    everything else that builds one."""

    __slots__ = ("machine", "subject_id", "from_state", "to_state",
                 "trigger", "subject")

    def __init__(self, machine: str, subject_id: str, from_state: Any,
                 to_state: Any, trigger: str, subject: Any = None):
        self.seq = -1
        self.time = -1.0
        self.machine = machine          # "dag" | "vertex" | "task" | ...
        self.subject_id = subject_id
        self.from_state = from_state
        self.to_state = to_state
        self.trigger = trigger          # the table event that caused it
        self.subject = subject

    def __repr__(self) -> str:
        return (f"StateTransitionEvent(machine={self.machine!r}, "
                f"subject_id={self.subject_id!r}, "
                f"from_state={self.from_state!r}, "
                f"to_state={self.to_state!r}, trigger={self.trigger!r})")


@dataclass
class AttemptExitedEvent(ControlEvent):
    """A task attempt's container body ended (success, error or kill)."""

    attempt: Any
    error: Optional[BaseException] = None


@dataclass
class AttemptBatchExitedEvent(ControlEvent):
    """All attempt exits landing on one simulated tick, coalesced into
    a single bus dispatch (mirroring :class:`DataDeliveryBatchEvent`)."""

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
    of one dispatcher process per event)."""

    deliveries: list = field(default_factory=list)  # DataDeliveryEvent


@dataclass
class NodeLostEvent(ControlEvent):
    """YARN declared a node LOST (missed liveness heartbeats)."""

    node: Any = None


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
        self._seq = itertools.count()
        self._queue: deque[ControlEvent] = deque()
        self._draining = False
        self.dispatched = 0
        # Write-ahead recovery journal (attached by the AM): every
        # event reaches it at enqueue time, before its handler runs.
        self._journal = None
        self._journal_epoch = -1
        # Crash mechanics: a halted dispatcher silently drops every
        # dispatch — the in-simulation analogue of the AM process being
        # dead while its orphaned generators unwind.
        self.halted = False
        self._halt_at: Optional[int] = None
        self._halt_callback: Optional[Callable[[], None]] = None

    # ---------------------------------------------------- registration
    def register(self, event_type: Type[ControlEvent],
                 handler: Callable[[ControlEvent], None]) -> None:
        self._handlers.setdefault(event_type, []).append(handler)

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
            queue = self._queue
            while queue and not self.halted:
                self._deliver(queue.popleft())
            if self.halted:
                queue.clear()
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
        cls = event.__class__
        if cls is AttemptBatchExitedEvent:
            # Count the member exits, not the envelope: `dispatched` is
            # a workload-volume metric (and the crash sweep's stride
            # axis), so it must not shrink when exits coalesce.
            self.dispatched += len(event.exits)
        else:
            self.dispatched += 1
        try:
            handlers = self._handlers.get(cls)
            if not handlers:
                raise UnhandledEventError(
                    f"dispatcher {self.name!r}: no handler for "
                    f"{cls.__name__}"
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
