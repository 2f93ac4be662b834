"""The typed write-ahead recovery journal behind AM failover.

This replaces the old ``RecoveryLog`` success-snapshot: instead of a
side store updated *after* handlers ran (losing any work between a
task's success and its snapshot call), the dispatcher appends a typed
record for every control-plane event **at enqueue time, before its
handler runs**. Because :class:`~repro.tez.am.state_machines.StateMachine`
moves the subject's state *before* announcing the transition, the
journal entry for an attempt reaching SUCCEEDED can capture the
attempt's routed output events and node placement consistently — the
write-ahead property the paper's checkpoint-and-replay story (§4.3)
needs.

Recovery is then a pure fold over the record stream
(:meth:`RecoveryJournal.fold`): attempt successes accumulate, task
``restart`` transitions revoke them, a ``dag_finished`` marker retires
a DAG's state wholesale. A restarted AM reads the fold and re-dispatches
one :class:`~repro.tez.am.dispatcher.RecoveryEvent` per surviving entry
through its own bus — replay *is* event dispatch through the audited
machines, not state mutation.

Two mechanisms keep the journal trustworthy and bounded:

* **Epoch fencing** — every AM attempt opens a fresh writer epoch; a
  crashed AM's zombie (its simulation processes survive the container
  interrupt, exactly like a GC-paused JVM outliving its YARN lease)
  keeps calling ``record`` but every stale-epoch append is rejected and
  counted in :attr:`RecoveryJournal.fenced_appends`.
* **Checkpoint compaction** — every ``checkpoint_interval`` accepted
  appends the record prefix is folded into a single ``checkpoint``
  record (per-DAG successes + completed vertices + finished flags), so
  a long session's journal stays O(live state), not O(history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .dispatcher import (
    AttemptBatchExitedEvent,
    AttemptExitedEvent,
    ControlEvent,
    DataDeliveryBatchEvent,
    DataDeliveryEvent,
    FaultEvent,
    NodeLostEvent,
    RecoveryEvent,
    StateTransitionEvent,
    TaskUplinkEvent,
)
from .structures import AttemptState, VertexState

__all__ = ["RecoveredTask", "DagJournalState", "RecoveryJournal"]


@dataclass(frozen=True)
class RecoveredTask:
    """One folded task success: everything replay needs."""

    events: tuple           # routed output events (TezEvents)
    node_id: str            # where the winning attempt ran
    attempt_number: int     # original attempt number (staging paths!)


@dataclass
class DagJournalState:
    """Folded per-DAG journal state (also the checkpoint payload)."""

    successes: dict         # (vertex, index) -> RecoveredTask
    completed_vertices: set
    finished: bool = False

    def copy(self) -> "DagJournalState":
        return DagJournalState(dict(self.successes),
                               set(self.completed_vertices), self.finished)


class RecoveryJournal:
    """Write-ahead recovery log shared by all AM attempts of a client.

    Records are small tuples ``(kind, epoch, ...payload)``; only
    transition and lifecycle records influence :meth:`fold` — routed
    data / uplink / exit records are journaled for the replayable
    history but are no-ops for recovery (a restarted AM's live
    attempts are gone; recovered tasks re-route their stored events).
    """

    def __init__(self, checkpoint_interval: int = 4096):
        if checkpoint_interval < 2:
            raise ValueError("checkpoint_interval must be >= 2")
        self.checkpoint_interval = checkpoint_interval
        self._records: list[tuple] = []
        self._epoch = 0
        self._since_checkpoint = 0
        self.fenced_appends = 0
        self.checkpoints = 0

    # ------------------------------------------------------ epochs
    @property
    def current_epoch(self) -> int:
        return self._epoch

    def open_epoch(self) -> int:
        """Claim the journal for a new AM attempt; every older writer
        is fenced from this point on."""
        self._epoch += 1
        return self._epoch

    def fence(self, epoch: int) -> None:
        """Explicitly invalidate ``epoch`` (a crashing AM fences itself
        so nothing it does while unwinding reaches the journal)."""
        if epoch == self._epoch:
            self._epoch += 1

    # ------------------------------------------------------ appends
    def record(self, epoch: int, event: ControlEvent) -> None:
        """Dispatcher sink: append ``event`` as a typed record.

        Called at enqueue time, before any handler runs. Stale-epoch
        writers (zombie AMs) are rejected and counted.
        """
        if epoch != self._epoch:
            self.fenced_appends += 1
            return
        cls = event.__class__
        if cls is StateTransitionEvent:
            self._append(self._transition_record(epoch, event))
        elif cls is DataDeliveryBatchEvent:
            for inner in event.deliveries:
                self._append(self._data_record(epoch, inner))
        elif cls is TaskUplinkEvent:
            a = event.attempt
            t = a.task
            self._append((
                "uplink", epoch, t.vertex.dag_name,
                (t.vertex.name, t.index, a.number),
                type(event.payload).__name__,
            ))
        elif cls is AttemptExitedEvent:
            self._append(self._exit_record(epoch, event))
        elif cls is AttemptBatchExitedEvent:
            # Expand per member: the record stream is identical whether
            # exits crossed the bus individually or coalesced per tick.
            for inner in event.exits:
                self._append(self._exit_record(epoch, inner))
        elif cls is NodeLostEvent:
            self._append((
                "node_lost", epoch,
                getattr(event.node, "node_id", None),
            ))
        elif cls is FaultEvent:
            self._append(("fault", epoch, event.kind))
        elif cls is RecoveryEvent:
            self._append(("recovery", epoch, (event.vertex, event.index)))
        else:
            self._append(("event", epoch, cls.__name__))

    def record_dag_finished(self, dag_name: str,
                            epoch: Optional[int] = None) -> None:
        """Retire a DAG: its successes are no longer recovery state.

        Appended *after* commit, *before* staged outputs are finalized
        away — so every crash point either still has the successes (and
        re-commits idempotently from intact staging) or has the finish
        marker (and a re-submission re-runs from scratch)."""
        if epoch is not None and epoch != self._epoch:
            self.fenced_appends += 1
            return
        self._append(("dag_finished",
                      self._epoch if epoch is None else epoch, dag_name))

    @staticmethod
    def _exit_record(epoch: int, event: AttemptExitedEvent) -> tuple:
        a = event.attempt
        t = a.task
        err = type(event.error).__name__ if event.error else "ok"
        return (
            "exit", epoch, t.vertex.dag_name,
            (t.vertex.name, t.index, a.number), err,
        )

    @staticmethod
    def _transition_record(epoch: int,
                           event: StateTransitionEvent) -> tuple:
        machine = event.machine
        subject = event.subject
        if machine == "attempt":
            task = subject.task
            vr = task.vertex
            extra = None
            if event.to_state is AttemptState.SUCCEEDED:
                # Write-ahead capture: fire() moved the state and the
                # attempt body stored its routed events before this
                # transition was announced.
                extra = (
                    subject.node_id or "",
                    tuple(getattr(subject, "_pending_success_events",
                                  ()) or ()),
                )
            return ("transition", epoch, vr.dag_name, machine,
                    (vr.name, task.index, subject.number),
                    event.trigger, event.to_state, extra)
        if machine == "task":
            vr = subject.vertex
            return ("transition", epoch, vr.dag_name, machine,
                    (vr.name, subject.index),
                    event.trigger, event.to_state, None)
        if machine in ("vertex", "vertex_init"):
            # vertex_init records are replay history only: fold()
            # ignores the kind (a restarted AM re-enters init from
            # PENDING on a fresh VertexRuntime).
            return ("transition", epoch, subject.dag_name,
                    machine, subject.name,
                    event.trigger, event.to_state, None)
        # machine == "dag": subject is the AM, subject_id the dag_id.
        # An AM runs one DAG at a time and a terminal dag machine does
        # not fire, so the AM's current DAG is the one that moved.
        return ("transition", epoch, subject._dag.name,
                machine, event.subject_id,
                event.trigger, event.to_state, None)

    @staticmethod
    def _data_record(epoch: int, event: DataDeliveryEvent) -> tuple:
        task = event.attempt.task
        dme = event.payload
        return (
            "data", epoch, task.vertex.dag_name,
            (task.vertex.name, task.index),
            (getattr(dme, "source_vertex", None),
             getattr(dme, "source_task_index", None),
             getattr(dme, "source_output_index", None),
             getattr(dme, "version", None)),
        )

    def _append(self, record: tuple) -> None:
        self._records.append(record)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self._compact()

    def _compact(self) -> None:
        state = self.fold(self._records)
        self._records = [("checkpoint", self._epoch, state)]
        self._since_checkpoint = 0
        self.checkpoints += 1

    # ------------------------------------------------------ reads
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[tuple]:
        """Copy of the current record stream (checkpoint prefix
        included)."""
        return list(self._records)

    @staticmethod
    def fold(records: Iterable[tuple]) -> dict[str, DagJournalState]:
        """Pure fold of a record stream into per-DAG recovery state.

        This single function is the replay semantics: the restarted
        AM's ``recovered_work``, checkpoint compaction and the
        determinism tests all reuse it.
        """
        state: dict[str, DagJournalState] = {}

        def dag_state(name: str) -> DagJournalState:
            s = state.get(name)
            if s is None:
                s = state[name] = DagJournalState({}, set())
            return s

        for record in records:
            kind = record[0]
            if kind == "transition":
                _, _, dag, machine, key, trigger, to_state, extra = record
                if machine == "attempt":
                    if to_state is AttemptState.SUCCEEDED:
                        node_id, events = extra or ("", ())
                        dag_state(dag).successes[key[0], key[1]] = (
                            RecoveredTask(tuple(events), node_id, key[2])
                        )
                elif machine == "task":
                    if trigger == "restart":
                        dag_state(dag).successes.pop((key[0], key[1]),
                                                     None)
                elif machine == "vertex":
                    if to_state is VertexState.SUCCEEDED:
                        dag_state(dag).completed_vertices.add(key)
                    elif trigger == "reactivate":
                        dag_state(dag).completed_vertices.discard(key)
                elif machine == "dag":
                    if trigger == "run":
                        dag_state(dag).finished = False
            elif kind == "dag_finished":
                s = dag_state(record[2])
                s.finished = True
                s.successes.clear()
                s.completed_vertices.clear()
            elif kind == "checkpoint":
                state = {name: s.copy() for name, s in record[2].items()}
        return state

    def fold_state(self) -> dict[str, DagJournalState]:
        return self.fold(self._records)

    def successes(self, dag_name: str) -> dict:
        """``(vertex, index) -> RecoveredTask`` for the named DAG —
        the recovery read a restarted AM replays from."""
        s = self.fold_state().get(dag_name)
        return dict(s.successes) if s is not None else {}

    def dag_finished(self, dag_name: str) -> bool:
        s = self.fold_state().get(dag_name)
        return s.finished if s is not None else False
