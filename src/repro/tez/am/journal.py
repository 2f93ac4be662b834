"""The typed write-ahead recovery journal behind AM failover.

This replaces the old ``RecoveryLog`` success-snapshot: instead of a
side store updated *after* handlers ran (losing any work between a
task's success and its snapshot call), the dispatcher hands every
control-plane event to the journal **at enqueue time, before its
handler runs**, and the journal appends a typed record for each state
transition. Only transitions are kept: every other event (an exit, an
uplink, a data delivery, a node loss, a fault, a replayed success)
matters to recovery only through the transitions its handler fires,
and what happened in a run is telemetry's store, not this log.
Because :meth:`~repro.tez.am.state_machines.StateMachine.fire` moves
the subject's state *before* announcing the transition, the journal
entry for an attempt reaching SUCCEEDED can capture the
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
from typing import Iterable, Optional

from .dispatcher import ControlEvent, StateTransitionEvent
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

    Records are small tuples ``(kind, epoch, ...payload)`` of three
    kinds: ``transition`` (one per state-machine move, of all five
    machines), ``dag_finished`` and ``checkpoint``. They are what
    :meth:`fold` and the recovery oracles read, and nothing else.
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
        # fold_state's last answer, and how many records it folded.
        self._folded: dict[str, DagJournalState] = {}
        self._folded_upto = 0

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
        """Dispatcher sink: append ``event`` as a typed record if it is
        a state transition.

        Called at enqueue time, before any handler runs, for every
        event. Stale-epoch writers (zombie AMs) are rejected and
        counted, whatever they dispatch.
        """
        if epoch != self._epoch:
            self.fenced_appends += 1
            return
        if event.__class__ is not StateTransitionEvent:
            # Every other event's handler fires the transitions that
            # matter to recovery, and each of those is recorded here.
            return
        machine = event.machine
        subject = event.subject
        to_state = event.to_state
        if machine == "attempt":
            task = subject.task
            vr = task.vertex
            extra = None
            if to_state is AttemptState.SUCCEEDED:
                # Write-ahead capture: fire() moved the state and the
                # attempt body stored its routed events before this
                # transition was announced.
                extra = (
                    subject.node_id or "",
                    tuple(getattr(subject, "_pending_success_events",
                                  ()) or ()),
                )
            record = ("transition", epoch, vr.dag_name, machine,
                      (vr.name, task.index, subject.number),
                      event.trigger, to_state, extra)
        elif machine == "task":
            vr = subject.vertex
            record = ("transition", epoch, vr.dag_name, machine,
                      (vr.name, subject.index),
                      event.trigger, to_state, None)
        elif machine in ("vertex", "vertex_init"):
            # vertex_init records are replay history only: fold()
            # ignores the kind (a restarted AM re-enters init from
            # PENDING on a fresh VertexRuntime).
            record = ("transition", epoch, subject.dag_name,
                      machine, subject.name,
                      event.trigger, to_state, None)
        else:
            # machine == "dag": subject is the AM, subject_id the
            # dag_id. An AM runs one DAG at a time and a terminal dag
            # machine does not fire, so the AM's current DAG is the
            # one that moved.
            record = ("transition", epoch, subject._dag.name,
                      machine, event.subject_id,
                      event.trigger, to_state, None)
        self._append(record)

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

    def _append(self, record: tuple) -> None:
        self._records.append(record)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self._compact()

    def _compact(self) -> None:
        state = self.fold(self._records)
        self._records = [("checkpoint", self._epoch, state)]
        self._folded, self._folded_upto = {}, 0
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
        """``fold`` of the record stream, for reading only. Each read
        folds just the records appended since the last one: the state
        it gave then, as a checkpoint record, and the new suffix
        through the same :meth:`fold`. After a compaction the next
        read folds the new checkpoint and what follows it."""
        records = self._records
        if self._folded_upto < len(records):
            self._folded = self.fold(
                [("checkpoint", self._epoch, self._folded),
                 *records[self._folded_upto:]])
            self._folded_upto = len(records)
        return self._folded

    def successes(self, dag_name: str) -> dict:
        """``(vertex, index) -> RecoveredTask`` for the named DAG —
        the recovery read a restarted AM replays from."""
        s = self.fold_state().get(dag_name)
        return dict(s.successes) if s is not None else {}

    def dag_finished(self, dag_name: str) -> bool:
        s = self.fold_state().get(dag_name)
        return s.finished if s is not None else False
