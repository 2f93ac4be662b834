"""The typed write-ahead recovery journal behind AM failover.

This replaces the old ``RecoveryLog`` success-snapshot: instead of a
side store updated *after* handlers ran (losing any work between a
task's success and its snapshot call), the dispatcher hands every
control-plane event to the journal **at enqueue time, before its
handler runs**, and the journal folds each state transition into its
per-DAG recovery state on arrival. Every other event (an exit, an
uplink, a data delivery, a node loss, a fault, a replayed success)
matters to recovery only through the transitions its handler fires.
Because :meth:`~repro.tez.am.state_machines.StateMachine.fire` moves
the subject's state *before* announcing the transition, the entry for
an attempt reaching SUCCEEDED can capture the attempt's routed output
events and node placement consistently — the write-ahead property the
paper's checkpoint-and-replay story (§4.3) needs.

The journal holds that state and nothing else
(:attr:`RecoveryJournal.dags`): attempt successes accumulate, task
``restart`` transitions revoke them, vertex successes and
``reactivate`` keep ``completed_vertices``, a DAG ``run`` opens its
entry and the finish marker drops it. A restarted AM re-dispatches one
:class:`~repro.tez.am.dispatcher.RecoveryEvent` per surviving entry
through its own bus — replay *is* event dispatch through the audited
machines, not state mutation.

**Epoch fencing** keeps it trustworthy: every AM attempt opens a fresh
writer epoch; a crashed AM's zombie (its simulation processes survive
the container interrupt, exactly like a GC-paused JVM outliving its
YARN lease) keeps calling ``record``, but every stale-epoch append is
rejected and counted in :attr:`RecoveryJournal.fenced_appends`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispatcher import ControlEvent, StateTransitionEvent
from .structures import AttemptState, VertexState

__all__ = ["RecoveredTask", "DagJournalState", "RecoveryJournal"]


@dataclass(frozen=True)
class RecoveredTask:
    """One journaled task success: everything replay needs."""

    events: tuple           # routed output events (TezEvents)
    node_id: str            # where the winning attempt ran
    attempt_number: int     # original attempt number (staging paths!)


@dataclass
class DagJournalState:
    """One DAG's recovery state."""

    successes: dict         # (vertex, index) -> RecoveredTask
    completed_vertices: set


class RecoveryJournal:
    """Write-ahead recovery state shared by all AM attempts of a client:
    ``dags`` (read-only to callers) maps each DAG that has started and
    not finished to its state, and ``len(journal)`` counts accepted
    appends - one per transition of any of the five machines and one
    per finish marker."""

    def __init__(self):
        self.dags: dict[str, DagJournalState] = {}
        self._epoch = 0
        self._appends = 0
        self.fenced_appends = 0

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
    def _dag(self, name: str) -> DagJournalState:
        state = self.dags.get(name)
        if state is None:
            state = self.dags[name] = DagJournalState({}, set())
        return state

    def record(self, epoch: int, event: ControlEvent) -> None:
        """Dispatcher sink, called at enqueue time for every event
        before any handler runs: fold ``event`` in if it is a state
        transition. Stale-epoch writers (zombie AMs) are rejected and
        counted, whatever they dispatch."""
        if epoch != self._epoch:
            self.fenced_appends += 1
            return
        if event.__class__ is not StateTransitionEvent:
            # Every other event's handler fires the transitions that
            # matter to recovery, and each of those is folded here.
            return
        self._appends += 1
        machine = event.machine
        subject = event.subject
        if machine == "attempt":
            if event.to_state is AttemptState.SUCCEEDED:
                # Write-ahead capture: fire() moved the state and the
                # attempt body stored its routed events before this
                # transition was announced.
                task = subject.task
                vr = task.vertex
                self._dag(vr.dag_name).successes[vr.name, task.index] = \
                    RecoveredTask(
                        tuple(getattr(subject, "_pending_success_events",
                                      ()) or ()),
                        subject.node_id or "", subject.number)
        elif machine == "task":
            if event.trigger == "restart":
                vr = subject.vertex
                self._dag(vr.dag_name).successes.pop(
                    (vr.name, subject.index), None)
        elif machine == "vertex":
            # vertex_init transitions change nothing: a restarted AM
            # re-enters init from PENDING on a fresh VertexRuntime.
            if event.to_state is VertexState.SUCCEEDED:
                self._dag(subject.dag_name).completed_vertices.add(
                    subject.name)
            elif event.trigger == "reactivate":
                self._dag(subject.dag_name).completed_vertices.discard(
                    subject.name)
        elif machine == "dag" and event.trigger == "run":
            # The subject is the AM. It runs one DAG at a time and a
            # terminal dag machine does not fire, so the AM's current
            # DAG is the one that moved.
            self._dag(subject._dag.name)

    def record_dag_finished(self, dag_name: str, epoch: int) -> None:
        """Retire a DAG: none of its state is recovery state any more.

        Appended *after* commit, *before* staged outputs are finalized
        away — so every crash point either still has the successes (and
        re-commits idempotently from intact staging) or has the finish
        marker (and a re-submission re-runs from scratch)."""
        if epoch != self._epoch:
            self.fenced_appends += 1
            return
        self._appends += 1
        self.dags.pop(dag_name, None)

    def __len__(self) -> int:
        return self._appends
