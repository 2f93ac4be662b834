"""Declarative transition tables for the AM control plane.

This is the simulated counterpart of Tez's ``StateMachineFactory``:
each of DAG / Vertex / Task / TaskAttempt gets a declarative table of
``(source states, event) -> target state`` transitions with optional
guard and action hooks resolved against a handler component. Every
cell of the ``states x events`` grid must be *explicitly* specified as
a transition, an ignore (legal no-op — late events are routine in a
distributed control plane) or an invalid combination (raises
:class:`InvalidStateTransition`). ``python -m repro.tez.am.check``
audits the shipped tables: reachability, absorbing terminals, total
grids, and that every action/guard resolves to a real handler method.

Semantics worth noting (they mirror the paper, section 4.3): a
*TaskAttempt* is immutable history — its terminal states are truly
absorbing. Task / Vertex / DAG success is revocable: lost outputs
re-activate a SUCCEEDED task (``restart``) and its vertex
(``reactivate``), and a SUCCEEDED DAG still has to commit. Only
FAILED / KILLED are absorbing at those levels.

Every transition is announced on the AM dispatcher as a
:class:`~repro.tez.am.dispatcher.StateTransitionEvent`, which is how
telemetry keeps span state equal to machine state at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .dispatcher import Dispatcher, StateTransitionEvent
from .structures import (
    AttemptState,
    DAGState,
    TaskState,
    VertexInitState,
    VertexState,
)

__all__ = [
    "InvalidStateTransition",
    "Transition",
    "TransitionTable",
    "StateMachine",
    "MachineSet",
    "TABLES",
    "HANDLER_SPECS",
    "DAG_TABLE",
    "VERTEX_TABLE",
    "VERTEX_INIT_TABLE",
    "TASK_TABLE",
    "ATTEMPT_TABLE",
    "ATTEMPT_CONSEQUENCES",
]


class InvalidStateTransition(Exception):
    """An event arrived in a state where it is declared illegal."""


_IGNORED = object()     # cell marker: legal no-op
_INVALID = object()     # cell marker: explicitly illegal


@dataclass(frozen=True)
class Transition:
    """One edge of a state machine."""

    event: str
    sources: tuple
    target: Any
    action: Optional[str] = None    # handler method: action(subject, **ctx)
    guard: Optional[str] = None     # handler method: guard(subject) -> bool


class TransitionTable:
    """A complete machine: states, events, and a total cell grid."""

    def __init__(self, kind: str, states, initial, terminals):
        self.kind = kind
        self.states = tuple(states)
        self.initial = initial
        self.terminals = frozenset(terminals)
        self.transitions: list[Transition] = []
        self.events: list[str] = []
        # (state, event) -> list[Transition] | _IGNORED | _INVALID
        self._cells: dict[tuple[Any, str], Any] = {}

    # ------------------------------------------------------- authoring
    def _event(self, event: str) -> None:
        if event not in self.events:
            self.events.append(event)

    def move(self, event: str, sources, target,
             action: Optional[str] = None,
             guard: Optional[str] = None) -> "TransitionTable":
        if not isinstance(sources, (tuple, list, set, frozenset)):
            sources = (sources,)
        transition = Transition(event, tuple(sources), target, action, guard)
        self.transitions.append(transition)
        self._event(event)
        for source in transition.sources:
            cell = self._cells.get((source, event))
            if cell in (_IGNORED, _INVALID):
                raise ValueError(
                    f"{self.kind}: ({source}, {event}) already declared "
                    "ignored/invalid"
                )
            self._cells.setdefault((source, event), []).append(transition)
        return self

    def ignore(self, state, *events: str) -> "TransitionTable":
        for event in events:
            self._event(event)
            if (state, event) in self._cells:
                raise ValueError(
                    f"{self.kind}: ({state}, {event}) already specified"
                )
            self._cells[(state, event)] = _IGNORED
        return self

    def invalid_rest(self) -> "TransitionTable":
        """Explicitly mark every remaining cell illegal (the authorial
        default of Tez's StateMachineFactory)."""
        for state in self.states:
            for event in self.events:
                self._cells.setdefault((state, event), _INVALID)
        return self

    # --------------------------------------------------------- queries
    def cell(self, state, event: str):
        return self._cells.get((state, event))

    def is_total(self) -> list[str]:
        """Unspecified cells (audit: must be empty)."""
        return [
            f"({state.value}, {event})"
            for state in self.states
            for event in self.events
            if (state, event) not in self._cells
        ]


class StateMachine:
    """Drives one subject's ``state`` attribute through a table."""

    def __init__(
        self,
        table: TransitionTable,
        subject: Any,
        subject_id: str,
        attr: str = "state",
        dispatcher: Optional[Dispatcher] = None,
        handler: Any = None,
    ):
        self.table = table
        self.subject = subject
        self.subject_id = subject_id
        self.attr = attr
        self.dispatcher = dispatcher
        self.handler = handler

    @property
    def state(self):
        return getattr(self.subject, self.attr)

    @property
    def terminal(self) -> bool:
        return self.state in self.table.terminals

    def can(self, event: str) -> bool:
        cell = self.table.cell(self.state, event)
        return isinstance(cell, list)

    def fire(self, event: str, **ctx):
        """Apply ``event``: validate, move state, announce, run action.

        Returns the (possibly unchanged) state. Raises
        :class:`InvalidStateTransition` for cells declared invalid or
        events unknown to the table.
        """
        state = self.state
        cell = self.table.cell(state, event)
        if cell is _IGNORED:
            return state
        if cell is None or cell is _INVALID:
            raise InvalidStateTransition(
                f"{self.table.kind} {self.subject_id}: event {event!r} "
                f"is illegal in state {getattr(state, 'value', state)}"
            )
        chosen = None
        for transition in cell:
            if transition.guard is not None:
                if not getattr(self.handler, transition.guard)(self.subject):
                    continue
            chosen = transition
            break
        if chosen is None:
            raise InvalidStateTransition(
                f"{self.table.kind} {self.subject_id}: every guard "
                f"rejected event {event!r} in state "
                f"{getattr(state, 'value', state)}"
            )
        setattr(self.subject, self.attr, chosen.target)
        if self.dispatcher is not None:
            self.dispatcher.dispatch(StateTransitionEvent(
                machine=self.table.kind,
                subject_id=self.subject_id,
                from_state=state,
                to_state=chosen.target,
                trigger=event,
                subject=self.subject,
            ))
        if chosen.action is not None and self.handler is not None:
            getattr(self.handler, chosen.action)(self.subject, **ctx)
        return chosen.target


# ======================================================================
# The shipped tables. Audited by `python -m repro.tez.am.check`.
# ======================================================================

def _attempt_table() -> TransitionTable:
    S = AttemptState
    t = TransitionTable(
        "attempt", S, S.NEW,
        terminals={S.SUCCEEDED, S.FAILED, S.KILLED},
    )
    t.move("schedule", S.NEW, S.QUEUED)
    t.move("launch", S.QUEUED, S.RUNNING)
    t.move("succeed", S.RUNNING, S.SUCCEEDED,
           action="act_attempt_succeeded")
    t.move("fail", (S.QUEUED, S.RUNNING), S.FAILED,
           action="act_attempt_failed")
    t.move("kill", (S.NEW, S.QUEUED, S.RUNNING), S.KILLED,
           action="act_attempt_killed")
    # `discard` kills without retry side-effects: a stale attempt from a
    # finished DAG, or a speculation sibling beaten to the finish line.
    t.move("discard", (S.NEW, S.QUEUED, S.RUNNING), S.KILLED)
    t.move("recover", S.NEW, S.SUCCEEDED)     # journal replay
    # Attempts are immutable history: terminal states absorb late events
    # (a kill racing a success is routine, not an error).
    for terminal in (S.SUCCEEDED, S.FAILED, S.KILLED):
        t.ignore(terminal, "kill", "discard", "succeed", "fail")
    return t.invalid_rest()


def _task_table() -> TransitionTable:
    S = TaskState
    t = TransitionTable(
        "task", S, S.NEW,
        # SUCCEEDED is revocable (paper 4.3): a lost output re-runs the
        # task. Only FAILED / KILLED absorb.
        terminals={S.FAILED, S.KILLED},
    )
    t.move("schedule", S.NEW, S.SCHEDULED)
    t.move("launch", S.SCHEDULED, S.RUNNING)
    t.move("succeed", S.RUNNING, S.SUCCEEDED)
    t.move("restart", S.SUCCEEDED, S.RUNNING)  # output lost: regenerate
    t.move("recover", S.NEW, S.SUCCEEDED)      # journal replay
    t.move("fail", S.RUNNING, S.FAILED)
    t.move("kill", (S.NEW, S.SCHEDULED, S.RUNNING), S.KILLED)
    # A DAG kill fans out over every attempt; the second sibling's exit
    # finds its task already killed (or already safe).
    t.ignore(S.KILLED, "kill")
    t.ignore(S.SUCCEEDED, "kill")
    t.ignore(S.FAILED, "kill")
    return t.invalid_rest()


def _vertex_table() -> TransitionTable:
    S = VertexState
    t = TransitionTable(
        "vertex", S, S.NEW,
        terminals={S.FAILED, S.KILLED},
    )
    t.move("init", S.NEW, S.INITIALIZING)
    t.move("inited", S.INITIALIZING, S.INITED)
    t.move("start", S.INITED, S.RUNNING, action="act_vertex_started")
    t.move("complete", S.RUNNING, S.SUCCEEDED,
           action="act_vertex_completed", guard="vertex_all_tasks_done")
    t.move("reactivate", S.SUCCEEDED, S.RUNNING)  # task re-execution
    t.move("fail", S.RUNNING, S.FAILED)
    t.move("kill", (S.NEW, S.INITIALIZING, S.INITED, S.RUNNING), S.KILLED)
    # Completion rechecks race with the DAG-level sweep.
    t.ignore(S.SUCCEEDED, "complete")
    t.ignore(S.FAILED, "kill")
    t.ignore(S.KILLED, "kill")
    return t.invalid_rest()


def _vertex_init_table() -> TransitionTable:
    """Sub-machine of the vertex INITIALIZING phase.

    ``initialize_vertex`` used to be one long opaque coroutine; each of
    its phases is now an audited transition. The yielding work (waiting
    on initializer processes, on a one-to-one source's resolution)
    happens *between* transitions in the lifecycle coroutine; the
    synchronous finalizers (task creation, manager bring-up) are
    machine actions, so replay after an AM crash re-enters exactly the
    same arc from PENDING.
    """
    S = VertexInitState
    t = TransitionTable(
        "vertex_init", S, S.PENDING,
        terminals={S.DONE, S.ABORTED},
    )
    t.move("begin", S.PENDING, S.SOURCES_INITIALIZING)
    t.move("sources_ready", S.SOURCES_INITIALIZING,
           S.RESOLVING_PARALLELISM)
    t.move("parallelism_resolved", S.RESOLVING_PARALLELISM,
           S.TASKS_CREATED, action="act_init_tasks_created")
    t.move("manager_ready", S.TASKS_CREATED, S.MANAGER_READY,
           action="act_init_manager_ready")
    t.move("finish", S.MANAGER_READY, S.DONE)
    # Any phase can abort: initializer failure, unresolvable
    # parallelism, split-count mismatch, or a DAG kill racing init.
    t.move("abort", (S.PENDING, S.SOURCES_INITIALIZING,
                     S.RESOLVING_PARALLELISM, S.TASKS_CREATED,
                     S.MANAGER_READY), S.ABORTED)
    # A second failure while unwinding (or a kill landing after the
    # vertex finished initializing) is a legal no-op.
    t.ignore(S.DONE, "abort")
    t.ignore(S.ABORTED, "abort")
    return t.invalid_rest()


def _dag_table() -> TransitionTable:
    S = DAGState
    t = TransitionTable(
        "dag", S, S.NEW,
        # SUCCEEDED is quasi-terminal: the commit protocol still runs
        # (SUCCEEDED -> COMMITTING -> SUCCEEDED).
        terminals={S.FAILED, S.KILLED},
    )
    t.move("run", S.NEW, S.RUNNING)
    t.move("complete", S.RUNNING, S.SUCCEEDED)
    t.move("commit", S.SUCCEEDED, S.COMMITTING)
    t.move("committed", S.COMMITTING, S.SUCCEEDED)
    t.move("fail", S.RUNNING, S.FAILED)
    t.move("kill", S.RUNNING, S.KILLED)
    t.ignore(S.FAILED, "fail", "kill")
    t.ignore(S.KILLED, "fail", "kill")
    return t.invalid_rest()


ATTEMPT_TABLE = _attempt_table()
TASK_TABLE = _task_table()
VERTEX_TABLE = _vertex_table()
VERTEX_INIT_TABLE = _vertex_init_table()
DAG_TABLE = _dag_table()

TABLES = {
    "dag": DAG_TABLE,
    "vertex": VERTEX_TABLE,
    "vertex_init": VERTEX_INIT_TABLE,
    "task": TASK_TABLE,
    "attempt": ATTEMPT_TABLE,
}

# Cross-table contract: every trigger that drives an attempt into a
# terminal state must name its task-level consequence — the task event
# the AM fires (directly or after retry policy) when that attempt
# transition lands — or be explicitly declared consequence-free. The
# auditor (`python -m repro.tez.am.check`) verifies the attempt table
# and this map agree, so an attempt can never die terminally through a
# trigger whose task never hears about it.
ATTEMPT_CONSEQUENCES = {
    "succeed": "succeed",   # winning attempt completes its task
    "recover": "recover",   # journal replay completes task the same way
    "fail": "fail",         # exhausted retries fail the task
    "kill": "kill",         # DAG/vertex kill fans out to the task
    "discard": None,        # stale or beaten speculation sibling:
                            # deliberately consequence-free
}

# Where each table's action/guard hooks live (module, class). The
# auditor imports these and verifies every referenced hook resolves.
HANDLER_SPECS = {
    "dag": ("repro.tez.am.dag_app_master", "DAGAppMaster"),
    "vertex": ("repro.tez.am.vertex_lifecycle", "VertexLifecycle"),
    "vertex_init": ("repro.tez.am.vertex_lifecycle", "VertexLifecycle"),
    "task": ("repro.tez.am.attempt_runner", "AttemptRunner"),
    "attempt": ("repro.tez.am.attempt_runner", "AttemptRunner"),
}


class MachineSet:
    """Per-AM factory/caches for the four machine kinds.

    Machines are created lazily and stored on their subjects (the
    AM-side bookkeeping objects in ``structures.py``), so a subject's
    ``state`` attribute and its machine can never disagree.
    """

    def __init__(self, dispatcher: Optional[Dispatcher] = None):
        self.dispatcher = dispatcher
        self.handlers: dict[str, Any] = {}

    def bind(self, kind: str, handler: Any) -> None:
        self.handlers[kind] = handler

    def _machine(self, kind: str, subject: Any, subject_id: str,
                 attr: str = "state") -> StateMachine:
        return StateMachine(
            TABLES[kind], subject, subject_id, attr=attr,
            dispatcher=self.dispatcher, handler=self.handlers.get(kind),
        )

    def vertex(self, vr) -> StateMachine:
        machine = getattr(vr, "_sm", None)
        if machine is None:
            machine = self._machine(
                "vertex", vr, f"{vr.dag_id}/{vr.name}"
            )
            vr._sm = machine
        return machine

    def vertex_init(self, vr) -> StateMachine:
        machine = getattr(vr, "_init_sm", None)
        if machine is None:
            machine = self._machine(
                "vertex_init", vr, f"{vr.dag_id}/{vr.name}/init",
                attr="init_state",
            )
            vr._init_sm = machine
        return machine

    def task(self, task) -> StateMachine:
        machine = getattr(task, "_sm", None)
        if machine is None:
            machine = self._machine(
                "task", task, f"{task.vertex.dag_id}/{task.task_id}"
            )
            task._sm = machine
        return machine

    def attempt(self, attempt) -> StateMachine:
        machine = getattr(attempt, "_sm", None)
        if machine is None:
            machine = self._machine("attempt", attempt, attempt.attempt_id)
            attempt._sm = machine
        return machine

    def forget(self, subject) -> None:
        """Drop the machines cached on ``subject`` (each points back at
        it). A late event for the subject gets a fresh machine from the
        accessors above, which start from the subject's own state."""
        for attr in ("_sm", "_init_sm"):
            if getattr(subject, attr, None) is not None:
                setattr(subject, attr, None)

    def dag(self, am, dag_id: str) -> StateMachine:
        """A fresh DAG machine per execution (the AM reuses its
        ``_dag_state`` slot across a session's DAG sequence)."""
        return self._machine("dag", am, dag_id, attr="_dag_state")
