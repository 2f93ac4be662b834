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

Machines do not read the authored grid. Each table is compiled once,
when its grid is complete, into one row per state keyed by the
member's name (:meth:`TransitionTable.compile`), so a transition is
one probe of a row to a precomputed :class:`Move`. An AM binds one
:class:`StateMachine` per table (:class:`MachineSet`), and a machine
drives whichever subject it is handed: nothing is cached per subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

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
    "IGNORED",
    "Move",
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


IGNORED = object()      # cell marker: legal no-op
_INVALID = object()     # cell marker: explicitly illegal

# `fire` allocates its StateTransitionEvent without a constructor
# frame and fills the slots itself.
_new_event = object.__new__


@dataclass(frozen=True)
class Transition:
    """One edge of a state machine."""

    event: str
    sources: tuple
    target: Any
    action: Optional[str] = None    # handler method: action(subject, **ctx)
    guard: Optional[str] = None     # handler method: guard(subject) -> bool


class Move(NamedTuple):
    """One compiled transition of a cell: the first of the cell's
    transitions, and in ``otherwise`` the rest of them, tried in order
    when ``guard`` rejects (``None``: no transition left)."""

    target: Any
    action: Optional[str]
    guard: Optional[str]
    otherwise: Optional["Move"]


class TransitionTable:
    """A complete machine: states, events, and a total cell grid.

    Authored cell by cell (``move`` / ``ignore`` / ``invalid_rest``)
    and read back through ``cell`` and ``is_total``; machines read the
    compiled form instead (:meth:`compile`), built once when the grid
    is complete."""

    def __init__(self, kind: str, states, initial, terminals):
        self.kind = kind
        self.states = tuple(states)
        self.initial = initial
        self.terminals = frozenset(terminals)
        self.transitions: list[Transition] = []
        self.events: list[str] = []
        # (state, event) -> list[Transition] | IGNORED | _INVALID
        self._cells: dict[tuple[Any, str], Any] = {}
        self._rows: Optional[dict[str, dict[str, Any]]] = None

    # ------------------------------------------------------- authoring
    def _event(self, event: str) -> None:
        self._rows = None
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
            if cell in (IGNORED, _INVALID):
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
            self._cells[(state, event)] = IGNORED
        return self

    def invalid_rest(self) -> "TransitionTable":
        """Explicitly mark every remaining cell illegal (the authorial
        default of Tez's StateMachineFactory). The grid is complete:
        compile it."""
        for state in self.states:
            for event in self.events:
                self._cells.setdefault((state, event), _INVALID)
        self.compile()
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

    def compile(self) -> dict[str, dict[str, Any]]:
        """The grid as rows: ``state._name_ -> {event: Move | IGNORED}``.

        A row is keyed by the member's name, a ``str`` whose hash is
        cached in C, so a lookup runs no ``Enum.__hash__``. An invalid
        cell, and an event the table does not know, is absent from its
        row. Built on first use and kept until the table is authored
        again."""
        rows = self._rows
        if rows is None:
            rows = {state._name_: {} for state in self.states}
            for (state, event), cell in self._cells.items():
                if cell is _INVALID:
                    continue
                if cell is IGNORED:
                    move = IGNORED
                else:
                    move = None
                    for transition in reversed(cell):
                        move = Move(transition.target, transition.action,
                                    transition.guard, move)
                rows.setdefault(state._name_, {})[event] = move
            self._rows = rows
        return rows


class StateMachine:
    """One table bound to a dispatcher and to the component that owns
    its action and guard hooks. It drives any subject of its kind: the
    subject's ``attr`` holds the state and its ``id_attr`` the id a
    transition is announced under, so no machine is kept per subject.
    """

    __slots__ = ("table", "kind", "rows", "attr", "id_attr", "dispatcher",
                 "handler")

    def __init__(
        self,
        table: TransitionTable,
        attr: str = "state",
        id_attr: str = "machine_id",
        dispatcher: Optional[Dispatcher] = None,
        handler: Any = None,
    ):
        self.table = table
        self.kind = table.kind
        self.rows = table.compile()
        self.attr = attr
        self.id_attr = id_attr
        self.dispatcher = dispatcher
        self.handler = handler

    def can(self, subject, event: str) -> bool:
        row = self.rows[getattr(subject, self.attr)._name_]
        return row.get(event).__class__ is Move

    def fire(self, subject, event: str, **ctx):
        """Apply ``event`` to ``subject``: validate, move state,
        announce, run action.

        Returns the (possibly unchanged) state. Raises
        :class:`InvalidStateTransition` for cells declared invalid,
        events unknown to the table, and cells whose every guard
        rejects.
        """
        attr = self.attr
        state = getattr(subject, attr)
        move = self.rows[state._name_].get(event)
        if move.__class__ is not Move:
            if move is IGNORED:
                return state
            raise InvalidStateTransition(
                f"{self.kind} {getattr(subject, self.id_attr)}: event "
                f"{event!r} is illegal in state {state._value_}"
            )
        target, action, guard, otherwise = move
        while guard is not None and \
                not getattr(self.handler, guard)(subject):
            if otherwise is None:
                raise InvalidStateTransition(
                    f"{self.kind} {getattr(subject, self.id_attr)}: every "
                    f"guard rejected event {event!r} in state "
                    f"{state._value_}"
                )
            target, action, guard, otherwise = otherwise
        setattr(subject, attr, target)
        dispatcher = self.dispatcher
        if dispatcher is not None:
            announced = _new_event(StateTransitionEvent)
            announced.machine = self.kind
            announced.subject_id = getattr(subject, self.id_attr)
            announced.from_state = state
            announced.to_state = target
            announced.trigger = event
            announced.subject = subject
            dispatcher.dispatch(announced)
        if action is not None and self.handler is not None:
            getattr(self.handler, action)(subject, **ctx)
        return target


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
    """An AM's five machines, one per table, bound to its dispatcher
    and to the component that owns each table's hooks. A subject holds
    its own state and id (``structures.py``); the DAG machine's subject
    is the AM, whose ``_dag_state`` slot is reused across a session's
    DAG sequence."""

    __slots__ = ("dag", "vertex", "vertex_init", "task", "attempt")

    def __init__(self, dispatcher: Optional[Dispatcher], *, dag: Any,
                 vertex: Any, vertex_init: Any, task: Any, attempt: Any):
        self.dag = StateMachine(DAG_TABLE, "_dag_state", "_dag_id",
                                dispatcher, dag)
        self.vertex = StateMachine(VERTEX_TABLE, "state", "machine_id",
                                   dispatcher, vertex)
        self.vertex_init = StateMachine(
            VERTEX_INIT_TABLE, "init_state", "init_machine_id",
            dispatcher, vertex_init,
        )
        self.task = StateMachine(TASK_TABLE, "state", "machine_id",
                                 dispatcher, task)
        self.attempt = StateMachine(ATTEMPT_TABLE, "state", "attempt_id",
                                    dispatcher, attempt)
