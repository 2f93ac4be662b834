"""The AM control plane: transition tables, dispatcher, auditor, and
the telemetry invariant (span state == machine state, always)."""

import enum
from types import SimpleNamespace

import pytest

from repro.sim import Environment
from repro.tez import DAG
from repro.tez.am import (
    AttemptState,
    ControlEvent,
    DAGState,
    Dispatcher,
    InvalidStateTransition,
    StateMachine,
    StateTransitionEvent,
    TABLES,
    TaskState,
    UnhandledEventError,
    VertexState,
)
from repro.tez.am.check import audit_all, audit_cross_table, audit_table
from repro.tez.am.state_machines import (
    ATTEMPT_CONSEQUENCES,
    TransitionTable,
)

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
)


class _StubHandler:
    """Accepts every action (no-op) and every guard (True)."""

    def __getattr__(self, name):
        if name.startswith("vertex_") or name.endswith("_done"):
            return lambda subject: True
        return lambda subject, **ctx: None


def machine_for(kind, state):
    table = TABLES[kind]
    subject = SimpleNamespace(state=state)
    return StateMachine(table, subject, f"{kind}-under-test",
                        handler=_StubHandler())


# ---------------------------------------------------------------- tables

def legal_moves():
    for kind, table in TABLES.items():
        for tr in table.transitions:
            for source in tr.sources:
                yield pytest.param(
                    kind, source, tr.event, tr.target,
                    id=f"{kind}:{source.value}-{tr.event}",
                )


@pytest.mark.parametrize("kind,source,event,target", legal_moves())
def test_every_legal_transition_moves_state(kind, source, event, target):
    sm = machine_for(kind, source)
    assert sm.can(event)
    assert sm.fire(event) == target
    assert sm.state == target


ILLEGAL = [
    ("attempt", AttemptState.NEW, "succeed"),
    ("attempt", AttemptState.NEW, "launch"),
    ("attempt", AttemptState.QUEUED, "succeed"),
    ("attempt", AttemptState.RUNNING, "recover"),
    ("attempt", AttemptState.RUNNING, "schedule"),
    ("task", TaskState.NEW, "launch"),
    ("task", TaskState.NEW, "succeed"),
    ("task", TaskState.SCHEDULED, "succeed"),
    ("task", TaskState.SUCCEEDED, "succeed"),
    ("task", TaskState.FAILED, "restart"),
    ("vertex", VertexState.NEW, "start"),
    ("vertex", VertexState.NEW, "complete"),
    ("vertex", VertexState.INITED, "complete"),
    ("vertex", VertexState.RUNNING, "init"),
    ("vertex", VertexState.KILLED, "start"),
    ("dag", DAGState.NEW, "complete"),
    ("dag", DAGState.NEW, "commit"),
    ("dag", DAGState.RUNNING, "committed"),
    ("dag", DAGState.SUCCEEDED, "run"),
]


@pytest.mark.parametrize(
    "kind,state,event", ILLEGAL,
    ids=[f"{k}:{s.value}-{e}" for k, s, e in ILLEGAL],
)
def test_illegal_transitions_raise(kind, state, event):
    sm = machine_for(kind, state)
    assert not sm.can(event)
    with pytest.raises(InvalidStateTransition):
        sm.fire(event)
    assert sm.state == state    # no partial move


def test_unknown_event_is_invalid():
    sm = machine_for("task", TaskState.NEW)
    with pytest.raises(InvalidStateTransition):
        sm.fire("frobnicate")


def test_terminal_states_absorb_late_events():
    """A kill racing a success is routine; no exception, no move, no
    transition event on the bus."""
    env = Environment()
    bus = Dispatcher(env)
    seen = []
    bus.register(StateTransitionEvent, seen.append)
    table = TABLES["attempt"]
    subject = SimpleNamespace(state=AttemptState.SUCCEEDED)
    sm = StateMachine(table, subject, "a", dispatcher=bus,
                      handler=_StubHandler())
    for event in ("kill", "discard", "succeed", "fail"):
        assert sm.fire(event) == AttemptState.SUCCEEDED
    assert seen == []


def test_guard_rejection_blocks_transition():
    class Unready:
        def vertex_all_tasks_done(self, subject):
            return False

    sm = StateMachine(TABLES["vertex"],
                      SimpleNamespace(state=VertexState.RUNNING),
                      "v", handler=Unready())
    with pytest.raises(InvalidStateTransition):
        sm.fire("complete")
    assert sm.state == VertexState.RUNNING


def test_fire_announces_on_dispatcher():
    env = Environment()
    bus = Dispatcher(env)
    seen = []
    bus.register(StateTransitionEvent, seen.append)
    sm = StateMachine(TABLES["task"], SimpleNamespace(state=TaskState.NEW),
                      "d/t0", dispatcher=bus, handler=_StubHandler())
    sm.fire("schedule")
    sm.fire("launch")
    assert [(e.from_state, e.to_state, e.trigger) for e in seen] == [
        (TaskState.NEW, TaskState.SCHEDULED, "schedule"),
        (TaskState.SCHEDULED, TaskState.RUNNING, "launch"),
    ]
    assert all(e.machine == "task" and e.subject_id == "d/t0"
               for e in seen)


# --------------------------------------------------------------- auditor

def test_shipped_tables_are_sound():
    report, problems = audit_all()
    assert problems == []
    # One line per table plus the cross-table consequence summary.
    assert len(report) == len(TABLES) + 1


class _Toy(enum.Enum):
    A = "a"
    B = "b"
    C = "c"


def test_auditor_flags_unreachable_state_and_gaps():
    table = TransitionTable("toy", _Toy, _Toy.A, terminals={_Toy.B})
    table.move("go", _Toy.A, _Toy.B)
    # _Toy.C is never a target and (C, go) / (B, go) cells are missing.
    problems = audit_table(table)
    assert any("unreachable" in p for p in problems)
    assert any("unspecified cell" in p for p in problems)


def test_auditor_flags_leaky_terminal():
    table = TransitionTable("toy", _Toy, _Toy.A, terminals={_Toy.B})
    table.move("go", _Toy.A, _Toy.B)
    table.move("leak", _Toy.B, _Toy.C)      # terminal must absorb
    table.invalid_rest()
    problems = audit_table(table)
    assert any("terminal state b has outgoing" in p for p in problems)


def test_auditor_flags_missing_hook():
    class Handler:
        pass

    table = TransitionTable("toy", _Toy, _Toy.A, terminals={_Toy.C})
    table.move("go", _Toy.A, _Toy.B, action="act_missing")
    table.move("on", _Toy.B, _Toy.C, guard="guard_missing")
    table.invalid_rest()
    problems = audit_table(table, Handler)
    assert any("action 'act_missing'" in p for p in problems)
    assert any("guard 'guard_missing'" in p for p in problems)


def test_auditor_accepts_sound_toy_table():
    class Handler:
        def act_go(self, subject, **ctx):
            pass

    table = TransitionTable("toy", _Toy, _Toy.A, terminals={_Toy.C})
    table.move("go", _Toy.A, _Toy.B, action="act_go")
    table.move("on", _Toy.B, _Toy.C)
    table.ignore(_Toy.C, "go", "on")
    table.invalid_rest()
    assert audit_table(table, Handler) == []


def test_cross_table_shipped_consequences_are_sound():
    assert audit_cross_table() == []
    # Every attempt trigger reaching a terminal state is in the map.
    attempt = TABLES["attempt"]
    terminal_triggers = {
        tr.event for tr in attempt.transitions
        if tr.target in attempt.terminals
    }
    assert terminal_triggers == set(ATTEMPT_CONSEQUENCES)


def _toy_attempt_table():
    table = TransitionTable("attempt", _Toy, _Toy.A, terminals={_Toy.C})
    table.move("finish", _Toy.A, _Toy.C)
    table.move("step", _Toy.A, _Toy.B)
    table.invalid_rest()
    return table


def _toy_task_table():
    table = TransitionTable("task", _Toy, _Toy.A, terminals={_Toy.C})
    table.move("finish", _Toy.A, _Toy.C)
    table.invalid_rest()
    return table


def test_cross_table_flags_undeclared_terminal_trigger():
    problems = audit_cross_table(
        _toy_attempt_table(), _toy_task_table(), consequences={},
    )
    assert any("declares no task-level consequence" in p
               for p in problems)


def test_cross_table_flags_consequence_missing_from_task_table():
    problems = audit_cross_table(
        _toy_attempt_table(), _toy_task_table(),
        consequences={"finish": "vanish"},
    )
    assert any("no transition in the task table" in p for p in problems)


def test_cross_table_flags_stale_map_entry():
    problems = audit_cross_table(
        _toy_attempt_table(), _toy_task_table(),
        consequences={"finish": "finish", "step": "finish"},
    )
    assert any("no attempt transition with that trigger" in p
               for p in problems)


def test_cross_table_accepts_explicit_none_consequence():
    assert audit_cross_table(
        _toy_attempt_table(), _toy_task_table(),
        consequences={"finish": None},
    ) == []


def test_check_cli_exits_clean(tmp_path, capsys):
    from repro.tez.am.check import main

    report = tmp_path / "am-check.txt"
    assert main(["--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "ok: all transition tables sound" in out
    assert "ok: all transition tables sound" in report.read_text()


def test_check_cli_dot_export(tmp_path, capsys):
    from repro.tez.am.check import main

    dot = tmp_path / "control-plane.dot"
    assert main(["--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph control_plane {")
    assert text.rstrip().endswith("}")
    for kind, table in TABLES.items():
        assert f"subgraph cluster_{kind}" in text
        initial = getattr(table.initial, "value", str(table.initial))
        assert f'"{kind}.{initial}"' in text
    # Terminal states render doubled; some transition carries a guard.
    assert "peripheries=2" in text
    assert "[" in text and "->" in text
    assert f"dot: wrote {dot}" in capsys.readouterr().out


def test_check_cli_rejects_unknown_flag(capsys):
    from repro.tez.am.check import main

    assert main(["--bogus"]) == 2


# ------------------------------------------------------------ dispatcher

class _Ping(ControlEvent):
    def __init__(self, tag):
        super().__init__()
        self.tag = tag


def test_dispatch_after_same_timestamp_fifo():
    env = Environment()
    bus = Dispatcher(env)
    order = []
    bus.register(_Ping, lambda e: order.append(e.tag))
    for tag in ("a", "b", "c", "d"):
        bus.dispatch_after(1.0, _Ping(tag))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_nested_dispatch_runs_to_completion_in_enqueue_order():
    env = Environment()
    bus = Dispatcher(env)
    order = []

    def handler(e):
        order.append(e.tag)
        if e.tag == "root":
            bus.dispatch(_Ping("child1"))
            bus.dispatch(_Ping("child2"))

    bus.register(_Ping, handler)
    bus.dispatch(_Ping("root"))
    assert order == ["root", "child1", "child2"]
    assert bus.dispatched == 3


def test_unhandled_event_raises_unless_ignored():
    env = Environment()
    bus = Dispatcher(env)
    with pytest.raises(UnhandledEventError):
        bus.dispatch(_Ping("orphan"))
    bus.ignore(_Ping)
    bus.dispatch(_Ping("orphan"))   # now a legal drop


def test_journal_records_time_seq_and_summary():
    env = Environment()
    bus = Dispatcher(env, name="t")
    bus.keep_journal = True
    bus.ignore(_Ping)
    bus.register(StateTransitionEvent, lambda e: None)
    sm = StateMachine(TABLES["task"], SimpleNamespace(state=TaskState.NEW),
                      "d/t0", dispatcher=bus, handler=_StubHandler())
    sm.fire("schedule")
    bus.dispatch(_Ping("x"))
    times, seqs, names, summaries = zip(*bus.journal)
    assert seqs == (0, 1)
    assert names == ("StateTransitionEvent", "_Ping")
    assert "task:d/t0" in summaries[0]
    assert "on schedule" in summaries[0]


# ------------------------------------------------- write-ahead journaling

def test_wal_append_precedes_handler_delivery():
    from repro.tez.am import RecoveryJournal

    env = Environment()
    bus = Dispatcher(env)
    journal = RecoveryJournal()
    bus.attach_journal(journal, journal.open_epoch())
    seen = []
    bus.register(_Ping, lambda e: seen.append(len(journal.records())))
    bus.dispatch(_Ping("a"))
    # The record was durable before the handler ran (write-ahead).
    assert seen == [1]


def test_fenced_dispatcher_appends_are_rejected():
    from repro.tez.am import RecoveryJournal

    env = Environment()
    journal = RecoveryJournal()
    bus = Dispatcher(env)
    bus.attach_journal(journal, journal.open_epoch())
    journal.open_epoch()            # successor AM claims the journal
    bus.register(_Ping, lambda e: None)
    bus.dispatch(_Ping("stale"))    # zombie writer: append rejected
    assert journal.fenced_appends == 1
    assert journal.records() == []


def test_halt_freezes_the_bus():
    env = Environment()
    bus = Dispatcher(env)
    order = []

    def handler(e):
        order.append(e.tag)
        if e.tag == "root":
            bus.dispatch(_Ping("child"))
            bus.halt()
            bus.dispatch(_Ping("late"))

    bus.register(_Ping, handler)
    bus.dispatch(_Ping("root"))
    bus.dispatch(_Ping("post"))
    assert order == ["root"]        # queued and future events dropped
    assert bus.halted


def test_halt_after_fires_at_exact_event_boundary():
    env = Environment()
    bus = Dispatcher(env)
    fired = []
    bus.register(_Ping, lambda e: None)
    bus.halt_after(2, lambda: fired.append(bus.dispatched))
    bus.dispatch(_Ping("a"))
    assert fired == []
    bus.dispatch(_Ping("b"))
    assert fired == [2]
    bus.dispatch(_Ping("c"))        # armed once, not re-fired
    assert fired == [2]


# ------------------------------------------- full-DAG telemetry invariant

def _wordcount(sim, name="cp"):
    sim.hdfs.write("/in", [(i % 7, i) for i in range(400)],
                   record_bytes=24)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 2)
    hdfs_sink(r, "out", f"/out/{name}")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def test_full_dag_span_state_equals_machine_state():
    """At every transition the telemetry span's ``state`` attribute
    must already equal the live machine state — the AM's own observer
    runs first, so a later observer must never see them disagree."""
    sim = make_sim()
    dag = _wordcount(sim)
    client = sim.tez_client()
    seen = []
    mismatches = []

    def observer(event):
        seen.append((event.machine, event.trigger))
        am = client.last_am
        if event.machine == "dag":
            span, state = am._dag_span, am._dag_state
        else:
            span = getattr(event.subject, "telemetry_span", None)
            state = event.subject.state
        if span is not None and not span.finished:
            if span.attrs.get("state") != state.value:
                mismatches.append(
                    (event.machine, event.subject_id,
                     span.attrs.get("state"), state.value)
                )

    original = client._make_am

    def instrumented(ctx):
        am = original(ctx)
        am.dispatcher.register(StateTransitionEvent, observer)
        return am

    client._make_am = instrumented
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert mismatches == []
    machines = {m for m, _ in seen}
    assert machines == {"dag", "vertex", "vertex_init", "task", "attempt"}
    # Every task ran: schedule+launch+succeed per attempt at minimum.
    assert len(seen) > 20
    assert client.last_am.dispatcher.dispatched >= len(seen)


def test_full_dag_transitions_all_legal_per_table():
    """Replaying the observed transition stream against the tables
    must find every move declared (the machines can't cheat)."""
    sim = make_sim()
    dag = _wordcount(sim, name="cp2")
    client = sim.tez_client()
    stream = []

    original = client._make_am

    def instrumented(ctx):
        am = original(ctx)
        am.dispatcher.register(
            StateTransitionEvent,
            lambda e: stream.append(
                (e.machine, e.from_state, e.trigger, e.to_state)
            ),
        )
        return am

    client._make_am = instrumented
    handle = client.submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded
    for machine, source, trigger, target in stream:
        cell = TABLES[machine].cell(source, trigger)
        assert isinstance(cell, list), (machine, source, trigger)
        assert any(t.target == target for t in cell)


# ------------------------------------------- composite DMEs & coalescing

def test_composite_dme_expansion_matches_per_partition_events():
    from repro.tez.events import (
        CompositeDataMovementEvent,
        DataMovementEvent,
    )

    comp = CompositeDataMovementEvent(
        source_vertex="m", source_task_index=3, source_output_start=0,
        count=4, payloads=("p0", "p1", "p2", "p3"), version=1,
    )
    expanded = comp.expand()
    assert len(expanded) == 4
    for offset, sub in enumerate(expanded):
        assert isinstance(sub, DataMovementEvent)
        assert sub.source_vertex == "m"
        assert sub.source_task_index == 3
        assert sub.source_output_index == offset
        assert sub.payload == f"p{offset}"
        assert sub.version == 1
    assert [comp.sub_event(i).payload for i in range(4)] == \
        [sub.payload for sub in expanded]

    # Shared-payload form (real Tez's shape): every partition sees it.
    shared = CompositeDataMovementEvent(
        source_vertex="m", source_task_index=0, source_output_start=2,
        count=3, payload="spill",
    )
    assert [shared.payload_for(i) for i in range(3)] == ["spill"] * 3
    assert [s.source_output_index for s in shared.expand()] == [2, 3, 4]


def test_delivery_batch_journals_each_member():
    """A DataDeliveryBatchEvent crosses the bus once (one dispatch)
    but the journal expands it to one canonical line per member, each
    named DataDeliveryEvent with the batch's timestamp."""
    from repro.tez.am.dispatcher import (
        DataDeliveryBatchEvent,
        DataDeliveryEvent,
    )
    from repro.tez.events import DataMovementEvent

    env = Environment()
    bus = Dispatcher(env)
    bus.keep_journal = True
    bus.ignore(DataDeliveryBatchEvent)
    attempt = SimpleNamespace(attempt_id="d/v/t0/a0")
    batch = DataDeliveryBatchEvent(deliveries=[
        DataDeliveryEvent(attempt, DataMovementEvent(
            source_vertex="m", source_task_index=t,
            source_output_index=0, payload=None,
        )) for t in range(3)
    ])
    bus.dispatch(batch)
    assert bus.dispatched == 1
    assert len(bus.journal) == 3
    assert [name for (_, _, name, _) in bus.journal] == \
        ["DataDeliveryEvent"] * 3
    assert [summary for (*_, summary) in bus.journal] == [
        f"d/v/t0/a0 <- m:{t}:0v0" for t in range(3)
    ]
    canonical = bus.canonical_journal()
    assert canonical == [(0.0, "DataDeliveryEvent",
                          f"d/v/t0/a0 <- m:{t}:0v0") for t in range(3)]
