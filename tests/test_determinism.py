"""Determinism: identical runs produce identical simulated outcomes.

The DES kernel is seeded and event ordering is FIFO-stable, so any
end-to-end run — including failures, retries and shuffle error
injection — must reproduce exactly. This is what makes the benchmark
numbers in EXPERIMENTS.md stable artifacts rather than samples.
"""

from repro.engines.hive import Catalog, HiveSession
from repro.workloads import TPCH_QUERIES, generate_tpch, register_tpch

from helpers import (
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
    run_dag,
)
from repro.tez import DAG


def run_wordcount(shuffle_error_rate=0.0):
    sim = make_sim(shuffle_transient_error_rate=shuffle_error_rate)
    sim.hdfs.write("/in", [(i % 13, i) for i in range(500)],
                   record_bytes=24)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 3)
    hdfs_sink(r, "out", "/out")
    dag = DAG("det").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    status, _ = run_dag(sim, dag)
    assert status.succeeded
    return status.elapsed, tuple(sorted(sim.hdfs.read_file("/out")))


def test_identical_runs_identical_times_and_results():
    a = run_wordcount()
    b = run_wordcount()
    assert a == b


def test_determinism_survives_error_injection():
    a = run_wordcount(shuffle_error_rate=0.3)
    b = run_wordcount(shuffle_error_rate=0.3)
    assert a == b


def test_seed_changes_timing_not_results():
    def run(seed):
        sim = make_sim(seed=seed)
        sim.hdfs.write("/in", [(i % 13, i) for i in range(500)],
                       record_bytes=24)
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, sum(vs)) for k, vs in d["m"]
        ]}, 3)
        hdfs_sink(r, "out", "/out")
        dag = DAG("det").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        status, _ = run_dag(sim, dag)
        assert status.succeeded
        return status.elapsed, tuple(sorted(sim.hdfs.read_file("/out")))

    t1, rows1 = run(seed=1)
    t2, rows2 = run(seed=99)
    assert rows1 == rows2        # correctness is seed-independent


def test_chaos_fault_plan_deterministic():
    """The same DAG under the same FaultPlan seed reproduces exactly:
    completion time, AM metrics, output rows and the injection log."""
    from repro import FaultPlan

    def run():
        sim = make_sim(num_nodes=6, nodes_per_rack=3)
        sim.hdfs.write("/in", [(i % 9, i) for i in range(2_000)],
                       record_bytes=32)
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                      cpu_per_record=2e-3)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, sum(vs)) for k, vs in d["m"]
        ]}, 3, setup_seconds=4.0)
        hdfs_sink(r, "out", "/out")
        dag = DAG("chaosdet").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))

        plan = (FaultPlan(seed=23)
                .crash_node(at=4.0, restart_after=6.0)
                .slow_node(at=5.0, speed=0.5, duration=5.0)
                .drop_shuffle_output(at=3.0, pattern="/m/", count=1))
        client = sim.tez_client(session=True)
        client.start()
        controller = sim.chaos(plan, client=client)
        handle = client.submit_dag(dag)
        sim.env.run(until=handle.completion)
        status = handle.status
        assert status.succeeded, status.diagnostics
        metrics = dict(client.last_am.metrics)
        client.stop()
        return (status.elapsed, metrics,
                tuple(sorted(sim.hdfs.read_file("/out"))),
                tuple(controller.injected))

    a = run()
    b = run()
    assert a == b
    assert a[3], "plan injected nothing — scenario under-tuned"


def test_control_plane_journal_deterministic():
    """Two identical runs cross the AM dispatcher with byte-identical
    event journals: same (time, seq, type, summary) for every control
    event, which is the strong form of event-ordering determinism the
    dispatcher's sequence tiebreaker guarantees."""
    def run():
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 13, i) for i in range(500)],
                       record_bytes=24)
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, sum(vs)) for k, vs in d["m"]
        ]}, 3)
        hdfs_sink(r, "out", "/out")
        dag = DAG("jdet").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))

        client = sim.tez_client()
        journals = []
        original = client._make_am

        def instrumented(ctx):
            am = original(ctx)
            am.dispatcher.keep_journal = True
            journals.append(am.dispatcher.journal)
            return am

        client._make_am = instrumented
        handle = client.submit_dag(dag)
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded
        return [tuple(j) for j in journals]

    a = run()
    b = run()
    assert a == b
    assert a and a[0], "journal empty — dispatcher not exercised"


def test_hive_query_deterministic_end_to_end():
    def run():
        sim = make_sim()
        catalog = Catalog()
        register_tpch(catalog, sim.hdfs, generate_tpch(1))
        session = HiveSession(sim, catalog)
        result = session.run(TPCH_QUERIES["q5_volume"], backend="tez")
        session.close()
        return result.elapsed, tuple(result.rows)

    assert run() == run()


# ---------------------------- semantic selections, forced each way
#
# The scenarios are the ones pinned in tests/golden/control_plane.json;
# here each is run twice with one of the control plane's remaining
# selections forced to either side. Neither selection is an option: the
# attempt body is chosen per attempt from its descriptor classes, the
# dispatch plumbing from the DAG's task count.

import pytest

import control_plane_scenarios as scenarios
from repro.tez.am.dag_app_master import DAGAppMaster
from repro.tez.am.attempt_runner import AttemptRunner


@pytest.mark.parametrize("scenario", [
    scenarios.live_events_speculation_kill,
    scenarios.reuse_session,
])
def test_inline_attempt_body_matches_generator_pipeline(monkeypatch,
                                                        scenario):
    """Inline attempts that receive DataMovementEvents mid-flight, are
    killed by speculation, raise, or die with their node must leave
    the same makespan, rows, placements and canonical journal - record
    for record - as the generator pipeline every non-eligible attempt
    takes. (``chaos_node_crash`` has no eligible attempt - HDFS at both
    ends - so it would compare the generator path with itself.)"""
    verdicts = []
    eligible = AttemptRunner.inline_eligible

    def probe(spec):
        verdicts.append(eligible(spec))
        return verdicts[-1]

    monkeypatch.setattr(AttemptRunner, "inline_eligible",
                        staticmethod(probe))
    inline = scenario()
    monkeypatch.setattr(AttemptRunner, "inline_eligible",
                        staticmethod(lambda spec: False))
    generator = scenario()
    assert inline == generator
    assert any(verdicts), "no inline-eligible attempts"


def test_speculation_scenario_is_not_vacuous():
    _makespan, (_rows, journals) = scenarios.live_events_speculation_kill()
    flat = [line for journal in journals for line in journal]
    assert any(line[1] == "DataDeliveryEvent" for line in flat), \
        "no mid-flight deliveries"
    assert any("speculat" in line[2] or "kill" in line[2]
               for line in flat), "no speculation/kill in the journal"


def test_a_small_dag_batches_its_same_tick_exits(monkeypatch):
    """Exit batching does not depend on a DAG's size: four map tasks
    over four equal splits end on one tick and reach the AM as one
    ``AttemptBatchExitedEvent``."""
    batches = []
    on_batch = DAGAppMaster._on_attempt_batch_exited

    def probe(am, batch):
        batches.append(sorted(e.attempt.attempt_id for e in batch.exits))
        on_batch(am, batch)

    monkeypatch.setattr(DAGAppMaster, "_on_attempt_batch_exited", probe)
    sim = make_sim()
    sim.hdfs.write("/in", [(i, i) for i in range(4 * 128)], record_bytes=32)
    m = fn_vertex("m", lambda c, d: {"out": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    hdfs_sink(m, "out", "/out")
    status, _ = run_dag(sim, DAG("small").add_vertex(m))
    assert status.succeeded
    assert batches == [[f"small#1/m/t{i}_a0" for i in range(4)]]


# ------------------- journal-prefix replay determinism (hypothesis)

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.tez.am import RecoveryJournal
from repro.tez.am.state_machines import TABLES, StateMachine
from repro.tez.am.structures import AttemptState, TaskState, VertexState
from repro.tez.am.journal import DagJournalState, RecoveredTask

_WAL_CACHE: dict = {}


def recorded_wal():
    """One recorded run's full write-ahead journal (module-cached:
    hypothesis draws hundreds of prefixes from the same stream)."""
    if "records" not in _WAL_CACHE:
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 13, i) for i in range(500)],
                       record_bytes=24)
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
        hdfs_source(m, "src", ["/in"])
        r = fn_vertex("r", lambda c, d: {"out": [
            (k, sum(vs)) for k, vs in d["m"]
        ]}, 3)
        hdfs_sink(r, "out", "/out")
        dag = DAG("wal").add_vertex(m).add_vertex(r)
        dag.add_edge(edge(m, r, SG))
        client = sim.tez_client()
        handle = client.submit_dag(dag)
        sim.env.run(until=handle.completion)
        assert handle.status.succeeded
        _WAL_CACHE["records"] = client.recovery.records()
    return _WAL_CACHE["records"]


class _ReplayHandler:
    """No-op actions; guards pass (the recorded run already proved
    them — the journal only holds transitions that actually fired)."""

    def __getattr__(self, name):
        if name.startswith("vertex_") or name.endswith("_done"):
            return lambda subject: True
        return lambda subject, **ctx: None


def machine_redispatch(records):
    """Independent replay implementation: drive every journaled
    transition through fresh audited state machines (real
    ``StateMachine.fire`` against the shipped tables) and rebuild the
    recovery state from the *machines'* trajectories, not the records'
    ``to_state`` fields. Must agree with the pure fold exactly."""
    machines: dict = {}
    handler = _ReplayHandler()
    state: dict[str, DagJournalState] = {}

    def dag_state(name):
        if name not in state:
            state[name] = DagJournalState({}, set())
        return state[name]

    for record in records:
        kind = record[0]
        if kind == "transition":
            _, _, dag, mkind, key, trigger, to_state, extra = record
            mkey = (dag, mkind, key)
            sm = machines.get(mkey)
            if sm is None:
                subject = SimpleNamespace(state=TABLES[mkind].initial)
                sm = StateMachine(TABLES[mkind], subject, str(mkey),
                                  handler=handler)
                machines[mkey] = sm
            sm.fire(trigger)
            # Every journaled transition is legal from the machine's
            # current state and lands where the record says it does.
            assert sm.subject.state is to_state, (mkey, trigger)
            if mkind == "attempt" and \
                    sm.subject.state is AttemptState.SUCCEEDED:
                node_id, events = extra or ("", ())
                dag_state(dag).successes[key[0], key[1]] = RecoveredTask(
                    tuple(events), node_id, key[2]
                )
            elif mkind == "task" and trigger == "restart":
                dag_state(dag).successes.pop((key[0], key[1]), None)
            elif mkind == "vertex":
                if sm.subject.state is VertexState.SUCCEEDED:
                    dag_state(dag).completed_vertices.add(key)
                elif trigger == "reactivate":
                    dag_state(dag).completed_vertices.discard(key)
            elif mkind == "dag" and trigger == "run":
                dag_state(dag).finished = False
        elif kind == "dag_finished":
            s = dag_state(record[2])
            s.finished = True
            s.successes.clear()
            s.completed_vertices.clear()
        elif kind == "checkpoint":
            state = {name: s.copy() for name, s in record[2].items()}
    return state


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_random_journal_prefix_fold_matches_machine_redispatch(data):
    records = recorded_wal()
    n = data.draw(st.integers(min_value=0, max_value=len(records)),
                  label="prefix_length")
    prefix = records[:n]
    folded = RecoveryJournal.fold(prefix)
    # Pure and deterministic: same prefix, same state, every time.
    assert folded == RecoveryJournal.fold(list(prefix))
    # And identical to re-dispatching the prefix through fresh audited
    # state machines.
    assert folded == machine_redispatch(prefix)


def test_full_journal_fold_matches_final_run_state():
    records = recorded_wal()
    # Before the finish marker the fold holds every task of the DAG.
    cut = next(i for i, r in enumerate(records)
               if r[0] == "dag_finished")
    live = RecoveryJournal.fold(records[:cut])["wal"]
    task_keys = {
        (r[4][0], r[4][1]) for r in records[:cut]
        if r[0] == "transition" and r[3] == "task"
    }
    assert set(live.successes) == task_keys
    assert live.completed_vertices == {"m", "r"}
    for (vertex, index), rt in live.successes.items():
        assert rt.node_id
        assert rt.attempt_number >= 0
        if vertex == "m":               # non-leaf: routed output events
            assert rt.events
    # After the marker the DAG is retired wholesale.
    final = RecoveryJournal.fold(records)["wal"]
    assert final.finished
    assert final.successes == {}
