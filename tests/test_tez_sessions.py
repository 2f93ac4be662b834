"""Session, client and recovery-journal behaviour (paper 4.2/4.3)."""

from types import SimpleNamespace

import pytest

from repro.tez import TezConfig
from repro.tez.am import RecoveredTask, RecoveryJournal
from repro.tez.am.dispatcher import StateTransitionEvent
from repro.tez.am.structures import AttemptState, TaskState
from repro.yarn import FinalApplicationStatus

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


def small_dag(name, out):
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, len(vs)) for k, vs in d["m"]
    ]}, 2)
    hdfs_sink(r, "out", out)
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


def fake_vertex_runtime(dag_id, vertex):
    return SimpleNamespace(dag_id=dag_id, dag_name=dag_id.split("#")[0],
                           name=vertex)


def attempt_success_event(dag_id="d#1", vertex="v", index=0, number=0,
                          node="node1", events=("ev",)):
    """A fabricated attempt SUCCEEDED transition, shaped like what the
    dispatcher hands the journal at enqueue time."""
    vr = fake_vertex_runtime(dag_id, vertex)
    task = SimpleNamespace(vertex=vr, index=index)
    attempt = SimpleNamespace(
        task=task, number=number, node_id=node,
        _pending_success_events=list(events),
    )
    return StateTransitionEvent(
        machine="attempt", subject_id=f"{vertex}/t{index}_a{number}",
        from_state=AttemptState.RUNNING, to_state=AttemptState.SUCCEEDED,
        trigger="succeed", subject=attempt,
    )


def task_restart_event(dag_id="d#1", vertex="v", index=0):
    vr = fake_vertex_runtime(dag_id, vertex)
    task = SimpleNamespace(vertex=vr, index=index)
    return StateTransitionEvent(
        machine="task", subject_id=f"{vertex}/t{index}",
        from_state=TaskState.SUCCEEDED, to_state=TaskState.RUNNING,
        trigger="restart", subject=task,
    )


class TestRecoveryJournal:
    def test_success_transition_folds_into_recovery_state(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        assert journal.successes("d") == {
            ("v", 0): RecoveredTask(("ev",), "node1", 0)
        }

    def test_restart_transition_revokes_success(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        journal.record(epoch, task_restart_event())
        assert journal.successes("d") == {}

    def test_dag_finished_clears(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        journal.record_dag_finished("d", epoch=epoch)
        assert journal.dag_finished("d")
        assert journal.successes("d") == {}

    def test_independent_dags(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event(dag_id="a#1"))
        journal.record(epoch, attempt_success_event(dag_id="b#1", index=1))
        assert ("v", 0) in journal.successes("a")
        assert ("v", 0) not in journal.successes("b")

    def test_stale_epoch_appends_are_fenced(self):
        journal = RecoveryJournal()
        zombie = journal.open_epoch()
        journal.open_epoch()            # restarted AM claims the journal
        journal.record(zombie, attempt_success_event())
        assert journal.successes("d") == {}
        assert journal.fenced_appends == 1
        journal.record_dag_finished("d", epoch=zombie)
        assert not journal.dag_finished("d")
        assert journal.fenced_appends == 2

    def test_self_fence_blocks_crashing_writer(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.fence(epoch)            # am.crash() fences its own epoch
        journal.record(epoch, attempt_success_event())
        assert journal.successes("d") == {}
        assert journal.fenced_appends == 1

    def test_checkpoint_compaction_bounds_log_and_preserves_state(self):
        journal = RecoveryJournal(checkpoint_interval=8)
        epoch = journal.open_epoch()
        for i in range(50):
            journal.record(epoch, attempt_success_event(index=i))
        assert journal.checkpoints >= 5
        assert len(journal) <= 8
        recovered = journal.successes("d")
        assert len(recovered) == 50
        assert recovered[("v", 17)] == RecoveredTask(("ev",), "node1", 0)

    def test_fold_is_pure_and_reusable(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        records = journal.records()
        a = RecoveryJournal.fold(records)
        b = RecoveryJournal.fold(records)
        assert a == b
        assert a["d"].successes == journal.successes("d")


class TestSessionLifecycle:
    def test_session_runs_many_dags_in_one_app(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        client = sim.tez_client(session=True)
        statuses = []
        for i in range(3):
            status, _ = run_dag(sim, small_dag(f"d{i}", f"/o{i}"),
                                client=client)
            statuses.append(status)
        client.stop()
        assert all(s.succeeded for s in statuses)
        # One application served everything.
        assert client._app_handle is not None
        sim.env.run(until=sim.env.now + 120)
        assert client._app_handle.final_status == \
            FinalApplicationStatus.SUCCEEDED

    def test_submit_after_stop_rejected(self):
        sim = make_sim()
        client = sim.tez_client(session=True)
        client.start()
        client.stop()
        with pytest.raises(RuntimeError):
            client.submit_dag(small_dag("late", "/o"))

    def test_prewarm_requires_session(self):
        sim = make_sim()
        client = sim.tez_client(session=False)
        with pytest.raises(RuntimeError):
            client.prewarm(2)

    def test_failed_dag_does_not_kill_session(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(1, 1)], record_bytes=16)
        client = sim.tez_client(
            session=True, config=TezConfig(max_task_attempts=1),
        )

        def boom(ctx, data):
            raise RuntimeError("nope")

        bad_m = fn_vertex("m", boom, -1)
        hdfs_source(bad_m, "src", ["/in"])
        hdfs_sink(bad_m, "out", "/bad")
        bad = DAG("bad").add_vertex(bad_m)
        status_bad, _ = run_dag(sim, bad, client=client)
        assert not status_bad.succeeded
        # The session survives and runs the next DAG fine.
        status_ok, _ = run_dag(sim, small_dag("ok", "/ok"),
                               client=client)
        assert status_ok.succeeded
        client.stop()

    def test_idle_session_releases_containers_eventually(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        config = TezConfig(session_idle_timeout=20.0)
        client = sim.tez_client(session=True, config=config)
        status, _ = run_dag(sim, small_dag("d", "/o"), client=client)
        assert status.succeeded
        sim.env.run(until=sim.env.now + 60)
        am = client.last_am
        assert am.scheduler.held_containers() == 0
        client.stop()

    def test_non_session_apps_are_independent(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        client = sim.tez_client(session=False)
        s1, _ = run_dag(sim, small_dag("a", "/a"), client=client)
        s2, _ = run_dag(sim, small_dag("b", "/b"), client=client)
        assert s1.succeeded and s2.succeeded
        # No cross-DAG reuse without a session: both paid launches.
        assert s1.metrics["containers_launched"] >= 1
        assert s2.metrics["containers_launched"] >= 1
