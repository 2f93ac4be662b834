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


def successes(journal, dag):
    state = journal.dags.get(dag)
    return state.successes if state is not None else {}




class TestRecoveryJournal:
    def test_success_transition_folds_into_recovery_state(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        assert successes(journal, "d") == {
            ("v", 0): RecoveredTask(("ev",), "node1", 0)
        }

    def test_restart_transition_revokes_success(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        journal.record(epoch, task_restart_event())
        assert successes(journal, "d") == {}

    def test_dag_finished_clears(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event())
        assert "d" in journal.dags
        journal.record_dag_finished("d", epoch=epoch)
        assert journal.dags == {}
        assert len(journal) == 2

    def test_independent_dags(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.record(epoch, attempt_success_event(dag_id="a#1"))
        journal.record(epoch, attempt_success_event(dag_id="b#1", index=1))
        assert ("v", 0) in successes(journal, "a")
        assert ("v", 0) not in successes(journal, "b")

    def test_stale_epoch_appends_are_fenced(self):
        journal = RecoveryJournal()
        zombie = journal.open_epoch()
        live = journal.open_epoch()     # restarted AM claims the journal
        journal.record(zombie, attempt_success_event())
        assert successes(journal, "d") == {}
        assert journal.fenced_appends == 1
        journal.record(live, attempt_success_event())
        journal.record_dag_finished("d", epoch=zombie)
        # The stale finish marker drops nothing.
        assert ("v", 0) in successes(journal, "d")
        assert journal.fenced_appends == 2

    def test_self_fence_blocks_crashing_writer(self):
        journal = RecoveryJournal()
        epoch = journal.open_epoch()
        journal.fence(epoch)            # am.crash() fences its own epoch
        journal.record(epoch, attempt_success_event())
        assert successes(journal, "d") == {}
        assert journal.fenced_appends == 1


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
        assert client.coordinator.shard(0).app_handle is not None
        sim.env.run(until=sim.env.now + 120)
        assert client.coordinator.shard(0).app_handle.final_status == \
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
        assert len(am.scheduler.slots) == 0
        client.stop()

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="_idle_reaper counts a held container's idle time from "
               "before the DAG started against container_idle_timeout "
               "(ROADMAP: the session's idle reaper)")
    def test_warm_containers_outlive_the_dags_first_reaper_tick(self):
        """Containers that waited in the session longer than
        ``container_idle_timeout`` (but under ``session_idle_timeout``)
        are the session's warm pool: the DAG that arrives should find
        them, not lose them at its first 1 s reaper tick."""
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        config = TezConfig()
        client = sim.tez_client(session=True, config=config)
        client.start()
        client.prewarm(4)
        sim.env.run(until=sim.env.now + 30.0)
        scheduler = client.last_am.scheduler
        idle_for = [sim.env.now - slot.idle_since
                    for slot in scheduler.slots.values()]
        # Not AssertionError: a broken set-up must fail the test, not
        # pass as the expected failure.
        if len(idle_for) != 4 or not all(
                config.container_idle_timeout < t
                < config.session_idle_timeout for t in idle_for):
            raise RuntimeError(f"set-up: idle for {idle_for}")
        released = scheduler.registry.counter(
            "scheduler.containers_released").value
        # The map task's 3 s set-up spans the DAG's first ticks while
        # the other warm containers wait for the reducers.
        dag = small_dag("d", "/o")
        dag.vertices["m"].processor.payload["setup_seconds"] = 3.0
        dag.vertices["r"].parallelism = 3
        status, _ = run_dag(sim, dag, client=client)
        if not status.succeeded:
            raise RuntimeError(status.diagnostics)
        assert scheduler.registry.counter(
            "scheduler.containers_released").value == released
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


def slow_reduce_dag(name, out):
    """``small_dag`` whose reducers take 5 s to set up: a window in
    which the AM can die mid-DAG."""
    dag = small_dag(name, out)
    dag.vertices["r"].processor.payload["setup_seconds"] = 5.0
    return dag


def crash_am_mid_dag(sim, client, dag_name):
    """Crash the client's AM once the maps of ``dag_name`` succeeded,
    while its reducers set up."""

    def crash():
        while True:
            am = client.last_am
            maps = am and am._dag and am._dag.name == dag_name \
                and am._vertices.get("m")
            if maps and maps.all_tasks_done():
                break
            yield sim.env.timeout(0.25)
        yield sim.env.timeout(1.0)
        am.crash()

    sim.env.process(crash())


class TestApplicationDeath:
    """An AM application that dies for good fails every DAG it still
    owes with ``application failed: ...``; a DAG it already finished
    keeps its status."""

    def _failed(self, handle):
        status = handle.status
        assert handle.completion.triggered
        assert status is not None and not status.succeeded
        assert status.diagnostics.startswith("application failed: ")

    def test_session_app_death_fails_every_unfinished_dag(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        client = sim.tez_client(session=True, am_max_attempts=1)
        done = client.submit_dag(small_dag("done", "/done"))
        sim.env.run(until=done.completion)
        assert done.status.succeeded, done.status.diagnostics
        running = client.submit_dag(slow_reduce_dag("running", "/running"))
        queued = client.submit_dag(small_dag("queued", "/queued"))
        crash_am_mid_dag(sim, client, "running")
        sim.env.run(until=queued.completion)
        app = client.coordinator.shard(0).app_handle
        assert app.final_status == FinalApplicationStatus.FAILED
        # A DAG submitted once the application is gone fails as well.
        late = client.submit_dag(small_dag("late", "/late"))
        sim.env.run(until=late.completion)
        for handle in (running, queued, late):
            self._failed(handle)
        assert done.status.succeeded
        client.stop()

    def test_one_shot_app_death_fails_its_dag(self):
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        client = sim.tez_client(am_max_attempts=1)
        done = client.submit_dag(small_dag("done", "/done"))
        sim.env.run(until=done.completion)
        assert done.status.succeeded, done.status.diagnostics
        running = client.submit_dag(slow_reduce_dag("running", "/running"))
        crash_am_mid_dag(sim, client, "running")
        sim.env.run(until=running.completion)
        self._failed(running)
        assert done.status.succeeded

    def test_session_app_death_between_dags_fails_a_late_dag(self):
        # The AM dies for good while parked on the mailbox between DAGs:
        # its get() is never withdrawn, so a DAG submitted afterwards
        # must fail at submit time, not go to the dead attempt.
        sim = make_sim()
        sim.hdfs.write("/in", [(i % 5, i) for i in range(50)],
                       record_bytes=16)
        client = sim.tez_client(session=True, am_max_attempts=1)
        done = client.submit_dag(small_dag("done", "/done"))
        sim.env.run(until=done.completion)
        assert done.status.succeeded, done.status.diagnostics
        client.last_am.crash()
        app = client.coordinator.shard(0).app_handle
        sim.env.run(until=app.completion)
        assert app.final_status == FinalApplicationStatus.FAILED
        late = client.submit_dag(small_dag("late", "/late"))
        sim.env.run(until=late.completion)
        self._failed(late)
        assert done.status.succeeded
        client.stop()
