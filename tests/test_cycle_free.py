"""A run strands nothing that only a cyclic collection could free.

``Environment.run`` holds CPython's cyclic collector while the kernel
loop runs (DESIGN.md "The host collector"). What pays for that is an
invariant: whatever a simulation is done with is freed by reference
counting. ``unreachable_after`` below measures it - run a scenario with
the collector off, then see what one full collection would have had to
free - and the tests require that the answer holds no AM structure and
does not grow with DAGs or tasks.

Every cut this rests on was put back by hand in turn, and each one
fails a test here on its own: in ``DAGAppMaster._release_dag`` the
``vr.tasks``, ``task.attempts`` and ``task.succeeded_attempt`` resets,
``vr.manager`` (the vertex holds its manager, whose VM context holds
the vertex), ``MachineSet.forget`` on the attempt, the task and the
vertex (``_sm`` and ``_init_sm`` each),
``attempt.process`` (a failed attempt's process stores the exception
whose traceback holds the attempt body's frame) and the call to
``_release_dag`` itself; ``_InlineEventChannel.close`` letting go of
its inputs (one cycle per inline attempt with an input edge);
``app.on_allocate = None`` in ``CapacityScheduler.remove_app`` (one per
application); ``slot.mailbox.abandon()`` in ``release_slot`` and in the
completion pump (one parked ``runner:`` process per released
container); and the two lines of ``Process._resume`` that keep a
stored failure's traceback off the frames that hold the failed process
- its own, and a catcher's that lives on (the TezChild loop: one cycle
per failed attempt). The
resets of ``_vertices`` / ``_edge_managers`` / ``_init_contexts`` close
no cycle - they let a one-shot AM's last graph go with its DAG - and
are pinned by ``test_session_reuses_containers_across_dags``. At the
parent commit the session test and the two crash shapes fail.

A container stopped while its attempt is blocked on input leaves that
attempt's processes parked for good (EXPERIMENTS.md divergence 6); the
sizes below are ones where no node crash catches an attempt so.
"""

import gc
import types
from collections import Counter

import pytest

import control_plane_scenarios as S
from helpers import make_sim
from repro import SimCluster
from repro.engines.hive import Catalog, HiveSession
from repro.sim import Environment
from repro.tez.am import FaultEvent
from repro.tez.am.state_machines import StateMachine
from repro.tez.am.structures import Task, TaskAttempt, VertexRuntime
from repro.tez.am.vm_context import _VMContext
from repro.tez.vertex_manager import VertexManagerPlugin
from repro.yarn import AMContext, SchedulerApp
from test_session_fuzz import _drive_session

# A finished DAG's runtime graph and a finished application's RM side.
FREED_BY_REFERENCE_COUNT = (
    Task, TaskAttempt, StateMachine, VertexRuntime, _VMContext,
    VertexManagerPlugin, AMContext, SchedulerApp,
)


def unreachable_after(scenario) -> Counter:
    """type -> how many objects of it only a cyclic collection can free
    once ``scenario()`` has run.

    The caller keeps the scenario's world alive (``clusters`` below):
    the question is what a *live* simulation has stranded, not what
    dies with it. The collector's state, its debug flags and
    ``gc.garbage`` are put back whatever happens."""
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    while gc.collect():
        pass    # an earlier test's world: closing its generators frees more
    gc.disable()
    try:
        scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(o) for o in gc.garbage[kept:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()


@pytest.fixture(autouse=True)
def clusters(monkeypatch):
    """Every SimCluster a test builds, held until the test ends."""
    made = []
    init = SimCluster.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(SimCluster, "__init__", recording_init)
    return made


def _assert_same_and_nothing_of_a_finished_dag(small: Counter,
                                               large: Counter):
    for census in (small, large):
        stranded = {t.__name__: n for t, n in census.items()
                    if issubclass(t, FREED_BY_REFERENCE_COUNT)}
        assert not stranded, f"left to the cyclic collector: {stranded}"
    assert small == large, (
        "cyclic garbage grows with the work done: "
        f"{ {t.__name__: (small[t], large[t]) for t in small | large if small[t] != large[t]} }")


def test_the_census_sees_a_cycle_and_restores_the_collector():
    def strand_one_cycle():
        cycle = []
        cycle.append(cycle)

    assert gc.isenabled()
    assert unreachable_after(strand_one_cycle) == {list: 1}
    assert gc.isenabled() and gc.get_debug() == 0 and not gc.garbage
    gc.disable()
    try:
        assert unreachable_after(strand_one_cycle) == {list: 1}
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_session_strands_nothing_per_dag():
    _assert_same_and_nothing_of_a_finished_dag(
        unreachable_after(lambda: _drive_session(iterations=2)),
        unreachable_after(lambda: _drive_session(iterations=6)))


def _am_crash_and_recovery(reducers):
    """test_am_restart_recovers_completed_work's shape."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 10, i) for i in range(200)],
                   record_bytes=32)
    dag = S._sum_by_key_dag("rec", reducers,
                            reduce_payload={"cpu_per_record": 2e-3})
    client = sim.tez_client(session=True)
    client.start()
    handle = client.submit_dag(dag)

    crashed = []

    def am_killer():
        while client.last_am is None or \
                client.last_am.metrics["tasks_succeeded"] < 2:
            yield sim.env.timeout(0.5)
        crashed.append(client.last_am)
        client.last_am.dispatcher.dispatch(FaultEvent(kind="am_crash"))

    sim.env.process(am_killer())
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert client.last_am.ctx.attempt == 2
    client.stop()
    sim.env.run(until=sim.env.now + 5.0)
    return sim, crashed[0]


def _hive_on_both_backends(rows):
    sim = make_sim(hdfs_block_size=2048)
    catalog = Catalog()
    catalog.create_table(
        sim.hdfs, "orders", ["o_id", "o_custkey", "o_total"],
        [(i, i % 17, float(i % 101)) for i in range(rows)])
    session = HiveSession(sim, catalog)
    sql = ("SELECT o_custkey, COUNT(*) AS n, SUM(o_total) AS total "
           "FROM orders GROUP BY o_custkey")
    results = [session.run(sql, backend=backend)
               for backend in ("tez", "mr")]
    assert sorted(results[0].rows) == sorted(results[1].rows)
    session.close()


@pytest.mark.parametrize("shape, small, large", [
    (S.reuse_session, {"reducers": 6}, {"reducers": 12}),
    (S.diamond, {"parallelism": 20}, {"parallelism": 60}),
    (S.wide_shuffle, {"n": 8}, {"n": 24}),
    (S.live_events_speculation_kill, {"reducers": 2}, {"reducers": 5}),
    (S.chaos_node_crash, {"reducers": 3}, {"reducers": 6}),
    (_am_crash_and_recovery, {"reducers": 2}, {"reducers": 6}),
    (_hive_on_both_backends, {"rows": 300}, {"rows": 1500}),
], ids=lambda value: getattr(value, "__name__", None))
def test_garbage_does_not_grow_with_tasks(shape, small, large):
    _assert_same_and_nothing_of_a_finished_dag(
        unreachable_after(lambda: shape(**small)),
        unreachable_after(lambda: shape(**large)))


def _reachable_from(root):
    """Every object ``root`` keeps alive through instance state: the
    ``gc.get_referents`` closure, not entering classes, modules, code
    or a function's globals (those reach the whole interpreter) nor
    the kernel (its heap is every component's, not ``root``'s)."""
    opaque = (type, types.ModuleType, types.CodeType,
              types.BuiltinFunctionType, Environment)
    seen = {id(root): root}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, types.FunctionType):
            referents = [obj.__closure__, obj.__defaults__,
                         obj.__kwdefaults__]
        else:
            referents = gc.get_referents(obj)
        for ref in referents:
            if id(ref) not in seen and not isinstance(ref, opaque):
                seen[id(ref)] = ref
                stack.append(ref)
    return seen.values()


def test_the_rm_lets_go_of_a_crashed_am():
    """A crashed attempt never runs ``shutdown()``, so nothing it
    registered with the RM for the life of the application may outlive
    it: every later cluster event would call into a halted control
    plane. (The kernel still holds the attempt: ``crash()`` leaves its
    processes running, fenced, and its deadlock monitor ticks on.)"""
    sim, crashed_am = _am_crash_and_recovery(reducers=2)
    assert crashed_am.ctx.attempt == 1 and crashed_am.dispatcher.halted
    assert not any(o is crashed_am for o in _reachable_from(sim.rm)), \
        "sim.rm still reaches the crashed attempt's DAGAppMaster"
