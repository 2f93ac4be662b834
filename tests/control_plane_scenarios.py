"""The scenarios behind ``tests/golden/control_plane.json``.

The control plane once carried most of its mechanisms twice - a
shipped path and a switchable historical one - and the tests compared
the two. The historical paths are gone; what they proved is frozen in
the golden file, recorded once at commit 98c7bea with every switch on
its historical value. Three entries (``chaos_shape``,
``coalescing_eager_slowstart``, ``live_events_speculation_kill``) were
re-recorded when every DAG came to batch its attempt exits: their
makespans, rows and per-tick journals held, and ``chaos_shape``'s task
trace swapped two entries with equal end times. Each scenario here
runs one simulation and returns ``(sim_makespan, observation)``; the
golden holds the makespan and the sha256 of both. ``tests/test_control_plane_golden.py`` checks
them, and the differential tests in ``tests/test_determinism.py`` run
the same scenarios with the surviving *semantic* selections forced
each way.

    python tests/control_plane_scenarios.py            # print as JSON
    python tests/control_plane_scenarios.py --record   # rewrite golden

The larger shapes (``wide_shuffle``, ``diamond``, ``chaos_shape``,
``sched_heavy``) are the scenario builders of the retired
``repro.bench.perf``.
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parent),
                    str(Path(__file__).resolve().parents[1] / "src")]

from helpers import (
    OO,
    SG,
    edge,
    fn_vertex,
    hdfs_sink,
    hdfs_source,
    make_sim,
)
from repro import FaultPlan, SimCluster
from repro.bench.cluster_day import run_cluster_day
from repro.tez import DAG, Descriptor, TezConfig
from repro.tez.events import CompositeDataMovementEvent, DataMovementEvent
from repro.tez.vertex_manager import (
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
)
from repro.yarn import (
    FinalApplicationStatus,
    Priority,
    QueueConfig,
    Resource,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "control_plane.json"

_EAGER = ShuffleVertexManagerConfig(slowstart_min_fraction=0.0,
                                    slowstart_max_fraction=0.0)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def on_new_am(client, hook) -> None:
    """Call ``hook(am)`` on every AM ``client`` creates, before it runs."""
    original = client._make_am

    def instrumented(ctx):
        am = original(ctx)
        hook(am)
        return am

    client._make_am = instrumented


def journaled(client) -> list:
    """Make every AM of ``client`` keep its dispatcher journal; returns
    the (growing) list of those AMs."""
    ams = []

    def keep(am):
        am.dispatcher.keep_journal = True
        ams.append(am)

    on_new_am(client, keep)
    return ams


def canonical_journals(ams) -> list:
    return [am.dispatcher.canonical_journal() for am in ams]


def per_tick(result):
    """``(makespan, (rows, journals, ...))`` with every journal sorted
    within each timestamp. Attempt exits batch per tick, which moves
    exit records relative to the same tick's transition records; this
    is the form a run with batched exits shares with one recorded from
    unit exits, as ``chaos_node_crash``'s golden was."""
    makespan, (rows, journals, *rest) = result
    return makespan, (rows, [sorted(j) for j in journals], *rest)


def task_trace(am) -> list:
    """The scheduler's execution trace with the process-global
    application number taken out of the container ids."""
    app = am.ctx.app_id
    prefix = f"container_{app.cluster_ts}_{app.app_num:04d}_"
    return [
        (e.container_id.replace(prefix, "container_"), e.attempt_id,
         e.vertex, e.start, e.end, e.node_id)
        for e in am.scheduler.task_trace
    ]


def _rows(sim, path="/out") -> tuple:
    return tuple(sorted(sim.hdfs.read_file(path)))


def _run(sim, dag, client, plan=None):
    handle = client.submit_dag(dag)
    controller = sim.chaos(plan, client=client) if plan is not None \
        else None
    sim.env.run(until=handle.completion)
    status = handle.status
    assert status.succeeded, status.diagnostics
    return status, controller


def _sum_by_key_dag(name, reducers, manager=None, map_payload=None,
                    reduce_payload=None):
    """``m`` (one task per block of ``/in``) -> scatter-gather -> ``r``
    summing per key into ``/out``."""
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                  **(map_payload or {}))
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, reducers, **(reduce_payload or {}))
    if manager is not None:
        r.vertex_manager = Descriptor(ShuffleVertexManager, manager)
    hdfs_sink(r, "out", "/out")
    dag = DAG(name).add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    return dag


# ------------------------------------------- the determinism scenarios

def coalescing_eager_slowstart():
    """Eager slow-start: consumers launch at vertex start, so every
    data-movement event is delivered live to running attempts."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 13, i) for i in range(500)],
                   record_bytes=24)
    dag = _sum_by_key_dag("coalesce", 3, manager=_EAGER)
    client = sim.tez_client()
    ams = journaled(client)
    status, _ = _run(sim, dag, client)
    journals = canonical_journals(ams)
    assert any(line[1] == "DataDeliveryEvent"
               for journal in journals for line in journal), \
        "no live deliveries"
    return status.elapsed, (_rows(sim), journals)


def live_events_speculation_kill(reducers=2):
    """A shuffle-in/shuffle-out middle stage (inline-eligible) whose
    attempts receive data-movement events mid-flight, and whose
    key-skewed straggler gets a speculative twin and a kill."""
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    sim.hdfs.write("/in", [(0 if i < 400 else i % 13, i)
                           for i in range(500)], record_bytes=24)
    m = fn_vertex("m", lambda c, d: {"s": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    s = fn_vertex("s", lambda c, d: {"r": [
        (k, sum(vs)) for k, vs in d["m"]
    ]}, 3, cpu_per_record=2e-2)
    s.vertex_manager = Descriptor(ShuffleVertexManager, _EAGER)
    r = fn_vertex("r", lambda c, d: {"out": [
        (k, sum(vs)) for k, vs in d["s"]
    ]}, reducers)
    hdfs_sink(r, "out", "/out")
    dag = DAG("fastdet").add_vertex(m).add_vertex(s).add_vertex(r)
    dag.add_edge(edge(m, s, SG)).add_edge(edge(s, r, SG))
    client = sim.tez_client(config=TezConfig(
        speculation_enabled=True,
        speculation_min_completed=1,
        speculation_slowdown_factor=1.2,
        speculation_check_interval=0.5,
    ))
    ams = journaled(client)
    status, _ = _run(sim, dag, client)
    return status.elapsed, (_rows(sim), canonical_journals(ams))


def chaos_node_crash(reducers=3):
    """A node crash and a dropped shuffle output mid-run: attempts
    fail, are killed and re-executed."""
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    sim.hdfs.write("/in", [(i % 9, i) for i in range(2_000)],
                   record_bytes=32)
    dag = _sum_by_key_dag("fastchaos", reducers,
                          map_payload={"cpu_per_record": 2e-3},
                          reduce_payload={"setup_seconds": 4.0})
    plan = (FaultPlan(seed=23)
            .crash_node(at=4.0, restart_after=6.0)
            .drop_shuffle_output(at=3.0, pattern="/m/", count=1))
    client = sim.tez_client(session=True)
    client.start()
    ams = journaled(client)
    status, controller = _run(sim, dag, client, plan)
    client.stop()
    assert controller.injected, "plan injected nothing"
    return status.elapsed, (_rows(sim), canonical_journals(ams),
                            tuple(controller.injected))


# --------------------------------------------------- composite fan-out

def composite_fanout(seen=None):
    """A 4-way scatter-gather edge. ``seen`` (optional dict) receives
    how many composite / per-partition events producers routed."""
    sim = make_sim()
    sim.hdfs.write("/in", [(i % 7, i) for i in range(200)],
                   record_bytes=24)
    dag = _sum_by_key_dag("comp", 4)
    client = sim.tez_client()
    if seen is not None:
        seen.update(composite=0, dme=0)

        def count_routed(am):
            route = am.router.route_events

            def counting_route(vr, task, events):
                for ev in events:
                    if isinstance(ev, CompositeDataMovementEvent):
                        seen["composite"] += 1
                    elif isinstance(ev, DataMovementEvent):
                        seen["dme"] += 1
                route(vr, task, events)

            am.router.route_events = counting_route

        on_new_am(client, count_routed)
    status, _ = _run(sim, dag, client)
    return status.elapsed, _rows(sim)


# ------------------------------------- the retired perf-suite's shapes

def _traced(sim, dag, plan=None):
    client = sim.tez_client()
    status, _ = _run(sim, dag, client, plan)
    return status, client.last_am


def wide_shuffle_on(sim, n, slow_start):
    """One ``n`` x ``n`` scatter-gather edge on ``sim``, one record per
    (producer, partition)."""
    producer = fn_vertex(
        "m", lambda c, d, n=n: {"r": [(p, 1) for p in range(n)]}, n)
    consumer = fn_vertex("r", lambda c, d: {}, n)
    consumer.vertex_manager = Descriptor(ShuffleVertexManager, slow_start)
    dag = DAG("wide-shuffle").add_vertex(producer).add_vertex(consumer)
    dag.add_edge(edge(producer, consumer, SG))
    status, am = _traced(sim, dag)
    return status.elapsed, task_trace(am)


def wide_shuffle(n=40, buffered=False):
    """``buffered``: default slow-start on a small cluster, so events
    buffer in the AM and resolve at attempt launch; otherwise eager
    slow-start on a cluster that runs both sides at once, so every
    delivery is live."""
    if buffered:
        sim = SimCluster(num_nodes=4, nodes_per_rack=2,
                         memory_per_node_mb=16 * 1024, cores_per_node=8)
        return wide_shuffle_on(sim, n, ShuffleVertexManagerConfig())
    sim = SimCluster(num_nodes=14, nodes_per_rack=7,
                     memory_per_node_mb=16 * 1024, cores_per_node=8)
    return wide_shuffle_on(sim, n, _EAGER)


def diamond(parallelism=250):
    """v1 -> (v2, v3) -> v4 over one-to-one edges, pass-through tasks:
    kernel, container and state-machine churn, event plane neutral."""
    sim = SimCluster(num_nodes=20, nodes_per_rack=10,
                     memory_per_node_mb=16 * 1024, cores_per_node=8)

    def passthrough(targets):
        def fn(c, d, targets=targets):
            records = [kv for recs in d.values() for kv in recs] \
                or [(c.task_index, 1)]
            return {t: list(records) for t in targets}
        return fn

    v1 = fn_vertex("v1", passthrough(["v2", "v3"]), parallelism)
    v2 = fn_vertex("v2", passthrough(["v4"]), parallelism)
    v3 = fn_vertex("v3", passthrough(["v4"]), parallelism)
    v4 = fn_vertex("v4", lambda c, d: {}, parallelism)
    dag = DAG("diamond")
    for v in (v1, v2, v3, v4):
        dag.add_vertex(v)
    dag.add_edge(edge(v1, v2, OO)).add_edge(edge(v1, v3, OO))
    dag.add_edge(edge(v2, v4, OO)).add_edge(edge(v3, v4, OO))
    status, am = _traced(sim, dag)
    return status.elapsed, (am.dispatcher.dispatched,
                            digest(task_trace(am)))


def chaos_shape(records=8_000):
    """A small shuffle job with a node crash mid-run and a restart:
    recovery, re-execution and re-routing."""
    sim = SimCluster(num_nodes=6, nodes_per_rack=3,
                     hdfs_block_size=64 * 1024)
    sim.hdfs.write("/in", [(i % 20, i) for i in range(records)],
                   record_bytes=64)
    dag = _sum_by_key_dag("chaotic", 6,
                          map_payload={"cpu_per_record": 8e-4})
    plan = FaultPlan(seed=42).crash_node(at=6.0, restart_after=20.0)
    status, am = _traced(sim, dag, plan)
    return status.elapsed, (_rows(sim), task_trace(am))


def sched_heavy(num_nodes=60, nodes_per_rack=10, num_apps=6, waves=2,
                asks_per_wave=40):
    """The YARN allocation path driven straight through the RM: AMs
    issuing waves of locality-tagged single-container asks over three
    queues, no Tez DAGs. The observation is the allocation log with
    app ids normalised to submission order."""
    sim = SimCluster(
        num_nodes=num_nodes, nodes_per_rack=nodes_per_rack,
        cores_per_node=16, memory_per_node_mb=16 * 1024,
        heartbeat_interval=1.0,
        queues=[QueueConfig("prod", 0.5, 0.9),
                QueueConfig("batch", 0.3, 0.7),
                QueueConfig("adhoc", 0.2, 0.6)],
        telemetry=False,
    )
    env = sim.env
    capability = Resource(4096, 4)
    queue_names = ["prod", "batch", "adhoc"]

    def make_am(app_idx):
        def am(ctx):
            ctx.register()
            for wave in range(waves):
                for i in range(asks_per_wave):
                    # Deterministic spread over nodes and racks, no RNG.
                    h = (app_idx * 7919 + wave * 104729 + i * 31) \
                        % num_nodes
                    ctx.request_containers(
                        Priority(2 + (i % 3)), capability,
                        nodes=[f"node{h:04d}"],
                    )

                def launcher():
                    for done in range(asks_per_wave):
                        c = yield ctx.allocated.get()
                        dur = 0.25 + ((app_idx + done) % 7) * 0.125

                        def task(container, dur=dur):
                            yield env.timeout(
                                container.compute_delay(dur))

                        ctx.launch_container(c, task)

                env.process(launcher())
                for _ in range(asks_per_wave):
                    yield ctx.completed.get()
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)
        return am

    handles = [
        sim.rm.submit_application(f"load{i}", make_am(i),
                                  queue=queue_names[i % 3])
        for i in range(num_apps)
    ]
    for handle in handles:
        env.run(until=handle.completion)
        assert handle.final_status == FinalApplicationStatus.SUCCEEDED, \
            handle.diagnostics
    names = {str(h.app_id): f"app{i}" for i, h in enumerate(handles)}
    log = [(t, names.get(app, app), node, level)
           for t, app, node, level in sim.rm.scheduler.allocation_log]
    return max(h.finish_time for h in handles), log


# ------------------------------------------------- container reuse

def reuse_session(stale=None, reducers=6):
    """Two DAGs through one session: node-, rack- and any-level reuse
    of idle containers; reducers whose first attempts fail get their
    node blacklisted while its other slots are busy, and the busiest
    node is crashed while slots on it sit idle and map outputs on it
    are lost - so the reuse matcher meets idle slots it must refuse.
    ``stale`` (optional list) receives one ``(time, node, alive)`` per
    such meeting."""
    sim = make_sim(num_nodes=6, nodes_per_rack=3)
    for path in ("/in_a", "/in_b"):
        sim.hdfs.write(path, [(i % 11, i) for i in range(1_400)],
                       record_bytes=24)

    def reduce_fn(c, d):
        if (c.task_index % 2 and c.attempt == 0
                and c.task.dag_name.startswith("reuse-a")):
            raise RuntimeError("bad disk")
        return {"o": [(k, sum(vs)) for k, vs in d["m"]]}

    def build(tag):
        m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1,
                      cpu_per_record=1e-3)
        hdfs_source(m, "src", [f"/in_{tag}"])
        r = fn_vertex("r", reduce_fn, reducers, cpu_per_record=5e-2)
        o = fn_vertex("o", lambda c, d: {"out": list(d["r"])}, reducers)
        hdfs_sink(o, "out", f"/out_{tag}")
        dag = DAG(f"reuse-{tag}")
        dag.add_vertex(m).add_vertex(r).add_vertex(o)
        dag.add_edge(edge(m, r, SG)).add_edge(edge(r, o, OO))
        return dag

    client = sim.tez_client(session=True, config=TezConfig(
        node_max_task_failures=2, blacklist_disable_fraction=0.5,
        container_idle_timeout=30.0,
    ))
    client.start()
    if stale is not None:
        def probe_matcher(am):
            sched = am.scheduler
            find = sched._find_reusable_slot

            def probing_find(request):
                for slot in sched.slots.values():
                    node = slot.container.node
                    if (slot.current is None and not slot.releasing
                            and (not node.alive
                                 or node.node_id in sched.blacklisted)):
                        stale.append((sim.env.now, node.node_id,
                                      node.alive))
                return find(request)

            sched._find_reusable_slot = probing_find

        on_new_am(client, probe_matcher)
    first, _ = _run(sim, build("a"), client)
    plan = FaultPlan(seed=7).crash_node(at=sim.env.now + 4.0)
    second, controller = _run(sim, build("b"), client, plan)
    am = client.last_am
    trace = task_trace(am)
    blacklisted = tuple(sorted(am.scheduler.blacklisted))
    client.stop()
    assert blacklisted and controller.injected
    return second.elapsed, (
        first.elapsed, _rows(sim, "/out_a"), _rows(sim, "/out_b"),
        blacklisted, tuple(controller.injected), trace,
    )


# --------------------------------------------------- cluster day

def cluster_day_smoke():
    """The sharded-control-plane soak at its smallest useful cut:
    4 session clients x 2 AM shards over three queues, chaos on,
    through the journal-aimed AM-shard crash and its recovery."""
    summary = run_cluster_day(sessions=4, dags=12, tasks_per_dag=30,
                              verbose=False)
    assert summary["ok"], f"{summary['violations']} violation(s)"
    assert summary["journaled_at_crash"] > 0
    assert summary["reexecutions"] == 0
    return summary["sim_makespan"], summary["digest"]


SCENARIOS = {
    "coalescing_eager_slowstart": coalescing_eager_slowstart,
    "live_events_speculation_kill": live_events_speculation_kill,
    "chaos_node_crash": lambda: per_tick(chaos_node_crash()),
    "composite_fanout": composite_fanout,
    "diamond_1k": diamond,
    "wide_shuffle_live": wide_shuffle,
    "wide_shuffle_buffered": lambda: wide_shuffle(buffered=True),
    "reuse_session": reuse_session,
    "chaos_shape": chaos_shape,
    "cluster_day_smoke": cluster_day_smoke,
}


def observe(name) -> dict:
    makespan, observation = SCENARIOS[name]()
    return {"sim_makespan": makespan,
            "sha256": digest((makespan, observation))}


def main(argv) -> int:
    observed = {name: observe(name) for name in SCENARIOS}
    if argv == ["--record"]:
        golden = json.loads(GOLDEN_PATH.read_text())
        golden["scenarios"] = observed
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(observed, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
