"""The "cluster day" soak: the paper's §6.1 production story at
simulation scale — many concurrent sessions, a long stream of DAGs,
~a million tasks across three capacity queues, with chaos on.

This is the proof-of-scale for the sharded control plane: every
session runs ``--shards`` AM shards (each its own dispatcher, audited
machines, epoch-fenced journal and ask book), all of them concurrently
registered with the one simulated ResourceManager, while the shard
coordinator keeps cross-shard concerns explicit. Mid-soak, chaos
crashes *one selected shard's AM* (plus background node-level faults);
the run then asserts

* every DAG still reaches SUCCEEDED,
* no task whose success was journaled before the crash is re-executed
  by the recovered shard (write-ahead recovery, scoped to the shard),
* telemetry's resident record count stays bounded by the span-store
  rings regardless of task count (the PR 7 guarantee), and
* the terminal digest — sha256 over every DAG's (session, name, state,
  start, finish) — is byte-stable across seeded reruns.

Workload: single-vertex ``FnProcessor`` DAGs (control-plane-bound on
purpose — the point is AM/RM/journal throughput, not the data plane),
with per-DAG task counts and inter-arrival gaps jittered by the seeded
RNG so queues and shards see uneven, realistic pressure.

Usage::

    python -m repro.bench.cluster_day --smoke [--store-out STORE_DIR]
    python -m repro.bench.cluster_day          # full: 100 sessions,
        # 1,000 DAGs, ~1M tasks (several minutes of host time)

``--store-out`` persists the run's telemetry store; besides every span
and event of the run it holds one ``cluster_day.shard`` event per shard
of the crashed session and the ``cluster_day.summary`` event (the
returned summary, host-time fields ``wall_s`` and ``maxrss_mb``
included), both at the end of the run.

The full-size defaults honour the acceptance floor (>=100 sessions,
>=1,000 DAGs, ~1M tasks); ``--smoke`` is the CI-sized cut of the same
shape. The terminal digest of a smaller cut still is pinned in
``tests/golden/control_plane.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from random import Random
from typing import Optional

try:
    import resource as _resource
except ImportError:          # pragma: no cover - non-POSIX hosts
    _resource = None

from ..chaos import CrashWitness, FaultPlan
from ..harness import SimCluster
from ..tez import DAG, Descriptor, TezConfig, Vertex
from ..tez.library import FnProcessor
from ..yarn import QueueConfig, Resource

__all__ = ["run_cluster_day", "main"]

QUEUE_NAMES = ("prod", "batch", "adhoc")


def _queues() -> list[QueueConfig]:
    return [QueueConfig("prod", 0.5, 0.9),
            QueueConfig("batch", 0.3, 0.7),
            QueueConfig("adhoc", 0.2, 0.6)]


def _noop(ctx, data):
    return {}


def _make_dag(name: str, tasks: int, fn, setup: float) -> DAG:
    v = Vertex("work", Descriptor(FnProcessor,
                                  {"fn": fn, "setup_seconds": setup}),
               parallelism=tasks, resource_mb=256)
    return DAG(name).add_vertex(v)


def _maxrss_mb() -> int:
    if _resource is None:
        return -1
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
               // 1024)


def run_cluster_day(
    sessions: int = 100,
    dags: int = 1000,
    tasks_per_dag: int = 1000,
    shards: int = 2,
    seed: int = 20258,
    config: Optional[TezConfig] = None,
    crash_session: int = 0,
    crash_shard: Optional[int] = None,
    crash_at: Optional[float] = None,
    arrival_window: Optional[float] = None,
    num_nodes: Optional[int] = None,
    ring: int = 4096,
    store_out: Optional[str] = None,
    verbose: bool = True,
) -> dict:
    """One seeded cluster-day run; returns the summary dict
    (``summary["ok"]`` is the verdict, ``summary["digest"]`` the
    terminal digest that must be byte-stable across seeded reruns)."""

    def say(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    if sessions < 1 or dags < 1 or tasks_per_dag < 1 or shards < 1:
        raise ValueError("sessions/dags/tasks_per_dag/shards must be >= 1")
    if not 0 <= crash_session < sessions:
        raise ValueError(f"crash_session {crash_session} out of range")
    if crash_shard is None:
        crash_shard = min(1, shards - 1)
    if not 0 <= crash_shard < shards:
        raise ValueError(f"crash_shard {crash_shard} out of range")
    if arrival_window is None:
        arrival_window = max(30.0, dags * 0.35)
    if num_nodes is None:
        num_nodes = max(8, sessions // 2)
    config = config or TezConfig()

    rng = Random(seed)
    task_counts = [max(1, int(tasks_per_dag * (0.5 + rng.random())))
                   for _ in range(dags)]
    base_gap = arrival_window / dags
    gaps = [base_gap * (0.5 + rng.random()) for _ in range(dags)]
    # Seeded per-DAG task durations so DAGs overlap and the crash-
    # target shard has real in-flight state when the AM dies.
    setups = [round(2.0 * (0.5 + rng.random()), 3) for _ in range(dags)]

    # The first DAG round-robined onto the crash-target shard; the
    # self-aiming crash trigger fires once a quarter of some in-flight
    # DAG's tasks have journaled successes on that shard.
    target = crash_session + crash_shard * sessions
    if target >= dags:
        target = crash_session
    crash_threshold = max(1, task_counts[target] // 4)

    sim = SimCluster(
        num_nodes=num_nodes,
        nodes_per_rack=max(2, num_nodes // 5),
        cores_per_node=16,
        memory_per_node_mb=16 * 1024,
        queues=_queues(),
        telemetry_opts={"ring_spans": ring, "ring_events": ring},
    )
    env = sim.env

    clients = [
        sim.tez_client(
            name=f"s{i:03d}", queue=QUEUE_NAMES[i % 3], config=config,
            session=True, shards=shards, am_resource=Resource(256, 1),
            am_max_attempts=3,
        )
        for i in range(sessions)
    ]

    # Record every AM attempt for dispatch/recovery accounting, and
    # snapshot the crashed shard's journaled successes at the instant
    # its first attempt dies.
    witness = CrashWitness()
    crash_client = clients[crash_session]
    for client in clients:
        witness.watch(client, target=(
            lambda am, ctx: am.shard_id == crash_shard and ctx.attempt == 1
        ) if client is crash_client else None)

    # Chaos: background node-level faults plus the mid-soak shard-
    # targeted AM crash. Node crashes are safe for the re-execution
    # proof — a completed single-vertex task has no downstream
    # consumers, so its journaled success is never revoked.
    plan = (
        FaultPlan(seed=seed)
        .slow_node(at=max(6.0, arrival_window * 0.2), speed=0.5,
                   duration=arrival_window * 0.5)
        .crash_node(at=max(7.0, arrival_window * 0.3),
                    restart_after=arrival_window * 0.25)
    )
    if crash_at is not None:
        plan.crash_am(at=crash_at, shard=crash_shard)
    else:
        plan.crash_am(at=1.0, shard=crash_shard,
                      when_journaled=crash_threshold)
    controller = sim.chaos(plan, client=crash_client)

    handles: list = []

    def driver():
        for j in range(dags):
            yield env.timeout(gaps[j])
            si = j % sessions
            name = f"s{si:03d}d{j}"
            fn = (witness.tracked(_noop, name, "work")
                  if si == crash_session else _noop)
            dag = _make_dag(name, task_counts[j], fn, setups[j])
            handles.append((si, clients[si].submit_dag(dag)))

    t0 = time.perf_counter()
    driver_proc = env.process(driver(), name="cluster-day-driver")
    env.run(until=driver_proc)
    for _, handle in handles:
        env.run(until=handle.completion)
    makespan = env.now
    for client in clients:
        client.stop()
    env.run(until=env.now + 120)
    wall = time.perf_counter() - t0

    # ---------------------------------------------------------- verdict
    statuses = [
        (f"s{si:03d}", h.dag.name, h.status.state.name,
         h.status.start_time, h.status.finish_time)
        for si, h in handles
    ]
    digest = hashlib.sha256(
        repr(sorted(statuses)).encode()
    ).hexdigest()
    not_succeeded = [s for s in statuses if s[2] != "SUCCEEDED"]

    crash_time = witness.crash_time
    journaled = witness.journaled
    reexecutions = witness.reexecutions()

    violations = [
        f"dag {name} ({session}): terminal state {state}"
        for session, name, state, _, _ in not_succeeded
    ]
    violations += reexecutions
    if not witness.crashed:
        trigger = (f"crash_at={crash_at}" if crash_at is not None
                   else f"when_journaled={crash_threshold}")
        violations.append(
            f"mid-soak AM crash never fired ({trigger}, "
            f"shard {crash_shard} of session {crash_session})"
        )
    elif not journaled:
        violations.append(
            f"vacuous crash: shard {crash_shard} of session "
            f"s{crash_session:03d} had no journaled in-flight work at "
            f"t={crash_time:.2f} — nothing to prove recovery against"
        )

    store = sim.telemetry.spanstore
    resident_cap = 2 * ring + 8      # rings + control-event reserve
    if store.peak_resident > resident_cap:
        violations.append(
            f"telemetry resident records {store.peak_resident} exceed "
            f"ring capacity {resident_cap}: memory is not bounded"
        )

    am_attempts = len(witness.ams)
    dispatched = sum(am.dispatcher.dispatched for am in witness.ams)
    fenced = sum(
        record.journal.fenced_appends
        for client in clients
        for record in client.coordinator.records()
    )

    summary = {
        "ok": not violations,
        "digest": digest,
        "sessions": sessions,
        "shards": shards,
        "dags": dags,
        "tasks": sum(task_counts),
        "seed": seed,
        "wall_s": round(wall, 4),
        "sim_makespan": makespan,
        "heap_pushes": env.heap_pushes,
        "dispatched": dispatched,
        "am_attempts": am_attempts,
        "crash_time": crash_time,
        "crash_session": crash_session,
        "crash_shard": crash_shard,
        "journaled_at_crash": len(journaled),
        "reexecutions": len(reexecutions),
        "events_replayed": witness.counter("recovery.events_replayed"),
        "tasks_recovered": witness.counter("recovery.tasks_recovered"),
        "entries_dropped": witness.counter("recovery.entries_dropped"),
        "fenced_appends": fenced,
        "faults_injected": controller.faults_injected,
        "peak_resident": store.peak_resident,
        "store_flushes": store.flushes,
        "maxrss_mb": _maxrss_mb(),
        "violations": len(violations),
    }

    for violation in violations:
        say(f"FAIL {violation}")
    say(
        f"cluster day: {sessions} sessions x {shards} shards, "
        f"{dags} DAGs, {summary['tasks']} tasks, "
        f"{am_attempts} AM attempts, makespan {makespan:.1f}s sim / "
        f"{wall:.1f}s wall, maxrss {summary['maxrss_mb']}MB"
    )
    say(
        f"  crash @ t={crash_time:.2f} on s{crash_session:03d} shard "
        f"{crash_shard}: {len(journaled)} journaled, "
        f"{summary['tasks_recovered']} recovered, "
        f"{len(reexecutions)} re-executed, "
        f"{summary['fenced_appends']} fenced appends"
    )
    say(f"  digest {digest}")

    if store_out:
        telemetry = sim.telemetry
        for shard_summary in crash_client.coordinator.shard_summaries():
            telemetry.event("cluster_day.shard", client=crash_client.name,
                            **shard_summary)
        telemetry.event("cluster_day.summary", **summary)
        telemetry.persist_store(store_out)
        say(f"persisted store to {store_out}")
    else:
        sim.telemetry.close()
        store.discard()
    return summary


# ------------------------------------------------------------------- CLI
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cluster_day",
        description="Sharded control-plane soak: many sessions, "
                    "thousands of DAGs, chaos on.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized cut (6 sessions, 24 DAGs)")
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--dags", type=int, default=None)
    parser.add_argument("--tasks-per-dag", type=int, default=None)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seed", type=int, default=20258)
    parser.add_argument("--crash-session", type=int, default=0)
    parser.add_argument("--crash-shard", type=int, default=None)
    parser.add_argument("--crash-at", type=float, default=None)
    parser.add_argument("--store-out", metavar="DIR", default=None,
                        help="persist the partitioned telemetry store "
                             "(MANIFEST.json + segments/) here")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    defaults = ((6, 24, 40) if args.smoke else (100, 1000, 1000))
    sessions = args.sessions if args.sessions is not None else defaults[0]
    dags = args.dags if args.dags is not None else defaults[1]
    tasks = (args.tasks_per_dag if args.tasks_per_dag is not None
             else defaults[2])

    summary = run_cluster_day(
        sessions=sessions, dags=dags, tasks_per_dag=tasks,
        shards=args.shards, seed=args.seed,
        crash_session=args.crash_session, crash_shard=args.crash_shard,
        crash_at=args.crash_at, store_out=args.store_out,
        verbose=not args.quiet,
    )
    if not args.quiet:
        print(json.dumps(
            {k: summary[k] for k in ("ok", "digest", "tasks",
                                     "am_attempts", "reexecutions",
                                     "violations")},
            indent=1, sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
