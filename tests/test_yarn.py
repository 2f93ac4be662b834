"""Integration tests for the simulated YARN layer."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.sim import Environment
from repro.yarn import (
    AuthenticationError,
    ContainerExitStatus,
    ContainerState,
    FinalApplicationStatus,
    Priority,
    QueueConfig,
    Resource,
    ResourceManager,
    SecurityManager,
)

TASK_PRI = Priority(5)
SMALL = Resource(1024, 1)


def make_rm(num_nodes=4, nodes_per_rack=2, queues=None, **spec_overrides):
    spec = ClusterSpec(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        memory_per_node_mb=8192,
        cores_per_node=8,
        **spec_overrides,
    )
    env = Environment()
    cluster = Cluster(env, spec)
    rm = ResourceManager(env, cluster, queues=queues)
    return env, cluster, rm


def test_simple_am_allocates_and_completes():
    env, cluster, rm = make_rm()
    trace = {}

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL, count=2)
        containers = []
        for _ in range(2):
            c = yield ctx.allocated.get()
            containers.append(c)

        def task(container):
            yield env.timeout(container.compute_delay(2.0))

        for c in containers:
            ctx.launch_container(c, task)
        done = 0
        while done < 2:
            status = yield ctx.completed.get()
            assert status.exit_status == ContainerExitStatus.SUCCESS
            done += 1
        trace["finished_at"] = env.now
        ctx.unregister(FinalApplicationStatus.SUCCEEDED, result="ok")

    handle = rm.submit_application("test", am)
    env.run(until=handle.completion)
    assert handle.final_status == FinalApplicationStatus.SUCCEEDED
    assert handle.result == "ok"
    assert trace["finished_at"] > 0
    # Cluster fully drained afterwards.
    env.run(until=env.now + 5)
    for nm in rm.node_managers.values():
        assert nm.used == Resource(0, 0)


def test_node_local_allocation_preferred():
    env, cluster, rm = make_rm(num_nodes=6, nodes_per_rack=3)
    where = {}

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL, nodes=["node0002"])
        c = yield ctx.allocated.get()
        where["node"] = c.node_id
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("loc", am)
    env.run(until=handle.completion)
    assert where["node"] == "node0002"


def test_delay_scheduling_falls_back_when_node_busy():
    # Ask for a node with zero capacity: after the delay threshold the
    # scheduler must relax to rack and then ANY.
    env, cluster, rm = make_rm(num_nodes=4, nodes_per_rack=2)
    # Saturate node0000 by faking usage.
    nm0 = rm.node_managers["node0000"]
    nm0.used = nm0.total
    where = {}

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL, nodes=["node0000"])
        c = yield ctx.allocated.get()
        where["node"] = c.node_id
        where["t"] = env.now
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("delay", am)
    env.run(until=handle.completion)
    assert where["node"] != "node0000"
    # Fallback happened only after the delay-scheduling wait.
    assert where["t"] > 1.0


def test_strict_locality_never_relaxes():
    env, cluster, rm = make_rm(num_nodes=4, nodes_per_rack=2)
    nm0 = rm.node_managers["node0000"]
    nm0.used = nm0.total
    got = []

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL, nodes=["node0000"],
                               racks=[], relax_locality=False)
        c = yield ctx.allocated.get()
        got.append(c)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    rm.submit_application("strict", am)
    env.run(until=200)
    assert got == []  # starved forever, never placed off-node


def test_container_reuse_keeps_jvm_warm():
    env, cluster, rm = make_rm()
    timings = []

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL)
        c = yield ctx.allocated.get()

        def runner(container):
            for _ in range(3):
                start = env.now
                yield env.timeout(container.compute_delay(2.0))
                timings.append(env.now - start)
                container.tasks_run += 1

        ctx.launch_container(c, runner)
        yield ctx.completed.get()
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("warm", am)
    env.run(until=handle.completion)
    assert len(timings) == 3
    assert timings[0] > timings[-1]          # cold start slower
    assert timings[-1] == pytest.approx(2.0)  # warm runs at full speed


def test_am_retry_after_crash():
    env, cluster, rm = make_rm()
    attempts = []

    def am(ctx):
        attempts.append(ctx.attempt)
        ctx.register()
        if ctx.attempt == 1:
            yield env.timeout(1)
            raise RuntimeError("AM crash")
        yield env.timeout(1)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("flaky", am, max_attempts=2)
    env.run(until=handle.completion)
    assert attempts == [1, 2]
    assert handle.final_status == FinalApplicationStatus.SUCCEEDED


def test_am_fails_after_max_attempts():
    env, cluster, rm = make_rm()

    def am(ctx):
        ctx.register()
        yield env.timeout(1)
        raise RuntimeError("always dies")

    handle = rm.submit_application("doomed", am, max_attempts=2)
    env.run(until=handle.completion)
    assert handle.final_status == FinalApplicationStatus.FAILED
    assert "always dies" in handle.diagnostics


def test_node_crash_kills_containers_and_notifies_am():
    env, cluster, rm = make_rm()
    events = []

    def am(ctx):
        ctx.register()
        ctx.on_node_loss(lambda node: events.append(("lost", node.node_id)))
        ctx.request_containers(TASK_PRI, SMALL)
        c = yield ctx.allocated.get()

        def long_task(container):
            yield env.timeout(1000)

        ctx.launch_container(c, long_task)

        def crasher():
            yield env.timeout(10)
            cluster.crash_node(c.node_id)

        env.process(crasher())
        status = yield ctx.completed.get()
        events.append(("status", status.exit_status))
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("crash", am)
    env.run(until=handle.completion)
    kinds = [e[0] for e in events]
    assert "lost" in kinds
    assert ("status", ContainerExitStatus.NODE_LOST) in events


def test_release_unlaunched_container():
    env, cluster, rm = make_rm()

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL)
        c = yield ctx.allocated.get()
        ctx.release_container(c.container_id)
        yield env.timeout(1)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("release", am)
    env.run(until=handle.completion)
    env.run(until=env.now + 5)
    for nm in rm.node_managers.values():
        assert nm.used == Resource(0, 0)


def test_release_container_live_completed_and_node_crashed():
    # release_container finds the node through the app's own live set
    # (not a scan of every NodeManager); the three ways a release can
    # find its container must all end with the books balanced.
    env, cluster, rm = make_rm()
    seen = {}

    def am(ctx):
        ctx.register()
        ctx.request_containers(TASK_PRI, SMALL, count=3)
        live = yield ctx.allocated.get()
        done = yield ctx.allocated.get()
        doomed = yield ctx.allocated.get()

        def quick(container):
            yield env.timeout(container.compute_delay(0.5))

        def slow(container):
            yield env.timeout(container.compute_delay(1000.0))

        # (1) a live, launched container: released -> ABORTED status.
        ctx.launch_container(live, slow)
        yield env.timeout(5)
        ctx.release_container(live.container_id)
        status = yield ctx.completed.get()
        seen["live"] = (status.container_id == live.container_id,
                        status.exit_status)
        # (2) one that already ran to completion: a no-op.
        ctx.launch_container(done, quick)
        status = yield ctx.completed.get()
        assert status.container_id == done.container_id
        ctx.release_container(done.container_id)
        # (3) one whose node crashed under it: the NM already reaped it.
        ctx.launch_container(doomed, slow)
        yield env.timeout(5)
        cluster.nodes[doomed.node_id].crash()
        status = yield ctx.completed.get()
        seen["doomed"] = status.exit_status
        ctx.release_container(doomed.container_id)
        yield env.timeout(1)
        seen["used"] = ctx.app.used_resource()
        seen["live_ids"] = set(ctx.app.live_containers)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = rm.submit_application("release", am)
    env.run(until=handle.completion)
    assert handle.final_status == FinalApplicationStatus.SUCCEEDED
    assert seen["live"] == (True, ContainerExitStatus.ABORTED)
    assert seen["doomed"] == ContainerExitStatus.NODE_LOST
    # Only the AM's own container is still held.
    assert seen["used"] == Resource(2048, 1)
    assert len(seen["live_ids"]) == 1
    env.run(until=env.now + 5)
    assert rm.scheduler.queue_used("default") == Resource(0, 0)
    for nm in rm.node_managers.values():
        assert nm.used == Resource(0, 0)


def test_capacity_queues_share_cluster():
    queues = [QueueConfig("a", 0.5), QueueConfig("b", 0.5)]
    env, cluster, rm = make_rm(num_nodes=2, nodes_per_rack=2, queues=queues)
    finish = {}

    def make_am(name, n_tasks):
        def am(ctx):
            ctx.register()
            ctx.request_containers(TASK_PRI, SMALL, count=n_tasks)

            def launcher():
                for _ in range(n_tasks):
                    c = yield ctx.allocated.get()

                    def task(container):
                        yield env.timeout(container.compute_delay(3.0))

                    ctx.launch_container(c, task)

            env.process(launcher())
            for _ in range(n_tasks):
                yield ctx.completed.get()
            finish[name] = env.now
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)
        return am

    h1 = rm.submit_application("qa", make_am("a", 4), queue="a")
    h2 = rm.submit_application("qb", make_am("b", 4), queue="b")
    env.run(until=h1.completion)
    env.run(until=h2.completion)
    assert h1.final_status == FinalApplicationStatus.SUCCEEDED
    assert h2.final_status == FinalApplicationStatus.SUCCEEDED
    # Both made progress concurrently: finish times are close.
    assert abs(finish["a"] - finish["b"]) < 30


def test_unknown_queue_rejected():
    env, cluster, rm = make_rm()
    with pytest.raises(ValueError):
        rm.submit_application("bad", lambda ctx: iter(()), queue="nope")


class TestSecurity:
    def test_token_roundtrip(self):
        sm = SecurityManager()
        tok = sm.issue("AMRM", "app1")
        sm.verify(tok, "AMRM", "app1")

    def test_wrong_kind_rejected(self):
        sm = SecurityManager()
        tok = sm.issue("NM", "app1")
        with pytest.raises(AuthenticationError):
            sm.verify(tok, "AMRM", "app1")

    def test_wrong_owner_rejected(self):
        sm = SecurityManager()
        tok = sm.issue("AMRM", "app1")
        with pytest.raises(AuthenticationError):
            sm.verify(tok, "AMRM", "app2")

    def test_forged_signature_rejected(self):
        from repro.yarn import Token
        sm = SecurityManager()
        with pytest.raises(AuthenticationError):
            sm.verify(Token("AMRM", "app1", "deadbeef"), "AMRM", "app1")

    def test_missing_token_rejected(self):
        sm = SecurityManager()
        with pytest.raises(AuthenticationError):
            sm.verify(None, "AMRM")

    def test_disabled_security_allows_all(self):
        sm = SecurityManager(enabled=False)
        sm.verify(None, "AMRM")

    def test_forgery_rejected_after_valid_token_verified(self):
        # Signatures are memoized per (kind, owner): a cached principal
        # must not let a wrong signature for that principal through.
        from repro.yarn import Token
        sm = SecurityManager()
        tok = sm.issue("AMRM", "app1")
        sm.verify(tok, "AMRM", "app1")
        sm.verify(tok, "AMRM", "app1")
        with pytest.raises(AuthenticationError):
            sm.verify(Token("AMRM", "app1", "0" * 24), "AMRM", "app1")
        with pytest.raises(AuthenticationError):
            sm.verify(Token("AMRM", "app1", ""), "AMRM", "app1")
        sm.verify(tok, "AMRM", "app1")

    def test_managers_with_different_secrets_share_nothing(self):
        a = SecurityManager(secret=b"a")
        b = SecurityManager(secret=b"b")
        tok_a = a.issue("NM", "app1")
        tok_b = b.issue("NM", "app1")
        assert tok_a.signature != tok_b.signature
        a.verify(tok_a, "NM", "app1")
        b.verify(tok_b, "NM", "app1")
        with pytest.raises(AuthenticationError):
            a.verify(tok_b, "NM", "app1")
        with pytest.raises(AuthenticationError):
            b.verify(tok_a, "NM", "app1")

    def test_disabled_security_short_circuits_before_signing(self):
        from repro.yarn import Token
        sm = SecurityManager(enabled=False)
        sm.verify(Token("AMRM", "app1", "forged"), "NM", "someone-else")
        assert sm._signatures == {}

    def test_unregistered_am_cannot_request(self):
        env, cluster, rm = make_rm()
        errors = []

        def am(ctx):
            # Never calls register(): requests must be rejected.
            try:
                ctx.request_containers(TASK_PRI, SMALL)
            except AuthenticationError:
                errors.append("denied")
            yield env.timeout(1)
            ctx.amrm_token = rm.security.issue("AMRM", str(ctx.app_id))
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)

        handle = rm.submit_application("sec", am)
        env.run(until=handle.completion)
        assert errors == ["denied"]


class TestResourceRecords:
    def test_fits_in(self):
        assert Resource(512, 1).fits_in(Resource(1024, 2))
        assert not Resource(2048, 1).fits_in(Resource(1024, 2))

    def test_arithmetic(self):
        assert Resource(1, 1) + Resource(2, 3) == Resource(3, 4)
        assert Resource(3, 4) - Resource(2, 3) == Resource(1, 1)

    def test_dominant_share(self):
        total = Resource(100, 10)
        assert Resource(50, 1).dominant_share(total) == pytest.approx(0.5)
        assert Resource(10, 8).dominant_share(total) == pytest.approx(0.8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Resource(-1, 0)


# ---------------------------------------------------------------------------
# Scheduler hot-path properties: delay scheduling, pruning, and the
# equivalence of the indexed/aggregate bookkeeping with a scan-everything
# reference kept in this file.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.yarn import ApplicationId, CapacityScheduler, NodeManager, SchedulerApp

def make_scheduler(num_nodes=4, nodes_per_rack=2, queues=None,
                   node_delay=None, rack_delay=None,
                   scheduler_cls=CapacityScheduler):
    """A bare CapacityScheduler: no RM, no heartbeats — ticks are driven
    by hand so delay-scheduling counters can be asserted per tick."""
    spec = ClusterSpec(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        memory_per_node_mb=8192,
        cores_per_node=8,
    )
    env = Environment()
    cluster = Cluster(env, spec)
    security = SecurityManager(enabled=False)
    nms = {
        node_id: NodeManager(env, node, security, lambda status, c: None)
        for node_id, node in cluster.nodes.items()
    }
    sched = scheduler_cls(
        env, cluster, nms, queues,
        node_locality_delay=node_delay, rack_locality_delay=rack_delay,
    )
    return env, cluster, sched


def _app(sched, num=None, queue="default"):
    app = SchedulerApp(ApplicationId(0, num or 900), queue, "user")
    sched.add_app(app)
    return app


def test_missed_opportunities_reset_on_node_local():
    env, cluster, sched = make_scheduler(node_delay=100, rack_delay=200)
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, ["node0002"], ["rack1"], True)
    app.missed_opportunities = 7   # pretend it has been waiting a while
    allocations = sched.tick()
    # Rotation offers node0001 first (a miss), then node0002 NODE_LOCAL.
    assert [c.node_id for c in allocations] == ["node0002"]
    assert sched.allocation_log[-1][3] == "NODE_LOCAL"
    assert app.missed_opportunities == 0


def test_rack_fallback_unlocks_at_node_delay():
    env, cluster, sched = make_scheduler(node_delay=3, rack_delay=100)
    # The preferred node is full, its rack-mate is free.
    full = sched.node_managers["node0002"]
    full.used = full.total
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, ["node0002"], ["rack1"], False)
    assert sched.tick() == []          # 3 misses: still node-delay-gated
    assert app.missed_opportunities == 3
    allocations = sched.tick()         # threshold reached -> rack-local
    assert [c.node_id for c in allocations] == ["node0003"]
    assert sched.allocation_log == [
        (0.0, str(app.app_id), "node0003", "RACK_LOCAL")
    ]


def test_off_switch_unlocks_at_rack_delay():
    env, cluster, sched = make_scheduler(node_delay=2, rack_delay=5)
    # The preferred node and its whole rack are full.
    for node_id in ("node0002", "node0003"):
        nm = sched.node_managers[node_id]
        nm.used = nm.total
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, ["node0002"], ["rack1"], True)
    assert sched.tick() == []          # misses 1, 2
    assert sched.tick() == []          # misses 3, 4
    allocations = sched.tick()         # miss 5, then unlock
    assert [c.node_id for c in allocations] == ["node0001"]
    assert sched.allocation_log[-1][3] == "OFF_SWITCH"


def test_blacklisted_node_never_allocated_despite_local_ask():
    env, cluster, sched = make_scheduler(node_delay=1, rack_delay=2)
    app = _app(sched)
    app.blacklist.add("node0002")
    app.add_ask(TASK_PRI, SMALL, ["node0002"], ["rack1"], True)
    allocations = sched.tick()
    # The blacklisted node is skipped silently (no missed-opportunity
    # bump), the first non-blacklisted offer misses, and the rack-mate
    # satisfies the ask at RACK_LOCAL once the node delay is met.
    assert [c.node_id for c in allocations] == ["node0003"]
    assert sched.allocation_log[-1][3] == "RACK_LOCAL"
    assert all(entry[2] != "node0002" for entry in sched.allocation_log)


def test_ask_table_pruned_when_fully_consumed():
    env, cluster, sched = make_scheduler()
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, [], [], True)
    assert TASK_PRI in app.asks
    assert len(sched.tick()) == 1
    assert TASK_PRI not in app.asks    # empty table pruned
    # remove_ask down to empty prunes too.
    app.add_ask(TASK_PRI, SMALL, ["node0001"], ["rack0"], True, count=2)
    app.remove_ask(TASK_PRI, ["node0001"], ["rack0"], True, count=2)
    assert TASK_PRI not in app.asks


def test_used_resource_tracks_allocations_and_completions():
    env, cluster, sched = make_scheduler()
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, [], [], True, count=3)
    allocations = sched.tick()
    assert len(allocations) == 3
    assert app.used_resource() == Resource(3 * 1024, 3)
    assert sched.queue_used("default") == Resource(3 * 1024, 3)
    done = allocations[0]
    sched.node_managers[done.node_id].unreserve(done)
    sched.container_completed(app.app_id, done.container_id)
    assert app.used_resource() == Resource(2 * 1024, 2)
    assert sched.queue_used("default") == Resource(2 * 1024, 2)


def test_event_driven_rm_skips_idle_heartbeats():
    env, cluster, rm = make_rm()
    env.run(until=10.0)
    assert rm.ticks_skipped > 0        # nothing to schedule: ticks skip


def test_missed_opportunities_total_is_cumulative():
    env, cluster, sched = make_scheduler(node_delay=100, rack_delay=200)
    app = _app(sched)
    app.add_ask(TASK_PRI, SMALL, ["node0002"], ["rack1"], True)
    assert sched.missed_opportunities_total == 0
    sched.tick()        # node0001 declines (a miss), node0002 grants
    assert app.missed_opportunities == 0        # reset by NODE_LOCAL
    assert sched.missed_opportunities_total == 1   # the total is not


def test_missed_opportunities_published_once_per_tick():
    from repro import SimCluster

    class Recording:
        """Stands in for the RM's handle on the registry counter."""

        def __init__(self, counter):
            self.counter, self.steps = counter, []

        def inc(self, delta):
            self.steps.append(delta)
            self.counter.inc(delta)

    sim = SimCluster(num_nodes=4, nodes_per_rack=2)
    counter = sim.telemetry.metrics.counter(
        "yarn.scheduler.missed_opportunities")
    recording = sim.rm._m_missed = Recording(counter)

    def am(ctx):
        ctx.register()
        # A strict ask for a node the app refuses: each of the other
        # three nodes' offers is a delay-scheduling miss, every tick.
        ctx.update_blacklist(additions=["node0002"])
        ctx.request_containers(TASK_PRI, SMALL, nodes=["node0002"],
                               relax_locality=False)
        yield sim.env.timeout(10)
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    handle = sim.rm.submit_application("misser", am)
    sim.env.run(until=handle.completion)
    total = sim.rm.scheduler.missed_opportunities_total
    assert total > 0
    assert counter.value == total
    # One increment per tick, carrying that tick's three misses.
    assert recording.steps == [3] * (total // 3)
    # A registry counter only: nothing per miss reaches the span store.
    kinds = {rec["kind"]
             for rec in sim.telemetry.spanstore.iter_event_records()}
    assert kinds and not any("missed" in kind for kind in kinds)


def test_ticks_skipped_counter_and_histogram_in_telemetry():
    from repro import SimCluster

    sim = SimCluster(num_nodes=2, nodes_per_rack=2)
    sim.env.run(until=10.0)
    metrics = sim.telemetry.metrics
    assert metrics.counter("yarn.scheduler.ticks_skipped").value > 0
    assert metrics.histogram("yarn.scheduler.tick_seconds").count > 0


# -- frozen reference: a scan-everything offer path --------------------------
#
# The offer path as it stood before any index, aggregate or memo, kept
# here as the reference: every app is consulted on every node, and
# whether a table holds node- or rack-level asks is found by scanning its
# counts. It shares `_allocate` with the scheduler under test and none of
# the offer-path code, so a slip in the shipped `_assign_on_node` /
# `_try_assign` (a wrongly skipped app or node, a stale memo, a counter
# that drifted from its table) shows as a different allocation log.

from helpers import bare_scheduler
from repro.yarn.scheduler import NODE_LOCAL, OFF_SWITCH, RACK_LOCAL_LEVEL


class _FrozenOfferPath(CapacityScheduler):
    def _assign_on_node(self, node_id):
        nm = self.node_managers[node_id]
        rack = self.cluster.nodes[node_id].rack
        allocations = []
        progress = True
        while progress:
            progress = False
            for app in self._ordered_apps():
                container = self._try_assign(app, nm, node_id, rack)
                if container is not None:
                    allocations.append(container)
                    progress = True
                    break
        return allocations

    def _try_assign(self, app, nm, node_id, rack):
        if node_id in app.blacklist:
            return None
        had_local_ask = False
        for priority in sorted(app.asks):
            table = app.asks[priority]
            if table.pending() <= 0:
                continue
            if not nm.can_fit(table.capability):
                continue
            if self._queue_over_max(app.queue, table.capability):
                continue
            # NODE_LOCAL
            if table.node_counts.get(node_id, 0) > 0:
                return self._allocate(app, nm, priority, table, NODE_LOCAL,
                                      node_id, rack)
            node_asks = any(v > 0 for v in table.node_counts.values())
            rack_asks = any(v > 0 for v in table.rack_counts.values())
            if node_asks:
                had_local_ask = True
            # RACK_LOCAL (allowed after node delay, or if no node asks)
            if table.rack_counts.get(rack, 0) > 0 and (
                not node_asks
                or app.missed_opportunities >= self.node_locality_delay
            ):
                return self._allocate(app, nm, priority, table,
                                      RACK_LOCAL_LEVEL, node_id, rack)
            # OFF_SWITCH (allowed after rack delay, or if ANY-only asks)
            if table.any_count > 0 and (
                (not node_asks and not rack_asks)
                or app.missed_opportunities >= self.rack_locality_delay
            ):
                return self._allocate(app, nm, priority, table, OFF_SWITCH,
                                      node_id, rack)
        if had_local_ask:
            app.missed_opportunities += 1
            self.mark_dirty()
        return None


def _assert_aggregates_equal_rescans(sched, apps):
    """The running aggregates against what they stand for: sums over
    live containers and alive nodes."""
    def total(resources):
        out = Resource(0, 0)
        for resource in resources:
            out = out + resource
        return out

    for app in apps:
        assert app.used_resource() == total(
            c.resource for c in app.live_containers.values())
        for table in app.asks.values():
            assert table.node_nonzero == sum(
                v > 0 for v in table.node_counts.values())
            assert table.rack_nonzero == sum(
                v > 0 for v in table.rack_counts.values())
    for queue in sched.queues:
        assert sched.queue_used(queue) == total(
            c.resource for app in sched.apps.values()
            if app.queue == queue for c in app.live_containers.values())
    assert sched.cluster_resource() == total(
        nm.total for nm in sched.node_managers.values() if nm.node.alive)


# -- randomized equivalence: shipped scheduler vs the frozen reference -------

_EQUIV_QUEUES = [QueueConfig("q0", 0.6, 0.8), QueueConfig("q1", 0.4, 1.0)]
_EQUIV_CAPS = {1: Resource(1024, 1), 2: Resource(2048, 2),
               3: Resource(4096, 1)}

_ask_op = st.tuples(
    st.just("ask"), st.integers(0, 2), st.integers(1, 3),
    st.lists(st.integers(0, 5), max_size=3), st.booleans(),
    st.integers(1, 3),
)
_ops = st.lists(
    st.one_of(
        _ask_op,
        st.tuples(st.just("tick")),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        st.tuples(st.just("blacklist"), st.integers(0, 2),
                  st.integers(0, 5)),
        st.tuples(st.just("crash"), st.integers(0, 5)),
        st.tuples(st.just("restart"), st.integers(0, 5)),
    ),
    min_size=1, max_size=25,
)


def _run_script(ops, scheduler_cls):
    """Drive one scheduler through a scripted op sequence; return its
    observable behaviour for comparison with the other class."""
    env, cluster, sched = make_scheduler(
        num_nodes=6, nodes_per_rack=3, queues=_EQUIV_QUEUES,
        node_delay=2, rack_delay=4, scheduler_cls=scheduler_cls,
    )
    apps = [
        SchedulerApp(ApplicationId(0, 800 + i), f"q{i % 2}", "user")
        for i in range(3)
    ]
    for app in apps:
        sched.add_app(app)
    live: list = []   # containers in allocation order, for completions
    for op in ops:
        kind = op[0]
        if kind == "ask":
            _, app_idx, pri, node_idxs, relax, count = op
            nodes = sorted({f"node{i:04d}" for i in node_idxs})
            racks = sorted({cluster.nodes[n].rack for n in nodes})
            apps[app_idx].add_ask(Priority(pri), _EQUIV_CAPS[pri],
                                  nodes, racks, relax, count)
        elif kind == "tick":
            live.extend(sched.tick())
        elif kind == "complete":
            alive = [c for c in live
                     if c.container_id in
                     sched.node_managers[c.node_id].containers]
            if alive:
                victim = alive[op[1] % len(alive)]
                sched.node_managers[victim.node_id].unreserve(victim)
                sched.container_completed(victim.container_id.app_id,
                                          victim.container_id)
                live.remove(victim)
        elif kind == "blacklist":
            _, app_idx, node_idx = op
            apps[app_idx].blacklist.add(f"node{node_idx:04d}")
            sched.mark_dirty()
        elif kind == "crash":
            cluster.nodes[f"node{op[1]:04d}"].crash()
        elif kind == "restart":
            cluster.nodes[f"node{op[1]:04d}"].restart()
        _assert_aggregates_equal_rescans(sched, apps)
    live.extend(sched.tick())
    return {
        "log": list(sched.allocation_log),
        "queue_used": {q: sched.queue_used(q) for q in ("q0", "q1")},
        "cluster": sched.cluster_resource(),
        "used": [app.used_resource() for app in apps],
        "missed": [app.missed_opportunities for app in apps],
        "pending": [app.total_pending() for app in apps],
    }


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_randomized_allocation_log_equivalence(ops):
    frozen = _run_script(ops, _FrozenOfferPath)
    current = _run_script(ops, CapacityScheduler)
    assert current["log"] == frozen["log"]
    assert current == frozen


# -- the same reference in lock-step, through a richer scripted world --------

# 4 nodes x (4096 MB, 4 cores) = (16384 MB, 16 cores). q0 is capped at
# exactly 8 SMALL containers: the 8th lands on max_capacity, the 9th is
# over it. Priority 3 asks for more memory than any node has.
_ORACLE_QUEUES = [QueueConfig("q0", 0.5, 0.5), QueueConfig("q1", 0.5, 1.0)]
_ORACLE_CAPS = {1: Resource(1024, 1), 2: Resource(2048, 2),
                3: Resource(8192, 1), 4: Resource(1024, 1)}
_ORACLE_NODES = 4


class _OracleRig:
    """One scheduler (frozen or current) plus the scripted world around
    it; two rigs are driven in lock-step and compared after every op."""

    def __init__(self, scheduler_cls, preemption):
        self.env, self.cluster, self.sched = bare_scheduler(
            scheduler_cls, _ORACLE_QUEUES,
            num_nodes=_ORACLE_NODES, nodes_per_rack=2,
            memory_per_node_mb=4096, cores_per_node=4,
            node_locality_delay=2, rack_locality_delay=4,
            preemption_enabled=preemption,
        )
        self.apps = [
            SchedulerApp(ApplicationId(0, 700 + i), f"q{i % 2}", "user")
            for i in range(3)
        ]
        # App 2 arrives with asks already in its book: add_app adopts.
        self.apps[2].add_ask(Priority(1), _ORACLE_CAPS[1], ["node0001"],
                             ["rack0"], True, 2)
        for app in self.apps:
            self.sched.add_app(app)

    def _stop_oldest(self, app):
        """Complete the app's oldest live container, wherever it runs."""
        if app.live_containers:
            cid = min(app.live_containers)
            container = app.live_containers[cid]
            self.sched.node_managers[container.node_id].stop_container(cid)

    def apply(self, op):
        kind = op[0]
        sched, apps = self.sched, self.apps
        if kind == "ask":
            _, app_idx, pri, node_idxs, relax, count = op
            nodes = sorted({f"node{i:04d}" for i in node_idxs})
            racks = sorted({self.cluster.nodes[n].rack for n in nodes})
            apps[app_idx].add_ask(Priority(pri), _ORACLE_CAPS[pri],
                                  nodes, racks, relax, count)
        elif kind == "cancel":
            _, app_idx, pri, node_idxs, relax, count = op
            nodes = sorted({f"node{i:04d}" for i in node_idxs})
            racks = sorted({self.cluster.nodes[n].rack for n in nodes})
            apps[app_idx].remove_ask(Priority(pri), nodes, racks, relax,
                                     count)
        elif kind == "tick":
            sched.tick()
        elif kind == "complete":
            self._stop_oldest(apps[op[1]])
        elif kind == "blacklist":
            apps[op[1]].blacklist.add(f"node{op[2]:04d}")
            sched.mark_dirty()
        elif kind == "unblacklist":
            apps[op[1]].blacklist.discard(f"node{op[2]:04d}")
            sched.mark_dirty()
        elif kind == "crash":
            self.cluster.nodes[f"node{op[1]:04d}"].crash()
        elif kind == "restart":
            self.cluster.nodes[f"node{op[1]:04d}"].restart()
        elif kind == "remove":
            sched.remove_app(apps[op[1]].app_id)
        elif kind == "add":
            # Adopts the ask book (possibly edited while unregistered)
            # and the live containers the app still holds.
            if apps[op[1]].app_id not in sched.apps:
                sched.add_app(apps[op[1]])
        elif kind == "hook_complete":
            # From now on every grant to app A completes app B's oldest
            # container *inside* the offer loop: queue usage (and maybe
            # the offered node's spare capacity) moves between two
            # offers of one tick.
            victim = apps[op[2]]
            apps[op[1]].on_allocate = lambda c: self._stop_oldest(victim)
        elif kind == "hook_crash":
            node = self.cluster.nodes[f"node{op[2]:04d}"]
            apps[op[1]].on_allocate = lambda c: node.crash()
        elif kind == "unhook":
            apps[op[1]].on_allocate = None
        else:
            raise AssertionError(kind)

    def observe(self):
        sched = self.sched
        return {
            "log": list(sched.allocation_log),
            "missed": [a.missed_opportunities for a in self.apps],
            "needs_tick": sched.needs_tick(),
            "queue_used": {q: sched.queue_used(q) for q in ("q0", "q1")},
            "cluster": sched.cluster_resource(),
            "pending": [a.total_pending() for a in self.apps],
            "node_used": {n: nm.used
                          for n, nm in sched.node_managers.items()},
        }


def _assert_matches_frozen(ops, preemption):
    frozen = _OracleRig(_FrozenOfferPath, preemption)
    current = _OracleRig(CapacityScheduler, preemption)
    assert current.observe() == frozen.observe()
    for step, op in enumerate(ops):
        frozen.apply(op)
        current.apply(op)
        assert current.observe() == frozen.observe(), (step, op)
        for app in current.apps:
            assert app._ordered_asks() == sorted(app.asks.items())
        _assert_aggregates_equal_rescans(current.sched, current.apps)
    frozen.apply(("tick",))
    current.apply(("tick",))
    assert current.observe() == frozen.observe()
    return current


_node_idx = st.integers(0, _ORACLE_NODES - 1)
_app_idx = st.integers(0, 2)
_ask_args = (_app_idx, st.integers(1, 4),
             st.lists(_node_idx, max_size=2), st.booleans())
_oracle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ask"), *_ask_args, st.integers(1, 9)),
        st.tuples(st.just("cancel"), *_ask_args, st.integers(1, 3)),
        st.tuples(st.just("tick")),
        st.tuples(st.just("tick")),
        st.tuples(st.just("complete"), _app_idx),
        st.tuples(st.just("blacklist"), _app_idx, _node_idx),
        st.tuples(st.just("unblacklist"), _app_idx, _node_idx),
        st.tuples(st.just("crash"), _node_idx),
        st.tuples(st.just("restart"), _node_idx),
        st.tuples(st.just("remove"), _app_idx),
        st.tuples(st.just("add"), _app_idx),
        st.tuples(st.just("hook_complete"), _app_idx, _app_idx),
        st.tuples(st.just("hook_crash"), _app_idx, _node_idx),
        st.tuples(st.just("unhook"), _app_idx),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(ops=_oracle_ops, preemption=st.booleans())
def test_offer_path_matches_frozen_oracle(ops, preemption):
    _assert_matches_frozen(ops, preemption)


# The scenarios the rewrite's three shortcuts must survive, spelled out so
# they run on every invocation whatever Hypothesis happens to draw.

def test_oracle_full_node_skip_still_consults_fitting_asks():
    # Priority 3 fits no node. It is asked first, so the skip's
    # capability set starts with a member that never fits; the SMALL
    # asks must still be offered every node and still count misses.
    ops = [
        ("ask", 0, 3, [0], True, 2),
        ("tick",),
        ("ask", 0, 1, [1], True, 5),
        ("ask", 1, 2, [2, 3], False, 3),
        ("tick",), ("tick",), ("tick",),
    ]
    rig = _assert_matches_frozen(ops, False)
    assert len(rig.sched.allocation_log) == 2 + 5 + 3
    assert rig.apps[0].total_pending() == 2     # the unfittable asks


def test_oracle_queue_at_max_drops_below_mid_tick():
    # q0 (apps 0 and 2) fills to exactly max_capacity, with more asks
    # pending: every further q0 consult is declined at the queue check.
    # Then each grant to app 1 (q1) completes one q0 container inside
    # the offer loop, so q0 drops below max between two offers of one
    # tick and must be granted again in that same tick.
    ops = [
        ("cancel", 2, 1, [1], True, 2),
        ("ask", 0, 1, [], True, 9),
        ("tick",),
        ("hook_complete", 1, 0),
        ("ask", 1, 4, [], True, 2),
        ("tick",),
        ("tick",),
    ]
    rig = _assert_matches_frozen(ops, False)
    log = rig.sched.allocation_log
    q0_grants = [e for e in log if e[1] == str(rig.apps[0].app_id)]
    assert len(q0_grants) == 9                  # 8 at max, 9th after a drop
    assert rig.sched.queue_used("q0") == Resource(7 * 1024, 7)


def test_oracle_cluster_total_change_moves_queue_limit():
    # q0 sits at max; a node crash shrinks the cluster (q0 is now over
    # max), the restart grows it back: the limit verdict must follow.
    ops = [
        ("cancel", 2, 1, [1], True, 2),
        ("ask", 0, 1, [], True, 12),
        ("tick",),
        ("crash", 3), ("tick",),
        ("complete", 0), ("tick",),
        ("restart", 3), ("tick",),
        ("complete", 0), ("complete", 0), ("tick",),
    ]
    _assert_matches_frozen(ops, False)


def test_oracle_empty_node_crash_tightens_queue_limit():
    # q0 holds 6 SMALL on nodes 1 and 2 and is consulted (under max,
    # declined on locality) for a strict ask on blacklisted node 0.
    # Crashing empty node 3 completes nothing but shrinks the cluster:
    # 7 SMALL is now over max, so node 0 must still decline once the
    # blacklist is lifted - and grant again after the restart.
    ops = [
        ("cancel", 2, 1, [1], True, 2),
        ("ask", 0, 1, [], True, 6), ("tick",),
        ("blacklist", 0, 0), ("ask", 0, 1, [0], False, 1), ("tick",),
        ("crash", 3), ("unblacklist", 0, 0), ("tick",),
    ]
    rig = _assert_matches_frozen(ops, False)
    assert len(rig.sched.allocation_log) == 6
    rig = _assert_matches_frozen(ops + [("restart", 3), ("tick",)],
                                 False)
    assert len(rig.sched.allocation_log) == 7


def test_oracle_remove_and_add_app_move_queue_limit():
    # Apps 0 and 2 share q0. App 0 fills it to max, so app 2's ask is
    # declined at the queue check; removing app 0 empties the queue and
    # app 2 must be granted. Re-adding app 0 (adopting its 8 live
    # containers) puts q0 over max again: app 2's next ask must wait.
    ops = [
        ("cancel", 2, 1, [1], True, 2),
        ("ask", 0, 1, [], True, 8), ("tick",),
        ("ask", 2, 1, [], True, 1), ("tick",),
        ("remove", 0), ("tick",),
        ("blacklist", 2, 3), ("ask", 2, 1, [3], False, 1), ("tick",),
        ("add", 0), ("unblacklist", 2, 3), ("tick",),
    ]
    rig = _assert_matches_frozen(ops, False)
    app2 = str(rig.apps[2].app_id)
    assert [e[1] for e in rig.sched.allocation_log].count(app2) == 1
    assert rig.apps[2].total_pending() == 1


def test_oracle_table_pruned_and_recreated_at_same_priority():
    ops = [
        ("ask", 0, 2, [0], True, 1), ("ask", 0, 4, [1], True, 1),
        ("tick",),                      # both tables consumed (pruned)
        ("ask", 0, 4, [2], True, 1),    # priority 4 re-created first
        ("ask", 0, 2, [3], True, 1),
        ("ask", 0, 1, [3], True, 1),    # and a new lowest priority
        ("tick",),
        ("cancel", 0, 1, [3], True, 1), ("ask", 0, 1, [0], False, 1),
        ("tick",),
    ]
    _assert_matches_frozen(ops, False)


def test_oracle_adoption_removal_blacklist_and_preemption():
    ops = [
        ("blacklist", 2, 1),            # app 2's adopted asks want node 1
        ("ask", 1, 4, [], True, 14),    # q1 takes nearly everything
        ("tick",), ("tick",),
        ("remove", 1),
        ("ask", 1, 2, [0], True, 1),    # edited while unregistered
        ("tick",),
        ("add", 1),                     # adopt live containers + asks
        ("ask", 0, 1, [2], True, 4),    # q0 starved -> preemption
        ("tick",), ("tick",),
        ("unblacklist", 2, 1),
        ("hook_crash", 0, 2),
        ("tick",), ("tick",),
        ("restart", 2), ("unhook", 0),
        ("tick",), ("tick",),
    ]
    rig = _assert_matches_frozen(ops, True)
    assert rig.sched.allocation_log
