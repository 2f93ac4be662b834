"""Golden allocation logs for the capacity scheduler.

``tests/golden/scheduler_allocation_logs.json`` holds the sha256 of
the allocation log (app ids normalised to submission order) of four
scenarios, recorded once at commit f05d51d from the scan-everything
scheduler that then still existed, before the offer-path rewrite of
PR 14. The one scheduler there is now must reproduce them: the oracle
for "no scheduling decision changed" without a second implementation.
"""

import json
from pathlib import Path

import pytest

from control_plane_scenarios import digest, sched_heavy
from helpers import bare_scheduler
from repro.yarn import (
    ApplicationId,
    Priority,
    QueueConfig,
    Resource,
    SchedulerApp,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "scheduler_allocation_logs.json")
    .read_text()
)["sha256"]

SMALL = Resource(1024, 1)
WIDE = Resource(2048, 2)


class _World:
    """A bare scheduler with hand-driven ticks, and the apps submitted
    to it in order."""

    def __init__(self, queues=None, node_delay=None, rack_delay=None):
        self.env, self.cluster, self.sched = bare_scheduler(
            queues=queues, num_nodes=6, nodes_per_rack=3,
            memory_per_node_mb=8192, cores_per_node=8,
            node_locality_delay=node_delay, rack_locality_delay=rack_delay,
        )
        self.apps = []

    def app(self, queue="default"):
        app = SchedulerApp(ApplicationId(0, 600 + len(self.apps)), queue,
                           "user")
        self.sched.add_app(app)
        self.apps.append(app)
        return app

    def tick(self, times=1):
        for _ in range(times):
            self.env.run(until=self.env.now + 1.0)
            self.sched.tick()

    def stop(self, container):
        self.sched.node_managers[container.node_id].stop_container(
            container.container_id)

    def digest(self):
        names = {str(app.app_id): f"app{i}"
                 for i, app in enumerate(self.apps)}
        log = [(t, names[app], node, level)
               for t, app, node, level in self.sched.allocation_log]
        return digest(log)


def _fill(world, node_ids):
    """A filler app takes every SMALL slot of the given nodes."""
    filler = world.app()
    for node_id in node_ids:
        filler.add_ask(Priority(1), SMALL, [node_id], [], False, 8)
    world.tick()
    return filler


def node_delay_unlock():
    """node0001 is full: asks for it wait out the node delay and fall
    back to its rack; once it drains, strict asks land on it and reset
    the miss count, so the next rack fallback waits all over again."""
    world = _World(node_delay=3, rack_delay=100)
    filler = _fill(world, ["node0001"])
    app = world.app()
    app.add_ask(Priority(5), SMALL, ["node0001"], ["rack0"], False, 3)
    world.tick()
    assert app.missed_opportunities >= 3
    for container in list(filler.live_containers.values())[:2]:
        world.stop(container)
    app.add_ask(Priority(4), SMALL, ["node0001"], [], False, 2)
    world.tick()
    assert app.missed_opportunities < 3          # reset by NODE_LOCAL
    app.add_ask(Priority(6), WIDE, ["node0001"], ["rack0"], False, 2)
    world.tick(2)
    placed = [(node, level) for _t, a, node, level
              in world.sched.allocation_log if a == str(app.app_id)]
    assert [level for _n, level in placed] == (
        ["RACK_LOCAL"] * 3 + ["NODE_LOCAL"] * 2 + ["RACK_LOCAL"] * 2)
    assert all(node in ("node0000", "node0002")
               for node, level in placed if level == "RACK_LOCAL")
    return world.digest()


def rack_delay_unlock():
    """All of rack0 is full: asks for node0000 wait out the node delay
    (nothing on the rack either), then the rack delay, then go
    OFF_SWITCH; strict asks keep waiting."""
    world = _World(node_delay=2, rack_delay=5)
    _fill(world, ["node0000", "node0001", "node0002"])
    app = world.app()
    app.add_ask(Priority(5), SMALL, ["node0000"], ["rack0"], True, 4)
    strict = world.app()
    strict.add_ask(Priority(5), SMALL, ["node0002"], [], False, 1)
    world.tick(6)
    levels = [entry[3] for entry in world.sched.allocation_log[24:]]
    assert levels == ["OFF_SWITCH"] * 4
    assert strict.total_pending() == 1 and strict.missed_opportunities > 5
    return world.digest()


def three_queue_contention():
    """48 SMALL slots, three queues. prod alone wants 60 and is held at
    its max (28 slots) with the cluster half empty; adhoc arrives and
    is held at its own (14); batch takes the rest, and completions
    between rounds let every queue back in up to its limit."""
    queues = [QueueConfig("prod", 0.5, 0.6), QueueConfig("batch", 0.3, 0.5),
              QueueConfig("adhoc", 0.2, 0.3)]
    world = _World(queues=queues, node_delay=2, rack_delay=4)
    apps = [world.app(q) for q in ("prod", "batch", "adhoc", "prod")]
    total = world.sched.cluster_resource()
    peak = {q.name: 0.0 for q in queues}

    def ask(i, count):
        node = f"node{i:04d}"
        apps[i].add_ask(Priority(3), SMALL, [], [], True, count)
        apps[i].add_ask(Priority(4 + i % 2), WIDE, [node],
                        [world.cluster.nodes[node].rack], True, 4)

    def round_(no):
        world.tick(2)
        for q in queues:
            share = world.sched.queue_used(q.name).dominant_share(total)
            peak[q.name] = max(peak[q.name], share)
        for app in apps:
            live = sorted(app.live_containers.items())
            for _cid, container in live[no % 3::3]:
                world.stop(container)

    ask(0, 30), ask(3, 30)
    round_(0)
    ask(2, 30)
    round_(1)
    ask(1, 30)
    for no in range(2, 7):
        round_(no)
    assert peak["prod"] == 28 / 48 and peak["adhoc"] == 14 / 48
    assert peak["batch"] <= 0.5
    assert sum(app.total_pending() for app in apps) > 0
    return world.digest()


def sched_heavy_smoke():
    _makespan, log = sched_heavy()
    return digest(log)


SCENARIOS = {
    "sched_heavy_smoke": sched_heavy_smoke,
    "node_delay_unlock": node_delay_unlock,
    "rack_delay_unlock": rack_delay_unlock,
    "three_queue_contention": three_queue_contention,
}


def test_every_golden_has_a_scenario():
    assert set(GOLDEN) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_allocation_log_matches_golden(name):
    assert SCENARIOS[name]() == GOLDEN[name]
