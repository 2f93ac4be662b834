"""Capacity scheduler: queues, locality matching, delay scheduling,
preemption.

The scheduler runs on a heartbeat tick. Each tick it visits live nodes
(rotating the starting node for fairness) and offers each node's spare
capacity to applications, ordered by how far their queue is below its
guaranteed capacity (FIFO within a queue). Locality is matched YARN
style against node-level, rack-level and ANY asks, with delay
scheduling [Zaharia et al., EuroSys'10]: an application holding
node-local asks declines non-local offers until it has skipped a
configurable number of scheduling opportunities.

The bookkeeping is incremental (see DESIGN.md "Scheduler hot paths"):
per-queue used and cluster-total resources are running aggregates;
reverse ask indexes (node -> {(app, priority)}, rack -> {(app,
priority)}, any-pending and local-pending app sets) pick the apps an
offer can concern; the app ordering and a (queue, capability) over-max
memo are dropped only when usage changes; a node too full for any
capability ever asked for is skipped; each ask table counts its own
nonzero entries; empty ask tables are pruned. Resource arithmetic is
integer-exact, so every cached value equals what a rescan of live
containers and nodes would compute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cluster import Cluster
from ..sim import Environment
from ..telemetry import get_telemetry
from .container import Container
from .node_manager import NodeManager
from .records import (
    ANY,
    ApplicationId,
    ContainerExitStatus,
    ContainerId,
    Priority,
    Resource,
)

__all__ = ["CapacityScheduler", "QueueConfig", "SchedulerApp", "NODE_LOCAL",
           "RACK_LOCAL_LEVEL", "OFF_SWITCH"]

NODE_LOCAL = "NODE_LOCAL"
RACK_LOCAL_LEVEL = "RACK_LOCAL"
OFF_SWITCH = "OFF_SWITCH"

_ZERO = Resource(0, 0)


@dataclass
class QueueConfig:
    name: str
    capacity: float          # guaranteed fraction of the cluster
    max_capacity: float = 1.0

    def __post_init__(self):
        if not 0 < self.capacity <= 1.0:
            raise ValueError("queue capacity must be in (0, 1]")
        if not self.capacity <= self.max_capacity <= 1.0:
            raise ValueError("max_capacity must be in [capacity, 1]")


@dataclass
class _AskTable:
    """Per-priority ask book: counts at node, rack and ANY levels.

    ``total`` is the authoritative number of outstanding containers at
    this priority; per-level counts only steer placement. (A request
    listing three candidate nodes is still a request for *one*
    container.)

    ``node_nonzero``/``rack_nonzero`` count the entries currently > 0.
    The table's owner (:class:`SchedulerApp`, and the scheduler when an
    allocation consumes an ask) keeps them exact on every mutation.
    """

    capability: Resource
    node_counts: dict[str, int] = field(default_factory=dict)
    rack_counts: dict[str, int] = field(default_factory=dict)
    any_count: int = 0
    total: int = 0
    node_nonzero: int = 0
    rack_nonzero: int = 0

    def pending(self) -> int:
        return max(0, self.total)

    # The shift_* methods move one count by ``delta`` (floored at 0)
    # and return +1 / -1 when the entry became / stopped being
    # nonzero, else 0.
    @staticmethod
    def _shift(counts: dict[str, int], key: str, delta: int) -> int:
        old = counts.get(key, 0)
        new = counts[key] = max(0, old + delta)
        return (new > 0) - (old > 0)

    def shift_node(self, node: str, delta: int) -> int:
        flip = self._shift(self.node_counts, node, delta)
        self.node_nonzero += flip
        return flip

    def shift_rack(self, rack: str, delta: int) -> int:
        flip = self._shift(self.rack_counts, rack, delta)
        self.rack_nonzero += flip
        return flip

    def shift_any(self, delta: int) -> int:
        old = self.any_count
        self.any_count = max(0, old + delta)
        return (self.any_count > 0) - (old > 0)


class SchedulerApp:
    """Scheduler-side view of one application attempt."""

    def __init__(self, app_id: ApplicationId, queue: str, user: str):
        self.app_id = app_id
        self.queue = queue
        self.user = user
        self.asks: dict[Priority, _AskTable] = {}
        self.blacklist: set[str] = set()   # node ids this app refuses
        self.live_containers: dict[ContainerId, Container] = {}
        self.missed_opportunities = 0
        self._container_seq = itertools.count(1)
        self.on_allocate: Optional[Callable[[Container], None]] = None
        # Set by CapacityScheduler.add_app: ask mutations notify the
        # scheduler (dirty flag + reverse-index maintenance).
        self._scheduler: Optional["CapacityScheduler"] = None
        # Running sum of live-container resources, kept by the
        # scheduler that owns ``live_containers``.
        self._used: Resource = _ZERO
        # (priority, table) pairs in priority order; None when a table
        # was created or pruned since it was last built.
        self._ask_order: Optional[list[tuple[Priority, _AskTable]]] = None

    def _ordered_asks(self) -> list[tuple[Priority, _AskTable]]:
        order = self._ask_order
        if order is None:
            order = self._ask_order = sorted(self.asks.items())
        return order

    # -- ask bookkeeping ---------------------------------------------------
    def add_ask(
        self,
        priority: Priority,
        capability: Resource,
        nodes: list[str],
        racks: list[str],
        relax_locality: bool,
        count: int = 1,
    ) -> None:
        sched = self._scheduler
        table = self.asks.get(priority)
        if table is None:
            table = _AskTable(capability)
            self.asks[priority] = table
            self._ask_order = None
            if sched is not None:
                sched._asked_capabilities.add(capability)
        elif table.capability != capability:
            raise ValueError(
                f"capability mismatch at priority {priority}: "
                f"{table.capability} vs {capability}"
            )
        for node in nodes:
            if table.shift_node(node, count) and sched is not None:
                sched._index_node_up(self, priority, table, node)
        for rack in racks:
            if table.shift_rack(rack, count) and sched is not None:
                sched._index_rack_up(self, priority, rack)
        if relax_locality or (not nodes and not racks):
            if table.shift_any(count) and sched is not None:
                sched._index_any_up(self)
        table.total += count
        if sched is not None:
            sched.mark_dirty()

    def remove_ask(
        self,
        priority: Priority,
        nodes: list[str],
        racks: list[str],
        relax_locality: bool,
        count: int = 1,
    ) -> None:
        table = self.asks.get(priority)
        if table is None:
            return
        sched = self._scheduler
        for node in nodes:
            if table.shift_node(node, -count) and sched is not None:
                sched._index_node_down(self, priority, table, node)
        for rack in racks:
            if table.shift_rack(rack, -count) and sched is not None:
                sched._index_rack_down(self, priority, rack)
        if relax_locality or (not nodes and not racks):
            if table.shift_any(-count) and sched is not None:
                sched._index_any_down(self)
        table.total = max(0, table.total - count)
        self._prune(priority, table)
        if sched is not None:
            sched.mark_dirty()

    def _prune(self, priority: Priority, table: _AskTable) -> None:
        """Drop an ask table once every count in it has hit zero."""
        if (
            table.total == 0
            and table.any_count == 0
            and table.node_nonzero == 0
            and table.rack_nonzero == 0
            and self.asks.get(priority) is table
        ):
            del self.asks[priority]
            self._ask_order = None

    def total_pending(self) -> int:
        return sum(t.pending() for t in self.asks.values())

    def used_resource(self) -> Resource:
        """Resources held by this app's live containers."""
        return self._used

    def next_container_id(self) -> ContainerId:
        return ContainerId(self.app_id, next(self._container_seq))


class CapacityScheduler:
    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        node_managers: dict[str, NodeManager],
        queues: Optional[list[QueueConfig]] = None,
        node_locality_delay: Optional[int] = None,
        rack_locality_delay: Optional[int] = None,
        preemption_enabled: bool = False,
    ):
        self.env = env
        self.cluster = cluster
        self.node_managers = node_managers
        queues = queues or [QueueConfig("default", 1.0)]
        total_cap = sum(q.capacity for q in queues)
        if total_cap > 1.0 + 1e-9:
            raise ValueError("queue capacities exceed 1.0")
        self.queues = {q.name: q for q in queues}
        self.apps: dict[ApplicationId, SchedulerApp] = {}
        n = max(1, len(cluster.nodes))
        self.node_locality_delay = (
            node_locality_delay if node_locality_delay is not None else n
        )
        self.rack_locality_delay = (
            rack_locality_delay if rack_locality_delay is not None else 2 * n
        )
        self.preemption_enabled = preemption_enabled
        # Extra schedulability predicate (the RM plugs in its liveness
        # view so LOST-but-running nodes receive no new containers).
        # Set it before the first tick: the node cache is built from it.
        self.node_filter: Optional[Callable[[str], bool]] = None
        self._tick_offset = 0
        self.allocation_log: list[tuple[float, str, str, str]] = []

        # Event-driven tick support (used by the RM): the scheduler is
        # dirty until a tick provably changes nothing, and skipped
        # heartbeats bank their node-rotation advance so the rotation
        # phase matches a tick-every-heartbeat run exactly.
        self._dirty = True
        self._last_node_count = 0
        # Running aggregates and reverse ask indexes.
        self._queue_used: dict[str, Resource] = {
            name: _ZERO for name in self.queues
        }
        self._cluster_total: Resource = _ZERO
        self._order_cache: Optional[list[SchedulerApp]] = None
        # (queue, capability) -> _queue_over_max verdict. Dropped with
        # _order_cache: both are functions of _queue_used/_cluster_total.
        self._over_max: dict[tuple[str, Resource], bool] = {}
        # Every capability that ever entered an indexed ask table
        # (grow-only: a stale superset only makes the full-node skip in
        # _assign_on_node skip less).
        self._asked_capabilities: set[Resource] = set()
        # Cumulative delay-scheduling declines, all apps.
        self.missed_opportunities_total = 0
        self._node_cache: Optional[list[str]] = None
        # node id -> {app id -> {priorities with node asks there}}
        self._node_index: dict[str, dict[ApplicationId, set[Priority]]] = {}
        self._rack_index: dict[str, dict[ApplicationId, set[Priority]]] = {}
        # app id -> refcount of ask tables with any-level asks
        self._any_apps: dict[ApplicationId, int] = {}
        # app id -> refcount of tables holding node-level asks anywhere.
        # These apps must be consulted on *every* node offer: declining
        # one is what advances their delay-scheduling missed count.
        self._local_apps: dict[ApplicationId, int] = {}
        for nm in node_managers.values():
            if nm.node.alive:
                self._cluster_total = self._cluster_total + nm.total
            nm.node.on_crash(self._on_node_down)
            nm.node.on_restart(self._on_node_up)

    # -- registration -------------------------------------------------------
    def add_app(self, app: SchedulerApp) -> None:
        if app.queue not in self.queues:
            raise ValueError(f"unknown queue {app.queue!r}")
        self.apps[app.app_id] = app
        app._scheduler = self
        # Adoption: the app may arrive holding live containers and asks.
        used = Resource(0, 0)
        for c in app.live_containers.values():
            used = used + c.resource
        app._used = used
        self._queue_used[app.queue] = self._queue_used[app.queue] + used
        for priority, table in app.asks.items():
            self._index_table(app, priority, table)
        self._usage_changed()
        self.mark_dirty()

    def remove_app(self, app_id: ApplicationId) -> None:
        app = self.apps.pop(app_id, None)
        if app is None:
            return
        self._queue_used[app.queue] = (
            self._queue_used[app.queue] - app._used
        )
        for priority, table in app.asks.items():
            self._unindex_table(app, priority, table)
        self._any_apps.pop(app_id, None)
        self._local_apps.pop(app_id, None)
        self._usage_changed()
        app._scheduler = None
        # Nothing more is granted to a removed app: let go of the AM's
        # delivery callback (AMContext.app <-> app.on_allocate).
        app.on_allocate = None
        self.mark_dirty()

    # -- event-driven tick support ------------------------------------------
    def mark_dirty(self) -> None:
        """Something changed: the next heartbeat tick may make progress."""
        self._dirty = True

    def needs_tick(self) -> bool:
        return self._dirty

    def skip_tick(self) -> None:
        """Account for a skipped no-op heartbeat.

        A run tick advances the node rotation by one modulo the
        schedulable-node count (when any node is schedulable); do the
        same advance here so the rotation phase — and therefore every
        future placement — is identical to a run that ticks every
        heartbeat. The count cannot have changed since the last run
        tick: any node event marks the scheduler dirty, which forces a
        run tick instead of a skip.
        """
        if self._last_node_count:
            self._tick_offset = (
                self._tick_offset + 1
            ) % self._last_node_count

    def invalidate_nodes(self) -> None:
        """A node's schedulability changed outside the crash/restart
        hooks (RM liveness transitions)."""
        self._node_cache = None
        self.mark_dirty()

    def _on_node_down(self, node) -> None:
        nm = self.node_managers.get(node.node_id)
        if nm is not None:
            self._cluster_total = self._cluster_total - nm.total
        self._usage_changed()
        self._node_cache = None
        self.mark_dirty()

    def _on_node_up(self, node) -> None:
        nm = self.node_managers.get(node.node_id)
        if nm is not None:
            self._cluster_total = self._cluster_total + nm.total
        self._usage_changed()
        self._node_cache = None
        self.mark_dirty()

    # -- reverse ask indexes -------------------------------------------------
    # Called after the table's own nonzero counters have moved.
    def _index_node_up(self, app: SchedulerApp, priority: Priority,
                       table: _AskTable, node: str) -> None:
        self._node_index.setdefault(node, {}) \
            .setdefault(app.app_id, set()).add(priority)
        if table.node_nonzero == 1:
            self._local_apps[app.app_id] = (
                self._local_apps.get(app.app_id, 0) + 1
            )

    def _index_node_down(self, app: SchedulerApp, priority: Priority,
                         table: _AskTable, node: str) -> None:
        apps = self._node_index.get(node)
        if apps is not None:
            priorities = apps.get(app.app_id)
            if priorities is not None:
                priorities.discard(priority)
                if not priorities:
                    del apps[app.app_id]
                    if not apps:
                        del self._node_index[node]
        if table.node_nonzero == 0:
            count = self._local_apps.get(app.app_id, 0) - 1
            if count > 0:
                self._local_apps[app.app_id] = count
            else:
                self._local_apps.pop(app.app_id, None)

    def _index_rack_up(self, app: SchedulerApp, priority: Priority,
                       rack: str) -> None:
        self._rack_index.setdefault(rack, {}) \
            .setdefault(app.app_id, set()).add(priority)

    def _index_rack_down(self, app: SchedulerApp, priority: Priority,
                         rack: str) -> None:
        apps = self._rack_index.get(rack)
        if apps is not None:
            priorities = apps.get(app.app_id)
            if priorities is not None:
                priorities.discard(priority)
                if not priorities:
                    del apps[app.app_id]
                    if not apps:
                        del self._rack_index[rack]

    def _index_any_up(self, app: SchedulerApp) -> None:
        self._any_apps[app.app_id] = self._any_apps.get(app.app_id, 0) + 1

    def _index_any_down(self, app: SchedulerApp) -> None:
        count = self._any_apps.get(app.app_id, 0) - 1
        if count > 0:
            self._any_apps[app.app_id] = count
        else:
            self._any_apps.pop(app.app_id, None)

    def _index_table(self, app: SchedulerApp, priority: Priority,
                     table: _AskTable) -> None:
        """Build index entries for a table adopted via add_app (its
        nonzero counters are already exact)."""
        self._asked_capabilities.add(table.capability)
        for node, count in table.node_counts.items():
            if count > 0:
                self._node_index.setdefault(node, {}) \
                    .setdefault(app.app_id, set()).add(priority)
        if table.node_nonzero:
            self._local_apps[app.app_id] = (
                self._local_apps.get(app.app_id, 0) + 1
            )
        for rack, count in table.rack_counts.items():
            if count > 0:
                self._index_rack_up(app, priority, rack)
        if table.any_count > 0:
            self._index_any_up(app)

    def _unindex_table(self, app: SchedulerApp, priority: Priority,
                       table: _AskTable) -> None:
        for node, count in list(table.node_counts.items()):
            if count > 0:
                self._index_node_down(app, priority, table, node)
        for rack, count in list(table.rack_counts.items()):
            if count > 0:
                self._index_rack_down(app, priority, rack)
        if table.any_count > 0:
            self._index_any_down(app)

    # -- capacity accounting -------------------------------------------------
    def cluster_resource(self) -> Resource:
        return self._cluster_total

    def queue_used(self, queue: str) -> Resource:
        return self._queue_used.get(queue, _ZERO)

    def queue_usage_ratio(self, queue: str) -> float:
        total = self.cluster_resource()
        guaranteed_frac = self.queues[queue].capacity
        used = self.queue_used(queue)
        share = used.dominant_share(total)
        return share / guaranteed_frac if guaranteed_frac else float("inf")

    def _queue_over_max(self, queue: str, extra: Resource) -> bool:
        total = self.cluster_resource()
        used = self.queue_used(queue) + extra
        return used.dominant_share(total) > self.queues[queue].max_capacity + 1e-9

    def _usage_changed(self) -> None:
        """``_queue_used`` or ``_cluster_total`` was just written: drop
        everything derived from them."""
        self._order_cache = None
        self._over_max.clear()

    # -- the scheduling tick --------------------------------------------------
    def tick(self) -> list[Container]:
        """One scheduling pass over all nodes; returns new allocations."""
        self._dirty = False
        allocations: list[Container] = []
        node_ids = self._schedulable_nodes()
        self._last_node_count = len(node_ids)
        if not node_ids:
            return allocations
        self._tick_offset = (self._tick_offset + 1) % len(node_ids)
        rotated = node_ids[self._tick_offset:] + node_ids[: self._tick_offset]
        for node_id in rotated:
            allocations.extend(self._assign_on_node(node_id))
        if self.preemption_enabled:
            self._preempt_if_needed()
        return allocations

    def _schedulable_nodes(self) -> list[str]:
        if self._node_cache is None:
            self._node_cache = sorted(
                nid for nid, nm in self.node_managers.items()
                if nm.node.alive
                and (self.node_filter is None or self.node_filter(nid))
            )
        return self._node_cache

    def _ordered_apps(self) -> list[SchedulerApp]:
        if self._order_cache is None:
            ratio = {q: self.queue_usage_ratio(q) for q in self.queues}
            self._order_cache = sorted(
                self.apps.values(),
                key=lambda a: (ratio[a.queue], a.app_id),
            )
        return self._order_cache

    def _assign_on_node(self, node_id: str) -> list[Container]:
        nm = self.node_managers[node_id]
        rack = self.cluster.nodes[node_id].rack
        allocations: list[Container] = []
        progress = True
        while progress:
            progress = False
            # Nothing fits a dead node: every table fails the fit check
            # before it can record a miss, so the offer is a no-op.
            if not nm.node.alive:
                break
            # Spare capacity, read once per pass: only _allocate (and
            # the on_allocate callback inside it) changes it, and a
            # grant starts the next pass.
            total, used = nm.total, nm.used
            free_mem = total.memory_mb - used.memory_mb
            free_cores = total.vcores - used.vcores
            # Full-node skip: when no capability ever asked for fits,
            # every table of every app fails the fit check first - no
            # allocation, no miss.
            if not self._any_ask_fits(free_mem, free_cores):
                break
            # Consult only apps that can react to this offer: asks on
            # this node or rack, ANY-level asks, or node-level asks
            # anywhere (declining the offer advances their
            # delay-scheduling missed count). Everything else is a
            # provable no-op in _try_assign.
            node_apps = self._node_index.get(node_id)
            rack_apps = self._rack_index.get(rack)
            any_apps = self._any_apps
            local_apps = self._local_apps
            for app in self._ordered_apps():
                aid = app.app_id
                if (
                    aid not in any_apps
                    and aid not in local_apps
                    and (node_apps is None or aid not in node_apps)
                    and (rack_apps is None or aid not in rack_apps)
                ):
                    continue
                container = self._try_assign(app, nm, node_id, rack,
                                             free_mem, free_cores)
                if container is not None:
                    allocations.append(container)
                    progress = True
                    break
        return allocations

    def _any_ask_fits(self, free_mem: int, free_cores: int) -> bool:
        for cap in self._asked_capabilities:
            if cap.memory_mb <= free_mem and cap.vcores <= free_cores:
                return True
        return False

    def _try_assign(
        self, app: SchedulerApp, nm: NodeManager, node_id: str, rack: str,
        free_mem: int, free_cores: int,
    ) -> Optional[Container]:
        if node_id in app.blacklist:
            return None
        had_local_ask = False
        over_max = self._over_max
        for priority, table in app._ordered_asks():
            if table.total <= 0:
                continue
            capability = table.capability
            if not (capability.memory_mb <= free_mem
                    and capability.vcores <= free_cores):
                continue
            key = (app.queue, capability)
            over = over_max.get(key)
            if over is None:
                over = over_max[key] = self._queue_over_max(
                    app.queue, capability)
            if over:
                continue
            # NODE_LOCAL
            if table.node_counts.get(node_id, 0) > 0:
                return self._allocate(app, nm, priority, table, NODE_LOCAL,
                                      node_id, rack)
            node_asks = table.node_nonzero > 0
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
                (not node_asks and table.rack_nonzero == 0)
                or app.missed_opportunities >= self.rack_locality_delay
            ):
                return self._allocate(app, nm, priority, table, OFF_SWITCH,
                                      node_id, rack)
        if had_local_ask:
            app.missed_opportunities += 1
            self.missed_opportunities_total += 1
            # The miss count gates delay-scheduling fallback, so the
            # next heartbeat can behave differently: not a no-op tick.
            self._dirty = True
        return None

    def _allocate(
        self,
        app: SchedulerApp,
        nm: NodeManager,
        priority: Priority,
        table: _AskTable,
        level: str,
        node_id: str,
        rack: str,
    ) -> Container:
        # Decrement the ask book per YARN semantics.
        table.total = max(0, table.total - 1)
        if level == NODE_LOCAL:
            if table.shift_node(node_id, -1):
                self._index_node_down(app, priority, table, node_id)
            app.missed_opportunities = 0
        if level != OFF_SWITCH and table.shift_rack(rack, -1):
            self._index_rack_down(app, priority, rack)
        if table.shift_any(-1):
            self._index_any_down(app)
        container = Container(
            app.next_container_id(),
            nm.node,
            table.capability,
            self.cluster.spec,
            queue=app.queue,
        )
        container.allocated_at = self.env.now
        container.priority = priority  # which ask this allocation fills
        nm.reserve(container)
        app.live_containers[container.container_id] = container
        app._used = app._used + container.resource
        self._queue_used[app.queue] = (
            self._queue_used[app.queue] + container.resource
        )
        self._usage_changed()
        app._prune(priority, table)
        self.mark_dirty()
        self.allocation_log.append(
            (self.env.now, str(app.app_id), node_id, level)
        )
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            telemetry.event(
                "yarn.allocation",
                app=str(app.app_id),
                container=str(container.container_id),
                node=node_id,
                level=level,
                queue=app.queue,
            )
            telemetry.metrics.counter(f"yarn.allocations.{level}").inc()
        if app.on_allocate is not None:
            app.on_allocate(container)
        return container

    def container_completed(self, app_id: ApplicationId,
                            container_id: ContainerId) -> None:
        app = self.apps.get(app_id)
        if app is not None:
            container = app.live_containers.pop(container_id, None)
            if container is not None:
                app._used = app._used - container.resource
                self._queue_used[app.queue] = (
                    self._queue_used[app.queue] - container.resource
                )
                self._usage_changed()
        # Even for an already-removed app the node just freed capacity.
        self.mark_dirty()

    # -- preemption ------------------------------------------------------------
    def _preempt_if_needed(self) -> None:
        """Reclaim capacity for starved queues from over-capacity queues."""
        total = self.cluster_resource()
        starved = [
            q for q in self.queues.values()
            if self._queue_pending(q.name) > 0
            and self.queue_used(q.name).dominant_share(total)
            < q.capacity - 1e-9
        ]
        if not starved:
            return
        over = sorted(
            (q for q in self.queues.values()
             if self.queue_used(q.name).dominant_share(total)
             > q.capacity + 1e-9),
            key=lambda q: self.queue_used(q.name).dominant_share(total)
            - q.capacity,
            reverse=True,
        )
        for victim_queue in over:
            # Kill the newest non-AM container of the most over-capacity
            # queue, one per tick, so reclamation is gradual.
            candidates = [
                (c.allocated_at, app.app_id, c)
                for app in self.apps.values()
                if app.queue == victim_queue.name
                for c in app.live_containers.values()
                if c.container_id.container_num != 1  # spare the AM
            ]
            if not candidates:
                continue
            candidates.sort(key=lambda t: (t[0], str(t[2].container_id)))
            _, app_id, victim = candidates[-1]
            nm = self.node_managers[victim.node_id]
            telemetry = get_telemetry(self.env)
            if telemetry is not None:
                telemetry.event(
                    "yarn.preemption",
                    app=str(app_id),
                    container=str(victim.container_id),
                    node=victim.node_id,
                    queue=victim_queue.name,
                )
            self.mark_dirty()
            nm.stop_container(
                victim.container_id, ContainerExitStatus.PREEMPTED
            )
            return

    def _queue_pending(self, queue: str) -> int:
        return sum(
            app.total_pending()
            for app in self.apps.values()
            if app.queue == queue
        )
