"""ResourceManager: application lifecycle + the AM protocol.

Applications are submitted as *AM factories*: callables that receive an
:class:`AMContext` (the protocol handle: ask for containers, launch
tasks on them, receive completion statuses, unregister) and return a
generator to run as the ApplicationMaster process. The RM launches the
AM in a container, restarts it on failure up to ``max_attempts`` (the
hook Tez AM recovery builds on), and drives the scheduler tick.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Generator, Optional

from ..cluster import Cluster, Node
from ..sim import Environment, Store
from ..telemetry import get_telemetry
from .am_service import AMService
from .container import Container
from .node_manager import ContainerRunner, NodeManager
from .records import (
    ANY,
    ApplicationId,
    ContainerExitStatus,
    ContainerId,
    ContainerState,
    ContainerStatus,
    FinalApplicationStatus,
    NodeState,
    Priority,
    Resource,
)
from .scheduler import CapacityScheduler, QueueConfig, SchedulerApp
from .security import SecurityManager, Token

__all__ = ["ResourceManager", "AMContext", "AppHandle", "AMService"]

AM_PRIORITY = Priority(0)


class AppHandle:
    """Client-side handle to a submitted application."""

    def __init__(self, env: Environment, app_id: ApplicationId, name: str):
        self.env = env
        self.app_id = app_id
        self.name = name
        self.completion = env.event()
        self.final_status = FinalApplicationStatus.UNDEFINED
        self.diagnostics = ""
        self.submit_time = env.now
        self.finish_time: Optional[float] = None
        self.result = None  # value passed by the AM at unregister

    @property
    def elapsed(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


class AMContext:
    """The ApplicationMaster's handle on YARN (one per AM attempt)."""

    def __init__(self, rm: "ResourceManager", app: SchedulerApp,
                 handle: AppHandle, am_container: Container, attempt: int):
        self.rm = rm
        self.env = rm.env
        self.app = app
        self.handle = handle
        self.am_container = am_container
        self.attempt = attempt
        self.app_id = app.app_id
        self.allocated: Store = Store(rm.env)       # newly granted containers
        self.completed: Store = Store(rm.env)       # ContainerStatus stream
        self.amrm_token: Optional[Token] = None
        self.nm_token: Optional[Token] = None
        self.unregistered = False
        self._node_loss_callbacks: list[Callable[[Node], None]] = []
        app.on_allocate = self._deliver_allocation

    # -- registration ------------------------------------------------------
    def register(self) -> None:
        self.amrm_token = self.rm.security.issue("AMRM", str(self.app_id))
        self.nm_token = self.rm.security.issue("NM", str(self.app_id))
        self.rm.am_service.on_register(self)

    def heartbeat(self) -> None:
        """AM liveness ping (the allocate-heartbeat of real YARN,
        separated from the ask/grant plumbing which is event-driven
        here). Recorded per application by the RM's AM service."""
        self._check_registered()
        self.rm.am_service.on_heartbeat(self)

    def unregister(self, final_status: FinalApplicationStatus,
                   diagnostics: str = "", result=None) -> None:
        self._check_registered()
        self.unregistered = True
        self.rm._app_unregistered(self, final_status, diagnostics, result)

    def _check_registered(self) -> None:
        self.rm.security.verify(self.amrm_token, "AMRM", str(self.app_id))

    # -- container negotiation -------------------------------------------
    def request_containers(
        self,
        priority: Priority,
        capability: Resource,
        nodes: Optional[list[str]] = None,
        racks: Optional[list[str]] = None,
        relax_locality: bool = True,
        count: int = 1,
    ) -> None:
        self._check_registered()
        nodes = nodes or []
        racks = racks or []
        if nodes and not racks and relax_locality:
            racks = sorted(
                {self.rm.cluster.nodes[n].rack for n in nodes
                 if n in self.rm.cluster.nodes}
            )
        self.app.add_ask(priority, capability, nodes, racks,
                         relax_locality, count)

    def cancel_request(
        self,
        priority: Priority,
        nodes: Optional[list[str]] = None,
        racks: Optional[list[str]] = None,
        relax_locality: bool = True,
        count: int = 1,
    ) -> None:
        nodes = nodes or []
        racks = racks or []
        if nodes and not racks and relax_locality:
            racks = sorted(
                {self.rm.cluster.nodes[n].rack for n in nodes
                 if n in self.rm.cluster.nodes}
            )
        self.app.remove_ask(priority, nodes, racks, relax_locality, count)

    def _deliver_allocation(self, container: Container) -> None:
        # Model the multi-heartbeat RM negotiation latency.
        delay = self.rm.spec.container_allocate_overhead

        def deliver() -> Generator:
            yield self.env.timeout(delay)
            if not self.unregistered:
                self.allocated.put(container)
            else:
                self.release_container(container.container_id)

        self.env.process(deliver(), name=f"deliver:{container.container_id}")

    # -- container control ---------------------------------------------------
    def launch_container(self, container: Container,
                         runner: ContainerRunner,
                         launch_overhead: Optional[float] = None) -> None:
        self._check_registered()
        nm = self.rm.node_managers[container.node_id]
        nm.launch(container, runner, nm_token=self.nm_token,
                  launch_overhead=launch_overhead)

    def release_container(self, container_id: ContainerId) -> None:
        container = self.app.live_containers.get(container_id)
        if container is not None:
            nm = self.rm.node_managers[container.node_id]
            if container_id in nm.containers:
                nm.stop_container(container_id, ContainerExitStatus.ABORTED)
                return
        self.rm.scheduler.container_completed(self.app_id, container_id)

    # -- cluster awareness -----------------------------------------------------
    def on_node_loss(self, callback: Callable[[Node], None]) -> None:
        self._node_loss_callbacks.append(callback)

    def update_blacklist(self, additions: list[str] = (),
                         removals: list[str] = ()) -> None:
        """Node blacklist for this application (YARN allocate API):
        the scheduler will not place this app's containers on
        blacklisted nodes."""
        self._check_registered()
        for node_id in additions:
            self.app.blacklist.add(node_id)
        for node_id in removals:
            self.app.blacklist.discard(node_id)
        # A blacklist change can unblock (or block) the next tick.
        self.rm.scheduler.mark_dirty()

    def headroom(self) -> Resource:
        """Free capacity currently available on schedulable nodes."""
        free = Resource(0, 0)
        for node_id, nm in self.rm.node_managers.items():
            if self.rm.node_schedulable(node_id):
                free = free + nm.available
        return free


class ResourceManager:
    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        queues: Optional[list[QueueConfig]] = None,
        secure: bool = True,
        preemption_enabled: bool = False,
        node_locality_delay: Optional[int] = None,
        rack_locality_delay: Optional[int] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.spec = cluster.spec
        self.security = SecurityManager(enabled=secure)
        self.node_managers: dict[str, NodeManager] = {
            node_id: NodeManager(
                env, node, self.security, self._container_completed,
                on_heartbeat=self.node_heartbeat,
                heartbeat_interval=self.spec.heartbeat_interval,
            )
            for node_id, node in cluster.nodes.items()
        }
        # Liveness tracking: nodes go LOST when heartbeats stop past the
        # liveness timeout (silent failures / partitions) or immediately
        # on a crash (the NM connection drops with the machine).
        self.node_states: dict[str, NodeState] = {
            node_id: NodeState.RUNNING for node_id in cluster.nodes
        }
        self._last_heartbeat: dict[str, float] = {
            node_id: env.now for node_id in cluster.nodes
        }
        self.nodes_lost_total = 0
        self.nodes_recovered_total = 0
        self.scheduler = CapacityScheduler(
            env, cluster, self.node_managers, queues,
            node_locality_delay=node_locality_delay,
            rack_locality_delay=rack_locality_delay,
            preemption_enabled=preemption_enabled,
        )
        # Per-application AM bookkeeping (factory, retry policy, live
        # context, liveness trail) lives in one AppRecord per app.
        self.am_service = AMService(self)
        self.scheduler.node_filter = self.node_schedulable
        for node in cluster.nodes.values():
            node.on_crash(self._on_node_crash)
        # Heartbeats that provably cannot change scheduler state are
        # skipped (see CapacityScheduler.skip_tick for why the
        # allocation order is unaffected).
        self.ticks_skipped = 0
        telemetry = get_telemetry(env)
        if telemetry is not None:
            self._m_ticks_skipped = telemetry.metrics.counter(
                "yarn.scheduler.ticks_skipped"
            )
            self._h_tick_seconds = telemetry.metrics.histogram(
                "yarn.scheduler.tick_seconds"
            )
            self._m_missed = telemetry.metrics.counter(
                "yarn.scheduler.missed_opportunities"
            )
        else:
            self._m_ticks_skipped = None
            self._h_tick_seconds = None
            self._m_missed = None
        self._running = True
        env.process(self._tick_loop(), name="rm-scheduler-tick")

    # -- scheduler pump ---------------------------------------------------
    def _tick_loop(self) -> Generator:
        while self._running:
            self._check_node_liveness()
            if not self.scheduler.needs_tick():
                self.scheduler.skip_tick()
                self.ticks_skipped += 1
                if self._m_ticks_skipped is not None:
                    self._m_ticks_skipped.inc()
            else:
                start = perf_counter()
                missed_before = self.scheduler.missed_opportunities_total
                self.scheduler.tick()
                if self._h_tick_seconds is not None:
                    self._h_tick_seconds.observe(perf_counter() - start)
                # Published once per tick, never per miss.
                missed = (self.scheduler.missed_opportunities_total
                          - missed_before)
                if missed and self._m_missed is not None:
                    self._m_missed.inc(missed)
            yield self.env.timeout(self.spec.heartbeat_interval)

    def stop(self) -> None:
        self._running = False

    # -- application lifecycle ------------------------------------------------
    def submit_application(
        self,
        name: str,
        am_factory: Callable[[AMContext], Generator],
        queue: str = "default",
        user: str = "user",
        am_resource: Resource = Resource(2048, 1),
        max_attempts: int = 2,
    ) -> AppHandle:
        """Submit an application; returns immediately with a handle."""
        app_id = ApplicationId.new()
        handle = AppHandle(self.env, app_id, name)
        self.am_service.admit(app_id, handle, am_factory, queue, user,
                              am_resource, max_attempts)
        app = SchedulerApp(app_id, queue, user)
        self.scheduler.add_app(app)
        self.env.process(self._start_attempt(app, handle),
                         name=f"submit:{app_id}")
        return handle

    def _start_attempt(self, app: SchedulerApp, handle: AppHandle) -> Generator:
        app_id = app.app_id
        record = self.am_service.record(app_id)
        attempt = self.am_service.begin_attempt(app_id)
        # Ask for the AM container and wait for it. The node under an
        # allocated-but-unlaunched AM container can die (chaos) in the
        # window between the scheduler's grant and this process
        # resuming — the NM reaps the reservation, so launching would
        # fail. Nobody else restarts the attempt at that point
        # (``record.am_container_id`` is not set until launch), so the
        # RM simply re-asks until it gets a grant on a live node.
        am_allocated = self.env.event()
        app.on_allocate = lambda c: (
            am_allocated.succeed(c) if not am_allocated.triggered else None
        )
        app.add_ask(AM_PRIORITY, record.am_resource, [], [], True, 1)
        yield self.env.timeout(self.spec.am_launch_overhead / 2)
        container = yield am_allocated
        while (container.state != ContainerState.NEW
               or not self.cluster.nodes[container.node_id].alive):
            am_allocated = self.env.event()
            app.on_allocate = lambda c: (
                am_allocated.succeed(c) if not am_allocated.triggered
                else None
            )
            app.add_ask(AM_PRIORITY, record.am_resource, [], [], True, 1)
            container = yield am_allocated
        ctx = AMContext(self, app, handle, container, attempt)
        self.am_service.attempt_launched(app_id, ctx,
                                         container.container_id)
        factory = record.am_factory

        def am_runner(c: Container) -> Generator:
            yield from factory(ctx)

        nm = self.node_managers[container.node_id]
        # The RM launches the AM itself; NM token issued internally.
        token = self.security.issue("NM", str(app_id))
        nm.launch(container, am_runner, nm_token=token,
                  launch_overhead=self.spec.am_launch_overhead / 2)

    def _app_unregistered(self, ctx: AMContext,
                          final_status: FinalApplicationStatus,
                          diagnostics: str, result) -> None:
        record = self.am_service.record(ctx.app_id)
        handle = record.handle
        handle.final_status = final_status
        handle.diagnostics = diagnostics
        handle.result = result
        handle.finish_time = self.env.now
        # Reap remaining task containers. The AM's own container is left
        # alone: its generator is the caller and will return naturally.
        app = ctx.app
        am_cid = record.am_container_id
        for cid in list(app.live_containers):
            if cid == am_cid:
                continue
            for nm in self.node_managers.values():
                if cid in nm.containers:
                    nm.stop_container(cid, ContainerExitStatus.ABORTED)
        self.scheduler.remove_app(ctx.app_id)
        self.am_service.finish(ctx.app_id)
        if not handle.completion.triggered:
            handle.completion.succeed(final_status)

    # -- callbacks ----------------------------------------------------------------
    def _container_completed(self, status: ContainerStatus,
                             container: Container) -> None:
        app_id = status.container_id.app_id
        self.scheduler.container_completed(app_id, status.container_id)
        record = self.am_service.get(app_id)
        ctx = record.context if record is not None else None
        if ctx is None:
            return
        if status.container_id == record.am_container_id:
            self._am_exited(ctx, status)
        elif not ctx.unregistered:
            ctx.completed.put(status)

    def _am_exited(self, ctx: AMContext, status: ContainerStatus) -> None:
        app_id = ctx.app_id
        record = self.am_service.record(app_id)
        handle = record.handle
        if ctx.unregistered or handle.completion.triggered:
            return
        # AM died without unregistering: retry or fail the application.
        ctx.unregistered = True  # stale context: stop event delivery
        record.context = None
        app = ctx.app
        for cid in list(app.live_containers):
            for nm in self.node_managers.values():
                if cid in nm.containers:
                    nm.stop_container(cid, ContainerExitStatus.ABORTED)
        if record.attempts < record.max_attempts:
            new_app = SchedulerApp(app_id, app.queue, app.user)
            new_app._container_seq = app._container_seq  # keep ids unique
            self.scheduler.remove_app(app_id)
            self.scheduler.add_app(new_app)
            self.env.process(self._start_attempt(new_app, handle),
                             name=f"restart:{app_id}")
        else:
            handle.final_status = FinalApplicationStatus.FAILED
            handle.diagnostics = (
                f"AM failed {record.attempts} times: "
                f"{status.diagnostics}"
            )
            handle.finish_time = self.env.now
            self.scheduler.remove_app(app_id)
            self.am_service.finish(app_id)
            handle.completion.succeed(handle.final_status)

    # -- node liveness ------------------------------------------------------
    def node_heartbeat(self, node_id: str) -> None:
        """An NM heartbeat arrived; revive a LOST node if needed."""
        self._last_heartbeat[node_id] = self.env.now
        if (
            self.node_states.get(node_id) == NodeState.LOST
            and self.cluster.nodes[node_id].alive
        ):
            self.node_states[node_id] = NodeState.RUNNING
            self.nodes_recovered_total += 1
            self.scheduler.invalidate_nodes()
            telemetry = get_telemetry(self.env)
            if telemetry is not None:
                telemetry.event("yarn.node_recovered", node=node_id)

    def _check_node_liveness(self) -> None:
        timeout = self.spec.node_liveness_timeout
        now = self.env.now
        for node_id, state in self.node_states.items():
            if (
                state == NodeState.RUNNING
                and now - self._last_heartbeat[node_id] > timeout
            ):
                self._mark_node_lost(node_id)

    def _on_node_crash(self, node: Node) -> None:
        # A hard crash drops the NM connection instantly; a partition
        # is only ever detected via the heartbeat timeout.
        if self.node_states.get(node.node_id) == NodeState.RUNNING:
            self._mark_node_lost(node.node_id)

    def _mark_node_lost(self, node_id: str) -> None:
        """Declare a node LOST: kill its containers, tell every AM."""
        self.node_states[node_id] = NodeState.LOST
        self.nodes_lost_total += 1
        self.scheduler.invalidate_nodes()
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            telemetry.event("yarn.node_lost", node=node_id)
            telemetry.metrics.counter("yarn.nodes_lost").inc()
        nm = self.node_managers[node_id]
        for cid in list(nm.containers):
            nm.stop_container(cid, ContainerExitStatus.NODE_LOST)
        node = self.cluster.nodes[node_id]
        for ctx in self.am_service.live_contexts():
            for callback in ctx._node_loss_callbacks:
                callback(node)

    def node_schedulable(self, node_id: str) -> bool:
        node = self.cluster.nodes[node_id]
        return node.alive and self.node_states.get(node_id) != NodeState.LOST

    # -- metrics -------------------------------------------------------------------
    def cluster_utilization(self) -> float:
        total = self.scheduler.cluster_resource()
        used = Resource(0, 0)
        for nm in self.node_managers.values():
            if nm.node.alive:
                used = used + nm.used
        return used.dominant_share(total)
