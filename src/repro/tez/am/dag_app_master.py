"""The Tez DAG ApplicationMaster (paper sections 3 & 4).

A thin facade over the event-driven control plane: the
:class:`~repro.tez.am.dispatcher.Dispatcher` carries every typed
control event, the declarative machines in ``state_machines.py`` own
all state transitions, and the focused components carry the logic —
``vertex_lifecycle``, ``attempt_runner``, ``event_router``,
``speculation`` and ``recovery``. This class wires them together, runs
DAG-level orchestration (`execute_dag`, commit/abort, fail/complete
sweeps) and keeps the public surface (`execute_dag`, ``.registry``,
:class:`DAGStatus`, the scheduler contract) stable for engines,
benchmarks and chaos.

The AM is *not* on the data plane: task inputs/outputs move data
directly against HDFS and the shuffle service; the AM only routes
metadata events, charged with heartbeat latency.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from ...cluster import Node
from ...sim import Environment
from ...telemetry import MetricsRegistry, get_telemetry
from ...yarn import AMContext, ContainerExitStatus
from ..committer import CommitterContext
from ..config import TezConfig
from ..dag import DAG
from ..registry import Scope
from ..runtime import FrameworkServices
from .attempt_runner import BASE_TASK_PRIORITY, AttemptRunner
from .dispatcher import (
    AttemptBatchExitedEvent,
    AttemptExitedEvent,
    DataDeliveryBatchEvent,
    Dispatcher,
    NodeLostEvent,
    RecoveryEvent,
    StateTransitionEvent,
    TaskUplinkEvent,
)
from .event_router import EventRouter
from .journal import RecoveryJournal
from .recovery import RecoveryService
from .speculation import DeadlockMonitor, SpeculationMonitor
from .state_machines import MachineSet
from .status import DAGStatus
from .structures import (
    AttemptEndReason,
    DAGState,
    VertexRuntime,
    VertexState,
)
from .task_scheduler import TaskSchedulerService
from .vertex_lifecycle import DagAbort, VertexLifecycle
from .vm_context import _VMContext

__all__ = ["DAGAppMaster", "DAGStatus", "RecoveryJournal", "DagAbort"]


class DAGAppMaster:
    """One AM instance (one YARN application attempt)."""

    def __init__(
        self,
        ctx: AMContext,
        services: FrameworkServices,
        config: Optional[TezConfig] = None,
        *,
        recovery: RecoveryJournal,
        shard_id: int = 0,
    ):
        self.ctx = ctx
        self.env: Environment = ctx.env
        self.services = services
        self.spec = services.spec
        self.config = config or TezConfig()
        self.recovery = recovery
        # Which control-plane shard this AM is (0 for unsharded
        # clients). Folded into dag ids of shards > 0 so concurrent
        # shards never collide on telemetry/journal keys.
        self.shard_id = shard_id
        # Attempt-epoch fencing: constructing a new AM claims the
        # journal, rejecting appends from any pre-crash zombie writer.
        self.epoch = recovery.open_epoch()
        ctx.register()
        services.job_token = ctx.rm.security.issue("JOB", str(ctx.app_id))
        # Per-AM metrics registry: scheduler, session and task counters
        # in one place; DAG-scoped views are snapshot/delta over it.
        self.registry = MetricsRegistry()
        self.scheduler = TaskSchedulerService(
            self.env, ctx, self.config, self._attempt_body,
            self._attempt_exit, self._defer_attempt_exit,
            registry=self.registry,
        )
        ctx.on_node_loss(self._on_node_loss)
        # Node blacklisting (paper 4.3): failure accounting survives
        # across a session's DAGs — a flaky machine stays flaky.
        self._node_failures: dict[str, int] = {}
        self.blacklisted_nodes: set[str] = set()
        self.blacklisting_disabled = False
        self._vertices: dict[str, VertexRuntime] = {}
        self._dag: Optional[DAG] = None
        self._dag_seq = itertools.count(1)
        self._dag_id = ""
        self._dag_state = DAGState.NEW
        self._dag_done = None            # sim Event
        self._dag_diagnostics = ""
        self._edge_managers = {}
        self._init_contexts = {}
        self._monitors: list = []
        self._dag_span = None
        # Control plane: one dispatcher, one machine factory, and the
        # components carved out of the historical monolith.
        self.dispatcher = Dispatcher(self.env, name=str(ctx.app_id))
        # Same-tick attempt-exit coalescing (mirrors the event router's
        # delivery buckets): tick -> AttemptBatchExitedEvent.
        self._exit_buckets: dict[float, AttemptBatchExitedEvent] = {}
        self.dispatcher.attach_journal(recovery, self.epoch)
        # Session-wide counters, created before the components that
        # bump them (each caches its own): creation order is the order
        # DAGStatus.metrics lists them in.
        for key in (
            "tasks_succeeded",
            "attempts_failed",
            "attempts_killed",
            "speculative_attempts",
            "speculative_wins",
            "reexecutions",
            "preemptions",
            "nodes_lost",
            "nodes_blacklisted",
            "lost_node_reexecutions",
            "faults_injected",
        ):
            self.registry.counter(key)
        # Recovery telemetry (namespaced: not part of the
        # DAGStatus metric surface, read directly by the chaos sweep).
        for key in (
            "recovery.events_replayed",
            "recovery.tasks_recovered",
            "recovery.entries_dropped",
        ):
            self.registry.counter(key)
        self.lifecycle = VertexLifecycle(self)
        self.runner = AttemptRunner(self)
        self.router = EventRouter(self)
        self.recovery_service = RecoveryService(self)
        self.speculation = SpeculationMonitor(self)
        self.deadlock = DeadlockMonitor(self)
        self.machines = MachineSet(
            self.dispatcher, dag=self, vertex=self.lifecycle,
            vertex_init=self.lifecycle, task=self.runner,
            attempt=self.runner,
        )
        self.dispatcher.register(StateTransitionEvent, self._on_transition)
        self.dispatcher.register(AttemptExitedEvent,
                                 self.runner.on_attempt_exited)
        self.dispatcher.register(AttemptBatchExitedEvent,
                                 self._on_attempt_batch_exited)
        self.dispatcher.register(TaskUplinkEvent, self.router.on_task_uplink)
        self.dispatcher.register(DataDeliveryBatchEvent,
                                 self.router.on_data_delivery_batch)
        self.dispatcher.register(NodeLostEvent, self._on_node_lost_event)
        self.dispatcher.register(RecoveryEvent,
                                 self.recovery_service.on_recovery_event)
        # Cached for the hot transition-observer path: every state
        # machine move crosses it, so avoid per-event lookups.
        self._telemetry = telemetry = get_telemetry(self.env)
        self.session_span = None
        if telemetry is not None:
            telemetry.attach_registry(str(ctx.app_id), self.registry)
            self.session_span = telemetry.span(
                "session", str(ctx.app_id), app=str(ctx.app_id),
            )

    # ================================================== DAG lifecycle
    def execute_dag(self, dag: DAG) -> Generator:
        """Process: run one DAG, verified by ``TezClient.submit_dag``
        (its only way in), to completion; returns DAGStatus."""
        start = self.env.now
        self._dag = dag
        seq = next(self._dag_seq)
        # Shard 0 keeps the historical id shape (`name#seq`) so
        # single-shard runs are byte-identical; higher shards qualify
        # the suffix. Recovery is keyed by the DAG *name* - a restarted
        # AM re-submits under a fresh `#seq` - so the journal reads
        # `_dag.name` / `VertexRuntime.dag_name`, never parses the id.
        self._dag_id = (
            f"{dag.name}#{seq}" if self.shard_id == 0
            else f"{dag.name}#{self.shard_id}.{seq}"
        )
        self._dag_state = DAGState.NEW
        self.machines.dag.fire(self, "run")
        self._dag_done = self.env.event()
        self._dag_diagnostics = ""
        self._vertices = {}
        self._edge_managers = {}
        self._init_contexts = {}
        self.scheduler.session_waiting = False
        # Per-DAG scoping: the whole registry is deltaed against this.
        base_counters = self.registry.snapshot()

        depths = dag.vertex_depths()
        for vertex in dag.topological_order():
            vr = VertexRuntime(vertex, depths[vertex.name],
                               dag_id=self._dag_id, dag_name=dag.name)
            self._vertices[vertex.name] = vr
        for edge in dag.edges:
            self._vertices[edge.source.name].out_edges.append(edge)
            self._vertices[edge.target.name].in_edges.append(edge)
            self._edge_managers[(edge.source.name, edge.target.name)] = (
                self.lifecycle.create_edge_manager(edge)
            )

        telemetry = get_telemetry(self.env)
        self._dag_span = None
        if telemetry is not None:
            self._dag_span = telemetry.span(
                "dag", dag.name, parent=self.session_span,
                dag=self._dag_id, dag_name=dag.name,
                state=self._dag_state.value,
            )
            telemetry.event(
                "am.dag_submitted",
                dag=self._dag_id,
                name=dag.name,
                vertices=[v.name for v in dag.topological_order()],
                edges=[
                    [e.source.name, e.target.name,
                     e.prop.data_movement.value]
                    for e in dag.edges
                ],
            )

        recovered = self.recovery_service.recovered_work(dag.name)

        # Start monitors.
        self._monitors = []
        if self.config.speculation_enabled:
            self._monitors.append(
                self.env.process(self.speculation.run(),
                                 name="tez-speculation")
            )
        self._monitors.append(
            self.env.process(self.deadlock.run(), name="tez-deadlock")
        )

        # Vertices initialize and start asynchronously: initializers
        # waiting on runtime events must not block the DAG (paper 3.5).
        for vertex in dag.topological_order():
            vr = self._vertices[vertex.name]
            vr.inited_event = self.env.event()
            self.env.process(
                self.lifecycle.init_and_start(vr, recovered),
                name=f"vinit:{vertex.name}",
            )
        try:
            yield self._dag_done
        finally:
            self._stop_monitors("dag finished")

        if self._dag_state == DAGState.SUCCEEDED:
            yield from self._commit_outputs()
        else:
            yield from self._abort_outputs()
        self.recovery.record_dag_finished(dag.name, epoch=self.epoch)
        if self._dag_state == DAGState.SUCCEEDED:
            # Staged outputs are only discarded once the finish marker
            # is journaled: a crash anywhere before this point leaves
            # staging intact, so the recovered AM's re-commit is
            # idempotent instead of promoting an empty directory.
            for committer in self._committers():
                yield from committer.finalize()

        finish = self.env.now
        delta = self.registry.delta(base_counters)
        status = DAGStatus(
            name=dag.name,
            state=self._dag_state,
            start_time=start,
            finish_time=finish,
            diagnostics=self._dag_diagnostics,
            metrics={
                # Un-namespaced keys are the legacy session metrics;
                # scheduler.*/task.* surface via the entries below.
                **{k: delta.get(k, 0)
                   for k in self.registry.unscoped_names()},
                "containers_launched":
                    delta.get("scheduler.containers_launched", 0),
                "container_reuses": delta.get("scheduler.reuse_hits", 0),
                "total_tasks": sum(
                    len(vr.tasks) for vr in self._vertices.values()
                ),
                "counters": {
                    k[len("task."):]: v for k, v in delta.items()
                    if k.startswith("task.") and v
                },
            },
        )
        if telemetry is not None:
            for vr in self._vertices.values():
                span = getattr(vr, "telemetry_span", None)
                if span is not None and not span.finished:
                    telemetry.finish(span, outcome=vr.state.value)
            if self._dag_span is not None:
                telemetry.finish(self._dag_span,
                                 outcome=self._dag_state.value)
            telemetry.event(
                "am.dag_finished",
                dag=self._dag_id,
                name=dag.name,
                state=self._dag_state.value,
                elapsed=finish - start,
            )
        self._dag = None
        self._release_dag()
        self.scheduler.session_waiting = True
        return status

    def _stop_monitors(self, cause: str) -> None:
        for monitor in self._monitors:
            if monitor.is_alive:
                monitor.interrupt(cause)
        self._monitors = []

    def _release_dag(self) -> None:
        """Free what the finished DAG made (DESIGN.md "What a finished
        DAG or query leaves behind"): every spill of the application on
        every node, and every DAG- and VERTEX-scoped registry entry in
        every container this AM still holds. A session AM runs one DAG
        at a time, so all of them are dead: this DAG's, a crashed AM
        attempt's for it, and any a straggler of an earlier DAG made
        late. Runs only once the DAG's finish marker is journaled, so
        a recovering AM still finds the spills of the producers it
        recovers.

        Then cut the finished DAG's runtime graph so reference counting
        frees it now, not a full heap scan later (DESIGN.md "The host
        collector"). Only references that point *down* the
        vertex -> task -> attempt tree go: a straggler from this DAG
        (a container-lost exit, a killed attempt's children) still
        reaches its task and vertex through ``attempt.task`` /
        ``task.vertex`` and is discarded as stale."""
        self.services.shuffle.delete_app(str(self.ctx.app_id))
        for slot in self.scheduler.slots.values():
            registry = getattr(slot.container, "tez_registry", None)
            if registry:
                registry.clear_scope(Scope.DAG)
        for vr in self._vertices.values():
            for task in vr.tasks:
                for attempt in task.attempts:
                    attempt.process = None
                task.attempts = []
                task.succeeded_attempt = None
            vr.tasks = []
            vr.manager = None
        self._vertices = {}
        self._edge_managers = {}
        self._init_contexts = {}

    # -------------------------------------------------- dispatcher glue
    def _attempt_body(self, attempt, container) -> Generator:
        return self.runner.attempt_body(attempt, container)

    def _attempt_exit(self, attempt, error) -> None:
        """Scheduler hook for kills and lost containers: the exit is
        dispatched synchronously."""
        self.dispatcher.dispatch(AttemptExitedEvent(attempt, error))

    def _defer_attempt_exit(self, attempt, error, unit) -> None:
        """Scheduler hook for every attempt that ends in its container:
        coalesce same-tick completions into one batch envelope
        processed at the tail of the tick.  ``unit`` is the scheduler's
        exit tail; replaying the units in arrival order gives each
        exit's consumers its own slot and those of earlier exits, never
        a slot whose exit is still queued.  The journal expands the
        batch per member, so recovery folds are batching-agnostic."""
        exit_event = AttemptExitedEvent(attempt, error)
        exit_event._unit = unit
        now = self.env.now
        batch = self._exit_buckets.get(now)
        if batch is None:
            batch = AttemptBatchExitedEvent()
            self._exit_buckets[now] = batch
            self.dispatcher.dispatch_after(0.0, batch)
        batch.exits.append(exit_event)

    def _on_attempt_batch_exited(self,
                                 batch: AttemptBatchExitedEvent) -> None:
        self._exit_buckets.pop(batch.time, None)
        for exit_event in batch.exits:
            exit_event._unit(
                lambda ee=exit_event: self.runner.on_attempt_exited(ee)
            )

    def _on_node_loss(self, node: Node) -> None:
        self.dispatcher.dispatch(NodeLostEvent(node))

    def _on_node_lost_event(self, event: NodeLostEvent) -> None:
        self.recovery_service.on_node_lost(event.node)

    def _record_node_failure(self, node_id: Optional[str]) -> None:
        self.recovery_service.record_node_failure(node_id)

    def _on_transition(self, event: StateTransitionEvent) -> None:
        """Observer: keep telemetry spans in lock-step with the
        machines and record every transition as a trace event."""
        telemetry = self._telemetry
        subject = event.subject
        if event.machine == "dag":
            span, state = self._dag_span, self._dag_state
        else:
            span = getattr(subject, "telemetry_span", None)
            state = subject.state
        # Enum values are read as `_value_`, the member's own attribute:
        # `.value` is a Python-level descriptor call, three a transition.
        if span is not None and not span.finished:
            # The live state, not `event.to_state`: queued transition
            # events can trail the machine by a dispatch cascade.
            span.attrs["state"] = state._value_
        if telemetry is not None:
            telemetry.event(
                "am.transition",
                machine=event.machine,
                subject=event.subject_id,
                from_state=event.from_state._value_,
                to_state=event.to_state._value_,
                trigger=event.trigger,
            )

    def crash(self) -> None:
        """Kill this AM attempt at the current event boundary.

        Halts the bus (no further control events are processed or
        journaled) and the DAG's monitors, fences this attempt's
        journal epoch (anything the orphaned simulation generators
        still try to append is rejected), then aborts the AM container
        so the RM's restart policy takes over. The single crash path
        for chaos faults, the sweep harness and direct test
        injection. A dead attempt stays dead: a second call returns
        without touching the journal or the container."""
        if self.dispatcher.halted:
            return
        self.dispatcher.halt()
        self._stop_monitors("am crashed")
        self.recovery.fence(self.epoch)
        container = self.ctx.am_container
        nm = self.ctx.rm.node_managers[container.node_id]
        nm.stop_container(
            container.container_id, ContainerExitStatus.ABORTED
        )

    # -------------------------------------------------- completion & commit
    def _check_dag_done(self) -> None:
        if self._dag_state != DAGState.RUNNING or self._dag_done is None:
            return
        for vr in self._vertices.values():
            if not vr.all_tasks_done():
                return
            self.machines.vertex.fire(vr, "complete")
        self.machines.dag.fire(self, "complete")
        if not self._dag_done.triggered:
            self._dag_done.succeed()

    def _fail_dag(self, diagnostics: str) -> None:
        if self._dag_state != DAGState.RUNNING:
            return
        self.machines.dag.fire(self, "fail")
        self._dag_diagnostics = diagnostics
        for vr in self._vertices.values():   # kill everything in flight
            for task in vr.tasks:
                for attempt in task.running_attempts():
                    self.scheduler.kill_attempt(
                        attempt, AttemptEndReason.DAG_KILLED
                    )
            if vr.state == VertexState.RUNNING:
                self.machines.vertex.fire(vr, "fail")
        if self._dag_done is not None and not self._dag_done.triggered:
            self._dag_done.succeed()

    def _committers(self):
        for vr in self._vertices.values():
            for sink_name, sink in vr.vertex.data_sinks.items():
                if sink.committer_descriptor is None:
                    continue
                winners = {
                    t.index: t.output_version
                    for t in vr.tasks
                    if t.succeeded_attempt is not None
                }
                cctx = CommitterContext(
                    self.env, self.services.hdfs, self._dag.name,
                    vr.name, sink_name, winners=winners,
                )
                yield sink.committer_descriptor.cls(
                    cctx, sink.committer_descriptor.payload
                )

    def _commit_outputs(self) -> Generator:
        self.machines.dag.fire(self, "commit")
        for committer in self._committers():
            yield self.env.process(committer.commit(), name="commit")
        self.machines.dag.fire(self, "committed")

    def _abort_outputs(self) -> Generator:
        for committer in self._committers():
            yield self.env.process(committer.abort(), name="abort")

    # -------------------------------------------------- shutdown
    def shutdown(self) -> None:
        self.scheduler.shutdown()
        self.services.shuffle.delete_app(str(self.ctx.app_id))
        telemetry = get_telemetry(self.env)
        if telemetry is not None and self.session_span is not None:
            telemetry.finish(self.session_span)
