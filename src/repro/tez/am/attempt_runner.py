"""Task-attempt execution: container handshake, event pump, exits.

The simulated counterpart of Tez's TaskImpl/TaskAttemptImpl service
side: builds TaskSpecs, runs the input/processor/output composition
inside a container, pumps routed events to live attempts, and owns the
task/attempt machines' actions (success bookkeeping, kill/retry
policy, failure accounting, re-execution of lost outputs). States move
only through the declarative tables in ``state_machines.py``; attempt
exits arrive as ``AttemptExitedEvent`` on the AM dispatcher.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Generator, Optional

from ...sim import Interrupt, Store
from ...telemetry import get_telemetry
from ...yarn import Container
from ..dag import DataMovementType
from ..edge_manager import OneToOneEdgeManager, ScatterGatherEdgeManager
from ..events import CompositeDataMovementEvent, DataMovementEvent, TezEvent
from ..library.processors import (
    FnProcessor,
    NoOpProcessor,
    SleepProcessor,
)
from ..library.shuffle_io import _FetchingInputBase, _SpillOutputBase
from ..registry import ObjectRegistry, Scope
from ..runtime import InputSpec, OutputSpec, TaskContext, TaskSpec
from .dispatcher import AttemptExitedEvent
from .structures import (
    AttemptEndReason,
    AttemptState,
    DAGState,
    Task,
    TaskAttempt,
    TaskState,
    VertexState,
)
from .task_scheduler import TaskRequest

__all__ = ["AttemptRunner", "BASE_TASK_PRIORITY"]

BASE_TASK_PRIORITY = 3

# Simulated seconds a failed task backs off before its next attempt.
_RETRY_DELAY = 1.0

# IPO descriptor classes proven safe for the inline fast path: their
# ``initialize`` generators are empty and their readers/writers compose
# correctly under ``yield from`` (no reliance on running in a child
# process of their own). Root HDFS inputs/outputs are deliberately
# absent — they take the full generator path.
_INLINE_PROCESSORS = (FnProcessor, NoOpProcessor, SleepProcessor)

# The order a task's buffered events reach its inputs in.
_EVENT_ORDER = attrgetter("source_vertex", "source_task_index",
                          "source_output_index")


class _InlineEventChannel:
    """Drop-in for a fast-path attempt's ``event_store``.

    Replaces the per-attempt ``event_pump`` process: routed deliveries
    arriving through the dispatcher are pushed synchronously into the
    task's logical inputs (whose stores wake any blocked reader), so a
    non-interacting attempt costs zero standing kernel entries for its
    event channel. It is closed when the body finishes — late
    deliveries are dropped exactly where the generator path's pump
    would have left them unread. Closing lets go of the inputs: each
    holds the task context whose ``send_event`` closes over the attempt
    that holds this channel."""

    __slots__ = ("inputs",)

    def __init__(self, inputs: dict):
        self.inputs: Optional[dict] = inputs

    def close(self) -> None:
        self.inputs = None

    def put_nowait(self, event) -> None:
        if self.inputs is not None:
            AttemptRunner.dispatch_to_input(self.inputs, event)

    def offer(self, event):
        """Batched-delivery hook (`Store.offer` shape): delivery is
        synchronous here, so there is never a staged getter to wake."""
        self.put_nowait(event)
        return None


class AttemptRunner:
    """Attempt-execution component of one AM instance."""

    def __init__(self, am):
        self.am = am
        counter = am.registry.counter
        self._speculative_attempts = counter("speculative_attempts")
        self._speculative_wins = counter("speculative_wins")
        self._tasks_succeeded = counter("tasks_succeeded")
        self._attempts_killed = counter("attempts_killed")
        self._attempts_failed = counter("attempts_failed")
        self._reexecutions = counter("reexecutions")

    # -------------------------------------------------- scheduling
    def task_priority(self, task: Task, speculative: bool = False) -> int:
        # Upstream vertices get (numerically) higher priority; the +1
        # slot is left for speculative attempts of the previous wave.
        pri = BASE_TASK_PRIORITY + task.vertex.depth * 2
        return pri + (1 if speculative else 0)

    def task_locality(self, task: Task) -> tuple[tuple, tuple]:
        if task.location_nodes or task.location_racks:
            return tuple(task.location_nodes), tuple(task.location_racks)
        # One-to-one inputs: prefer co-location with the source task.
        for edge in task.vertex.in_edges:
            if edge.prop.data_movement == DataMovementType.ONE_TO_ONE:
                src = self.am._vertices[edge.source.name]
                if task.index < len(src.tasks):
                    src_task = src.tasks[task.index]
                    if src_task.succeeded_attempt is not None and \
                            src_task.succeeded_attempt.node_id:
                        return ((src_task.succeeded_attempt.node_id,), ())
        return ((), ())

    def launch_attempt(self, task: Task,
                       speculative: bool = False) -> TaskAttempt:
        am = self.am
        attempt = task.new_attempt(is_speculative=speculative)
        am.machines.attempt.fire(attempt, "schedule")
        attempt.start_time = am.env.now
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            attempt.telemetry_span = telemetry.span(
                "attempt", attempt.attempt_id,
                parent=getattr(task.vertex, "telemetry_span", None),
                dag=task.vertex.dag_id,
                vertex=task.vertex.name,
                index=task.index,
                attempt=attempt.attempt_id,
                speculative=speculative,
                state=attempt.state._value_,    # not the .value descriptor
            )
        if speculative:
            self._speculative_attempts.inc()
        nodes, racks = self.task_locality(task)
        request = TaskRequest(
            attempt,
            priority=self.task_priority(task, speculative),
            capability=task.vertex.capability,
            nodes=nodes,
            racks=racks,
        )
        am.scheduler.schedule(request)
        return attempt

    # -------------------------------------------------- execution body
    def attempt_body(self, attempt: TaskAttempt,
                     container: Container) -> Generator:
        """Runs inside the container: the IPO composition of one task."""
        am = self.am
        task = attempt.task
        vr = task.vertex
        am.machines.attempt.fire(attempt, "launch")
        attempt.launch_time = am.env.now
        span = getattr(attempt, "telemetry_span", None)
        if span is not None:
            span.attrs["launched"] = am.env.now
            span.attrs["node"] = attempt.node_id
            span.attrs["container"] = str(container.container_id)
        if task.state == TaskState.SCHEDULED:
            am.machines.task.fire(task, "launch")
        spec = self.build_task_spec(task, attempt)
        registry = getattr(container, "tez_registry", None)
        if registry is None:
            registry = ObjectRegistry()
            container.tez_registry = registry
        self.scrub_registry(registry, vr)
        task_ctx = TaskContext(
            am.services, spec, container, registry,
            send_event=lambda ev, a=attempt: am.router.event_from_task(
                a, ev
            ),
        )
        task_ctx.dag_scope_id = am._dag_id
        task_ctx.vertex_scope_id = f"{am._dag_id}/{vr.name}"
        task_ctx.session_scope_id = str(am.ctx.app_id)

        inputs = {}
        for ispec in spec.inputs:
            cls = ispec.descriptor.cls
            inputs[ispec.source_name] = cls(
                task_ctx, ispec, ispec.descriptor.payload
            )
        outputs = {}
        for ospec in spec.outputs:
            cls = ospec.descriptor.cls
            outputs[ospec.target_name] = cls(
                task_ctx, ospec, ospec.descriptor.payload
            )
        processor = spec.processor_descriptor.cls(
            task_ctx, spec.processor_descriptor.payload
        )

        if self.inline_eligible(spec):
            # Inline fast path: the whole IPO composition runs in this
            # generator's frame (entities compose via ``yield from``),
            # and the event pump is replaced by a synchronous delivery
            # channel — a non-interacting attempt costs O(1) kernel
            # entries end-to-end instead of ~10 child processes.
            task_ctx.inline = True
            for entity in [*inputs.values(), *outputs.values(),
                           processor]:
                yield from entity.initialize()
            attempt.event_store = channel = _InlineEventChannel(inputs)
            self.deliver_snapshot(task, inputs)
            try:
                yield from processor.run(inputs, outputs)
                out_events: list[TezEvent] = []
                for output in outputs.values():
                    events = yield from output.close()
                    out_events.extend(events or [])
                attempt.counters = dict(task_ctx.counters)
                attempt._pending_success_events = out_events
                # Completion reaches the AM on the next heartbeat.
                yield am.env.timeout(am.spec.heartbeat_interval / 2)
            finally:
                channel.close()
            return

        for entity in [*inputs.values(), *outputs.values(), processor]:
            yield am.env.process(
                entity.initialize(), name=f"io-init:{attempt.attempt_id}"
            )

        # Deliver buffered events routed to this task, then keep
        # pumping live events for the attempt's lifetime.
        attempt.event_store = Store(am.env)
        self.deliver_snapshot(task, inputs)
        pump = am.env.process(
            self.event_pump(attempt, inputs),
            name=f"pump:{attempt.attempt_id}",
        )
        try:
            yield am.env.process(
                processor.run(inputs, outputs),
                name=f"proc:{attempt.attempt_id}",
            )
            out_events: list[TezEvent] = []
            for output in outputs.values():
                events = yield am.env.process(
                    output.close(), name=f"close:{attempt.attempt_id}"
                )
                out_events.extend(events or [])
            attempt.counters = dict(task_ctx.counters)
            attempt._pending_success_events = out_events
            # Completion reaches the AM on the next heartbeat.
            yield am.env.timeout(am.spec.heartbeat_interval / 2)
        finally:
            if pump.is_alive:
                pump.interrupt("attempt finished")

    @staticmethod
    def inline_eligible(spec: TaskSpec) -> bool:
        """True when every IPO descriptor class of ``spec`` is in the
        known-inline-safe set. Anything else (root HDFS IO, custom
        processors) demotes the attempt to the full generator path."""
        cls = spec.processor_descriptor.cls
        if not (isinstance(cls, type)
                and issubclass(cls, _INLINE_PROCESSORS)):
            return False
        for ispec in spec.inputs:
            icls = ispec.descriptor.cls
            if not (isinstance(icls, type)
                    and issubclass(icls, _FetchingInputBase)):
                return False
        for ospec in spec.outputs:
            ocls = ospec.descriptor.cls
            if not (isinstance(ocls, type)
                    and issubclass(ocls, _SpillOutputBase)):
                return False
        return True

    def event_pump(self, attempt: TaskAttempt,
                   inputs: dict) -> Generator:
        try:
            while True:
                event = yield attempt.event_store.get()
                self.dispatch_to_input(inputs, event)
        except Interrupt:
            return

    @staticmethod
    def dispatch_to_input(inputs: dict, event: TezEvent) -> None:
        source = getattr(event, "source_vertex", None)
        if source is not None and source in inputs:
            inputs[source].handle_event(event)

    def deliver_snapshot(self, task: Task, inputs: dict) -> None:
        """Hand ``snapshot_events(task)`` to the task's inputs in order,
        one ``handle_events`` call per source input."""
        for source, events in groupby(self.snapshot_events(task),
                                      key=attrgetter("source_vertex")):
            if source in inputs:
                inputs[source].handle_events(list(events))

    def build_task_spec(self, task: Task,
                        attempt: TaskAttempt) -> TaskSpec:
        am = self.am
        vr = task.vertex
        vertex = vr.vertex
        input_specs = []
        for edge in vr.in_edges:
            manager = am.lifecycle.edge_manager(edge)
            input_specs.append(InputSpec(
                edge.source.name,
                edge.prop.input_descriptor,
                manager.num_dest_physical_inputs(task.index),
            ))
        for input_name, source in vertex.data_sources.items():
            split_payload = None
            splits = vr.root_splits.get(input_name)
            if splits and task.index < len(splits):
                split_payload = splits[task.index].payload
            input_specs.append(InputSpec(
                input_name,
                source.input_descriptor,
                1,
                extra=split_payload,
            ))
        output_specs = []
        for edge in vr.out_edges:
            manager = am.lifecycle.edge_manager(edge)
            output_specs.append(OutputSpec(
                edge.target.name,
                edge.prop.output_descriptor,
                manager.num_source_physical_outputs(task.index),
            ))
        for sink_name, sink in vertex.data_sinks.items():
            output_specs.append(OutputSpec(
                sink_name, sink.output_descriptor, 1
            ))
        return TaskSpec(
            # The session-unique DAG id: spill ids and staging paths
            # derived from attempt ids must not collide when a session
            # runs same-named DAGs (e.g. iterative workloads).
            dag_name=am._dag_id,
            vertex_name=vr.name,
            task_index=task.index,
            attempt=attempt.number,
            processor_descriptor=vertex.processor,
            inputs=input_specs,
            outputs=output_specs,
            parallelism=vr.parallelism,
        )

    def scrub_registry(self, registry: ObjectRegistry, vr) -> None:
        """A vertex change: VERTEX entries of another vertex die when a
        task of ``vr`` reuses the container. A finished DAG's entries
        are gone already (``DAGAppMaster._release_dag``)."""
        keep_vertex = f"{self.am._dag_id}/{vr.name}"
        stale = [
            key for key, (scope, scope_id, _v) in registry._entries.items()
            if scope == Scope.VERTEX and scope_id != keep_vertex
        ]
        for key in stale:
            registry._entries.pop(key, None)

    def snapshot_events(self, task: Task) -> list[DataMovementEvent]:
        """Buffered composite DMEs routed to this task, expanded via the
        current edge-manager routing (supports auto-reduced parallelism).

        Only the partitions this task actually reads are materialised.
        On a one-to-one edge the only composite that can route to the
        task is its own index's, which is probed; on a scatter-gather
        edge the manager's ``partition_range`` inverts the routing
        table, so resolving a consumer costs O(range) instead of
        O(partitions)."""
        vr = task.vertex
        incoming = vr.incoming_composites
        out: list[DataMovementEvent] = []
        for edge in vr.in_edges:
            manager = self.am.lifecycle.edge_manager(edge)
            source_name = edge.source.name
            if type(manager) is OneToOneEdgeManager:
                # route(s, 0) == {s: 0} and a one-to-one output has one
                # partition: probe instead of scanning every buffered
                # composite.
                comp = incoming.get((source_name, task.index))
                if comp is not None:
                    out.extend(CompositeDataMovementEvent.sub_events(
                        ((comp, 0, 0),)))
                continue
            composites = [
                (src_task, comp) for (src_name, src_task), comp
                in incoming.items() if src_name == source_name]
            picks = []
            if type(manager) is ScatterGatherEdgeManager:
                # Every partition of the task's range routes to the task,
                # at input route(0, p) + source task: route once per
                # partition, not once per (producer, partition).
                bases = [(partition, manager.route(0, partition)[task.index])
                         for partition in manager.partition_range(task.index)]
                picks = [(comp, partition - comp.source_output_start,
                          base + src_task)
                         for src_task, comp in composites
                         for partition, base in bases
                         if 0 <= partition - comp.source_output_start
                         < comp.count]
            else:
                # What this task reads is the same range for every
                # composite of the edge.
                partition_range = getattr(manager, "partition_range", None)
                own_range = None if partition_range is None \
                    else partition_range(task.index)
                for src_task, comp in composites:
                    start = comp.source_output_start
                    partitions = own_range if own_range is not None \
                        else range(start, start + comp.count)
                    for partition in partitions:
                        offset = partition - start
                        if not 0 <= offset < comp.count:
                            continue
                        routing = manager.route(src_task, partition)
                        if task.index in routing:
                            picks.append(
                                (comp, offset, routing[task.index]))
            if picks:
                out.extend(CompositeDataMovementEvent.sub_events(picks))
        out.sort(key=_EVENT_ORDER)
        return out

    # -------------------------------------------------- exit handling
    def on_attempt_exited(self, exit_event: AttemptExitedEvent) -> None:
        """Dispatcher handler: classify an attempt exit and fire the
        matching machine transition."""
        am = self.am
        attempt = exit_event.attempt
        error = exit_event.error
        if attempt.state not in (AttemptState.QUEUED, AttemptState.RUNNING):
            return
        attempt.finish_time = am.env.now
        task = attempt.task
        vr = task.vertex
        if am._dag_state != DAGState.RUNNING or am._dag is None or \
                vr.name not in am._vertices or \
                am._vertices[vr.name] is not vr:
            # Stale: the DAG this attempt belonged to is gone.
            am.machines.attempt.fire(attempt, "discard")
            self.finish_attempt_span(attempt)
            return
        fire = am.machines.attempt.fire
        if error is None:
            if task.state == TaskState.SUCCEEDED:
                # A sibling (speculation) already won.
                fire(attempt, "discard")
                attempt.end_reason = AttemptEndReason.SPECULATION_LOST
            else:
                fire(attempt, "succeed")
        elif isinstance(error, Interrupt) or getattr(
                attempt, "killing", False):
            fire(attempt, "kill")
        elif attempt.container is not None and \
                not attempt.container.node.alive:
            # The machine died under the task: environment fault, not
            # an application error — retried without burning a failure.
            attempt.end_reason = AttemptEndReason.CONTAINER_LOST
            am._record_node_failure(self.attempt_node_id(attempt))
            fire(attempt, "kill")
        elif attempt.end_reason in (AttemptEndReason.CONTAINER_LOST,
                                    AttemptEndReason.PREEMPTED):
            # The container was taken away externally (RM killed it on
            # a LOST node or preempted it): killed, not failed. Losing
            # a container still marks the machine as suspect.
            if attempt.end_reason == AttemptEndReason.CONTAINER_LOST:
                am._record_node_failure(self.attempt_node_id(attempt))
            fire(attempt, "kill")
        else:
            fire(attempt, "fail", error=error)
        self.finish_attempt_span(attempt)

    def finish_attempt_span(self, attempt: TaskAttempt) -> None:
        span = getattr(attempt, "telemetry_span", None)
        if span is None or span.finished:
            return
        telemetry = get_telemetry(self.am.env)
        if telemetry is None:
            return
        # A state's outcome is its value in lower case ("succeeded",
        # "failed", "killed", ...).
        reason = attempt.end_reason
        telemetry.finish(
            span, outcome=attempt.state._value_.lower(),
            node=attempt.node_id or "",
            reason=reason._value_ if reason else "",
        )

    @staticmethod
    def attempt_node_id(attempt: TaskAttempt) -> Optional[str]:
        if attempt.node_id:
            return attempt.node_id
        if attempt.container is not None:
            return attempt.container.node_id
        return None

    # -------------------------------------------------- machine hooks
    def act_attempt_succeeded(self, attempt: TaskAttempt) -> None:
        """Action for attempt ``succeed`` (RUNNING -> SUCCEEDED)."""
        am = self.am
        task = attempt.task
        vr = task.vertex
        if attempt.is_speculative:
            self._speculative_wins.inc()
        was_reexecution = task.succeeded_attempt is not None
        am.machines.task.fire(task, "succeed")
        vr._succeeded_count += 1
        task.succeeded_attempt = attempt
        task.output_version = attempt.number
        task.output_events = list(
            getattr(attempt, "_pending_success_events", [])
        )
        self._tasks_succeeded.inc()
        # Task counters aggregate into the AM registry under "task.";
        # execute_dag deltas them against the DAG-start snapshot, so
        # per-DAG and session-wide counter views derive from the same
        # accumulators.
        for counter, value in attempt.counters.items():
            am.registry.counter(f"task.{counter}").inc(value)
        # Kill speculation losers.
        for sibling in task.running_attempts():
            if sibling is not attempt:
                am.scheduler.kill_attempt(
                    sibling, AttemptEndReason.SPECULATION_LOST
                )
        # No explicit recovery snapshot: the write-ahead journal already
        # captured this success when the transition crossed the bus.
        am.router.route_events(vr, task, task.output_events)
        if not was_reexecution:
            vr.completed_tasks += 1
            am.lifecycle.notify_downstream_completion(vr, task)
        am.lifecycle.check_vertex_done(vr)

    def act_attempt_killed(self, attempt: TaskAttempt) -> None:
        """Action for attempt ``kill`` (-> KILLED): retry policy."""
        am = self.am
        self._attempts_killed.inc()
        task = attempt.task
        reason = attempt.end_reason
        if reason == AttemptEndReason.SPECULATION_LOST:
            return
        if task.state == TaskState.SUCCEEDED:
            return
        if reason == AttemptEndReason.DAG_KILLED:
            am.machines.task.fire(task, "kill")
            return
        if not task.running_attempts():
            # Re-run (container lost / preempted attempts are retried
            # without burning a failure, as in Tez).
            self.launch_attempt(task)

    def act_attempt_failed(self, attempt: TaskAttempt,
                           error: BaseException) -> None:
        """Action for attempt ``fail`` (-> FAILED): failure budget."""
        am = self.am
        attempt.end_reason = AttemptEndReason.APP_ERROR
        attempt.diagnostics = f"{type(error).__name__}: {error}"
        self._attempts_failed.inc()
        am._record_node_failure(self.attempt_node_id(attempt))
        task = attempt.task
        if task.state == TaskState.SUCCEEDED:
            return
        task.failed_attempts += 1
        if task.failed_attempts >= am.config.max_task_attempts:
            am.machines.task.fire(task, "fail")
            am._fail_dag(
                f"task {task.task_id} failed {task.failed_attempts} "
                f"times; last error: {attempt.diagnostics}"
            )
        elif not task.running_attempts():
            # Back off before retrying so transient environment faults
            # (e.g. a replica's node rebooting) have time to clear.
            def relaunch() -> Generator:
                yield am.env.timeout(_RETRY_DELAY)
                if (
                    am._dag_state == DAGState.RUNNING
                    and task.state not in (TaskState.SUCCEEDED,
                                           TaskState.FAILED,
                                           TaskState.KILLED)
                    and not task.running_attempts()
                ):
                    self.launch_attempt(task)

            am.env.process(relaunch(), name=f"retry:{task.task_id}")

    # -------------------------------------------------- re-execution
    def reexecute_task(self, task: Task,
                       reason: AttemptEndReason) -> None:
        """Regenerate a task's lost output (paper 4.3)."""
        am = self.am
        if task.state != TaskState.SUCCEEDED:
            return  # already being handled
        vr = task.vertex
        self._reexecutions.inc()
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            telemetry.event(
                "am.reexecution", dag=vr.dag_id, vertex=vr.name,
                index=task.index, reason=reason.value,
            )
        # The journaled `restart` transition below revokes the recorded
        # success in the recovery fold — no side-store to invalidate.
        am.machines.task.fire(task, "restart")
        vr._succeeded_count -= 1
        if vr.state == VertexState.SUCCEEDED:
            am.machines.vertex.fire(vr, "reactivate")
        self.launch_attempt(task)
