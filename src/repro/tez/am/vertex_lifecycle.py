"""Vertex lifecycle: initialization, starting, reconfiguration.

The simulated counterpart of Tez's VertexImpl service side: runs
root-input initializers, resolves parallelism (including one-to-one
inheritance and runtime reconfiguration by vertex managers), builds
edge managers, drives VertexManager plugins, and owns the vertex
machine's ``start``/``complete`` actions. The vertex *state* itself
moves only through the declarative table in ``state_machines.py``.
"""

from __future__ import annotations

from typing import Generator

from ...telemetry import get_telemetry
from ..dag import DataMovementType, Edge, SchedulingType
from ..edge_manager import (
    BroadcastEdgeManager,
    EdgeManagerPlugin,
    OneToOneEdgeManager,
    ScatterGatherEdgeManager,
)
from ..initializer import InitializerContext
from ..vertex_manager import (
    ImmediateStartVertexManager,
    InputReadyVertexManager,
    RootInputVertexManager,
    ShuffleVertexManager,
)
from .structures import DAGState, TaskState, VertexRuntime, VertexState
from .vm_context import _VMContext

__all__ = ["DagAbort", "VertexLifecycle"]


class DagAbort(Exception):
    """Internal: the DAG cannot make progress."""


class VertexLifecycle:
    """Vertex init/start/reconfigure component of one AM instance."""

    def __init__(self, am):
        self.am = am

    # -------------------------------------------------- edge managers
    def create_edge_manager(self, edge: Edge) -> EdgeManagerPlugin:
        prop = edge.prop
        if prop.edge_manager_descriptor is not None:
            manager = prop.edge_manager_descriptor.cls(
                prop.edge_manager_descriptor.payload
            )
        elif prop.data_movement == DataMovementType.ONE_TO_ONE:
            manager = OneToOneEdgeManager()
        elif prop.data_movement == DataMovementType.BROADCAST:
            manager = BroadcastEdgeManager()
        elif prop.data_movement == DataMovementType.SCATTER_GATHER:
            manager = ScatterGatherEdgeManager()
        else:
            raise ValueError(
                f"edge {edge}: CUSTOM movement requires a manager"
            )
        return manager

    def edge_manager(self, edge: Edge) -> EdgeManagerPlugin:
        return self.am._edge_managers[(edge.source.name, edge.target.name)]

    def sync_edge_parallelism(self, edge: Edge) -> None:
        manager = self.edge_manager(edge)
        manager.source_parallelism = self.am._vertices[
            edge.source.name
        ].parallelism
        manager.dest_parallelism = self.am._vertices[
            edge.target.name
        ].parallelism

    # -------------------------------------------------- initialization
    def init_and_start(self, vr: VertexRuntime,
                       recovered: dict) -> Generator:
        am = self.am
        try:
            yield from self.initialize_vertex(vr)
        except (DagAbort, Exception) as exc:
            init = am.machines.vertex_init(vr)
            if not init.terminal:
                init.fire("abort")
            if not vr.inited_event.triggered:
                vr.inited_event.succeed()
            am._fail_dag(
                f"vertex {vr.name} failed to initialize: {exc}"
            )
            return
        if not vr.inited_event.triggered:
            vr.inited_event.succeed()
        if am._dag_state == DAGState.RUNNING:
            am.machines.vertex(vr).fire("start", recovered=recovered)
            am._check_dag_done()

    def initialize_vertex(self, vr: VertexRuntime) -> Generator:
        """Drive a vertex through its INITIALIZING phase.

        The phases are explicit ``vertex_init`` machine transitions
        (audited like every other table); the coroutine only carries
        the *waiting* — initializer processes and one-to-one source
        resolution — between the fires. The synchronous finalizers
        (task creation, manager bring-up) are machine actions.
        """
        am = self.am
        am.machines.vertex(vr).fire("init")
        init = am.machines.vertex_init(vr)
        init.fire("begin")
        yield from self._run_root_initializers(vr)
        init.fire("sources_ready")
        yield from self._resolve_parallelism(vr)
        init.fire("parallelism_resolved")   # -> act_init_tasks_created
        init.fire("manager_ready")          # -> act_init_manager_ready
        init.fire("finish")
        am.machines.vertex(vr).fire("inited")

    def _run_root_initializers(self, vr: VertexRuntime) -> Generator:
        """SOURCES_INITIALIZING: run root-input initializers (possibly
        waiting on events from other vertices, e.g. dynamic partition
        pruning)."""
        am = self.am
        for input_name, source in vr.vertex.data_sources.items():
            if source.initializer_descriptor is None:
                vr.initialized_inputs.add(input_name)
                continue
            ictx = InitializerContext(
                am.env, am.services.hdfs, am.services.cluster,
                vr.name, input_name, vr.parallelism,
            )
            am._init_contexts[(vr.name, input_name)] = ictx
            initializer = source.initializer_descriptor.cls(
                ictx, source.initializer_descriptor.payload
            )
            splits = yield am.env.process(
                initializer.initialize(),
                name=f"init:{vr.name}:{input_name}",
            )
            vr.root_splits[input_name] = list(splits)
            vr.initialized_inputs.add(input_name)
            # Runtime split calculation overrides any preset
            # parallelism: the initializer has the accurate picture.
            vr.parallelism = max(1, len(splits))

    def _resolve_parallelism(self, vr: VertexRuntime) -> Generator:
        """RESOLVING_PARALLELISM: one-to-one inheritance, then verify
        the split counts agree with the final parallelism."""
        am = self.am
        if vr.parallelism == -1:
            # Inherit from a one-to-one source; wait for its own
            # (possibly initializer-driven) resolution first.
            for edge in vr.in_edges:
                if edge.prop.data_movement == DataMovementType.ONE_TO_ONE:
                    src = am._vertices[edge.source.name]
                    if src.parallelism == -1:
                        yield src.inited_event
                    if src.parallelism > 0:
                        vr.parallelism = src.parallelism
                        break
        if vr.parallelism == -1:
            raise DagAbort(
                f"vertex {vr.name}: could not resolve parallelism"
            )
        for split_list in vr.root_splits.values():
            if len(split_list) not in (0, vr.parallelism):
                raise DagAbort(
                    f"vertex {vr.name}: initializer produced "
                    f"{len(split_list)} splits but parallelism is "
                    f"{vr.parallelism}"
                )

    def act_init_tasks_created(self, vr: VertexRuntime) -> None:
        """Action for vertex_init ``parallelism_resolved``
        (RESOLVING_PARALLELISM -> TASKS_CREATED): create the task set,
        apply locality hints, and sync edge-manager parallelism."""
        vr.create_tasks()
        # Root-split locality hints.
        for input_name, split_list in vr.root_splits.items():
            for task, split in zip(vr.tasks, split_list):
                task.location_nodes = tuple(split.preferred_nodes)
        if vr.vertex.location_hints:
            for task, hint in zip(vr.tasks, vr.vertex.location_hints):
                task.location_nodes = tuple(hint.nodes)
                task.location_racks = tuple(hint.racks)
        for edge in vr.in_edges + vr.out_edges:
            self.sync_edge_parallelism(edge)

    def act_init_manager_ready(self, vr: VertexRuntime) -> None:
        """Action for vertex_init ``manager_ready`` (TASKS_CREATED ->
        MANAGER_READY): bring up the VertexManager plugin and feed it
        the initialized root inputs."""
        vr.manager = self.create_vertex_manager(vr)
        vr.manager.initialize()
        for input_name in vr.root_splits:
            vr.manager.on_root_input_initialized(
                input_name, len(vr.root_splits[input_name])
            )

    def create_vertex_manager(self, vr: VertexRuntime):
        vmctx = _VMContext(self.am, vr)
        descriptor = vr.vertex.vertex_manager
        if descriptor is not None:
            return descriptor.cls(vmctx, descriptor.payload)
        # Defaults mirror Tez's selection by vertex characteristics.
        sequential_in = [
            e for e in vr.in_edges
            if e.prop.scheduling == SchedulingType.SEQUENTIAL
        ]
        if not sequential_in:
            if vr.vertex.data_sources:
                return RootInputVertexManager(vmctx)
            return ImmediateStartVertexManager(vmctx)
        if any(
            e.prop.data_movement == DataMovementType.SCATTER_GATHER
            for e in sequential_in
        ):
            return ShuffleVertexManager(vmctx)
        return InputReadyVertexManager(vmctx)

    # -------------------------------------------------- machine hooks
    def act_vertex_started(self, vr: VertexRuntime,
                           recovered: dict) -> None:
        """Action for vertex ``start`` (INITED -> RUNNING)."""
        am = self.am
        vr.start_time = am.env.now
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            vr.telemetry_span = telemetry.span(
                "vertex", vr.name, parent=am._dag_span,
                dag=vr.dag_id, vertex=vr.name,
                parallelism=vr.parallelism,
                state=vr.state.value,
            )
            telemetry.event(
                "am.vertex_state", dag=vr.dag_id, vertex=vr.name,
                state=vr.state.value,
            )
        # Replay recovered successes (AM restart): mark tasks done and
        # re-route their recorded events without re-running them.
        am.recovery_service.replay(vr, recovered)
        if vr.scheduled:
            vr.parallelism_locked = True
        vr.manager.on_vertex_started()
        # Replay anything that happened before this vertex had a
        # manager: upstream completions (fast sources can finish while
        # a slow initializer is still running) and buffered
        # VertexManagerEvents. Managers treat these idempotently.
        for edge in vr.in_edges:
            source = am._vertices[edge.source.name]
            for task in source.tasks:
                if task.state == TaskState.SUCCEEDED:
                    vr.manager.on_source_task_completed(
                        source.name, task.index
                    )
        for event in vr.pending_vm_events:
            vr.manager.on_vertex_manager_event(event)
        vr.pending_vm_events = []
        # Notify managers downstream of recovered completions.
        for task in vr.tasks:
            if task.state == TaskState.SUCCEEDED:
                am.router.route_events(vr, task, task.output_events)
                self.notify_downstream_completion(vr, task)

    def vertex_all_tasks_done(self, vr: VertexRuntime) -> bool:
        """Guard for vertex ``complete``."""
        return vr.all_tasks_done()

    def act_vertex_completed(self, vr: VertexRuntime) -> None:
        """Action for vertex ``complete`` (RUNNING -> SUCCEEDED)."""
        am = self.am
        vr.finish_time = am.env.now
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            span = getattr(vr, "telemetry_span", None)
            if span is not None:
                telemetry.finish(span, outcome=vr.state.value)
            telemetry.event(
                "am.vertex_state", dag=vr.dag_id, vertex=vr.name,
                state=vr.state.value,
            )

    # -------------------------------------------------- scheduling API
    def reconfigure_parallelism(self, vr: VertexRuntime,
                                parallelism: int) -> None:
        vr.set_parallelism(parallelism)
        for edge in vr.in_edges + vr.out_edges:
            self.sync_edge_parallelism(edge)

    def schedule_tasks(self, vr: VertexRuntime,
                       indices: list[int]) -> None:
        am = self.am
        if am._dag_state != DAGState.RUNNING:
            return
        if not vr.scheduled:
            vr.parallelism_locked = True
            # First scheduling of this vertex pins the physical
            # partition counts its producers-side edges use.
            for edge in vr.out_edges:
                manager = self.edge_manager(edge)
                if isinstance(manager, ScatterGatherEdgeManager):
                    self.sync_edge_parallelism(edge)
                    manager.freeze_partitions()
        for index in indices:
            if index in vr.scheduled or index >= len(vr.tasks):
                continue
            vr.scheduled.add(index)
            task = vr.tasks[index]
            if task.state == TaskState.SUCCEEDED:
                continue  # recovered
            am.machines.task(task).fire("schedule")
            am.runner.launch_attempt(task)

    # -------------------------------------------------- completion
    def notify_downstream_completion(self, vr: VertexRuntime,
                                     task) -> None:
        for edge in vr.out_edges:
            target = self.am._vertices[edge.target.name]
            if target.manager is not None:
                target.manager.on_source_task_completed(vr.name, task.index)

    def check_vertex_done(self, vr: VertexRuntime) -> None:
        if vr.state == VertexState.RUNNING and vr.all_tasks_done():
            self.am.machines.vertex(vr).fire("complete")
        self.am._check_dag_done()
