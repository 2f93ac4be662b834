"""AM fault tolerance: journal replay and node-health tracking.

The simulated counterpart of Tez's RecoveryService. The durable state
lives in :class:`~repro.tez.am.journal.RecoveryJournal` — the
write-ahead recovery state the dispatcher feeds — and replay is *event
re-dispatch*: the restarted AM reads the journal, then dispatches one
:class:`~repro.tez.am.dispatcher.RecoveryEvent` per surviving task
success through its own bus. The handler fires the attempt/task
``recover`` transitions through the audited machines, so a recovered
DAG goes through exactly the tables a fresh one does (and the recover
transitions are themselves journaled under the new epoch — a second
crash replays just as well). Node-health accounting (blacklisting,
lost-node re-execution) lives here too: it is the same paper-4.3
machinery.
"""

from __future__ import annotations

from typing import Optional

from ...cluster import Node
from ...telemetry import get_telemetry
from ..dag import DataSourceType
from .dispatcher import RecoveryEvent
from .structures import AttemptEndReason, DAGState, TaskState

__all__ = ["RecoveryService"]


class RecoveryService:
    """Replay + node-health component of one AM instance."""

    def __init__(self, am):
        self.am = am
        counter = am.registry.counter
        self._nodes_blacklisted = counter("nodes_blacklisted")
        self._nodes_lost = counter("nodes_lost")
        self._lost_node_reexecutions = counter("lost_node_reexecutions")

    # -------------------------------------------------- journal replay
    def recovered_work(self, dag_name: str) -> dict:
        """The journaled successes of ``dag_name``; entries referencing
        vertices the submitted DAG no longer has are dropped loudly
        (counted + traced), never silently."""
        am = self.am
        if dag_name not in am.recovery.dags:
            return {}
        recovered = dict(am.recovery.dags[dag_name].successes)
        for key in [k for k in recovered if k[0] not in am._vertices]:
            del recovered[key]
            self._count_dropped(dag_name, key, "unknown-vertex")
        return recovered

    def replay(self, vr, recovered: dict) -> None:
        """Re-dispatch recorded successes of a starting vertex through
        the bus; entries whose task index is out of range (the DAG was
        re-submitted with lower parallelism) are dropped loudly."""
        am = self.am
        for (vertex_name, index), rec in recovered.items():
            if vertex_name != vr.name:
                continue
            if index >= len(vr.tasks):
                self._count_dropped(vr.dag_name, (vertex_name, index),
                                    "index-out-of-range")
                continue
            am.registry.counter("recovery.events_replayed").inc()
            am.dispatcher.dispatch(RecoveryEvent(
                vertex=vertex_name, index=index,
                number=rec.attempt_number, node_id=rec.node_id,
                events=list(rec.events),
            ))

    def on_recovery_event(self, event: RecoveryEvent) -> None:
        """Apply one recovered success: attempts and tasks take their
        ``recover`` transition (NEW -> SUCCEEDED) through the machines,
        without re-running anything."""
        am = self.am
        vr = am._vertices.get(event.vertex)
        if vr is None or event.index >= len(vr.tasks):
            return
        task = vr.tasks[event.index]
        if task.state != TaskState.NEW:
            return
        machines = am.machines
        # Reconstruct the winner under its *original* attempt number so
        # staged output paths and spill ids line up; earlier attempt
        # slots become placeholders discarded through the machines.
        while len(task.attempts) < event.number:
            machines.attempt.fire(task.new_attempt(), "discard")
        attempt = task.new_attempt()
        attempt.node_id = event.node_id or None
        # Set before firing so the journal's write-ahead capture of the
        # recover transition carries the same payload as the original.
        attempt._pending_success_events = list(event.events)
        machines.attempt.fire(attempt, "recover")
        machines.task.fire(task, "recover")
        vr._succeeded_count += 1
        task.succeeded_attempt = attempt
        task.output_version = attempt.number
        task.output_events = list(event.events)
        vr.scheduled.add(event.index)
        vr.completed_tasks += 1
        am.registry.counter("recovery.tasks_recovered").inc()

    def _count_dropped(self, dag_name: str, key: tuple,
                       reason: str) -> None:
        am = self.am
        am.registry.counter("recovery.entries_dropped").inc()
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            telemetry.event(
                "recovery.entry_dropped", dag=dag_name,
                vertex=key[0], index=key[1], reason=reason,
            )

    # -------------------------------------------------- node health
    def record_node_failure(self, node_id: Optional[str]) -> None:
        """Count a task failure / lost container against its node; past
        the threshold the node is blacklisted (paper 4.3). When too much
        of the cluster ends up blacklisted the failures are probably the
        job's fault, not the machines' — the failsafe disables
        blacklisting entirely."""
        am = self.am
        if (
            node_id is None
            or not am.config.node_blacklisting_enabled
            or am.blacklisting_disabled
            or node_id in am.blacklisted_nodes
        ):
            return
        am._node_failures[node_id] = am._node_failures.get(node_id, 0) + 1
        if am._node_failures[node_id] < am.config.node_max_task_failures:
            return
        am.blacklisted_nodes.add(node_id)
        self._nodes_blacklisted.inc()
        telemetry = get_telemetry(am.env)
        if telemetry is not None:
            telemetry.event(
                "am.node_blacklisted", node=node_id,
                failures=am._node_failures[node_id],
            )
        am.scheduler.blacklist_node(node_id)
        limit = (
            am.config.blacklist_disable_fraction
            * len(am.services.cluster.nodes)
        )
        if len(am.blacklisted_nodes) > limit:
            am.blacklisting_disabled = True
            am.blacklisted_nodes.clear()
            am._node_failures.clear()
            am.scheduler.clear_blacklist()

    def on_node_lost(self, node: Node) -> None:
        """Proactively re-execute completed tasks whose (non-reliable)
        outputs lived on a lost node and are still needed."""
        am = self.am
        self._nodes_lost.inc()
        if am._dag_state != DAGState.RUNNING:
            return
        for vr in am._vertices.values():
            unreliable_out = [
                e for e in vr.out_edges
                if e.prop.data_source == DataSourceType.PERSISTED
            ]
            if not unreliable_out:
                continue
            consumers_done = all(
                am._vertices[e.target.name].all_tasks_done()
                for e in unreliable_out
            )
            if consumers_done:
                continue
            for task in vr.tasks:
                if (
                    task.state == TaskState.SUCCEEDED
                    and task.succeeded_attempt is not None
                    and task.succeeded_attempt.node_id == node.node_id
                ):
                    self._lost_node_reexecutions.inc()
                    am.runner.reexecute_task(
                        task, AttemptEndReason.CONTAINER_LOST
                    )
