"""Control-plane event routing along edge-manager tables.

The simulated counterpart of Tez's dispatcher-fed event routing: task
outputs emit DataMovementEvents, the AM resolves them against the edge
manager's routing table and delivers them to consumer attempts with
heartbeat latency; VertexManager / InputInitializer / InputReadError
events sent by running task code flow back the same way. Deliveries
cross the AM :class:`~repro.tez.am.dispatcher.Dispatcher`
(``DataDeliveryBatchEvent`` / ``TaskUplinkEvent``) so their ordering is
the bus's deterministic (time, seq) order.
"""

from __future__ import annotations

from ..events import (
    CompositeDataMovementEvent,
    DataMovementEvent,
    InputInitializerEvent,
    InputReadErrorEvent,
    TezEvent,
    VertexManagerEvent,
)
from .dispatcher import (
    DataDeliveryBatchEvent,
    DataDeliveryEvent,
    TaskUplinkEvent,
)
from .structures import (
    AttemptEndReason,
    AttemptState,
    DAGState,
    TaskAttempt,
    TaskState,
    VertexRuntime,
)

__all__ = ["EventRouter"]

_LIVE = (AttemptState.QUEUED, AttemptState.RUNNING)


class EventRouter:
    """Event-routing component of one AM instance."""

    def __init__(self, am):
        self.am = am
        # Delivery coalescing: routed DMEs due on the same simulated
        # tick ride one DataDeliveryBatchEvent (one dispatcher process
        # and one bus dispatch per tick instead of one per event).
        self._delivery_buckets: dict[float, DataDeliveryBatchEvent] = {}

    # -------------------------------------------------- output routing
    def route_events(self, vr: VertexRuntime, task,
                     events: list[TezEvent]) -> None:
        for event in events:
            if isinstance(event, CompositeDataMovementEvent):
                self.route_composite(vr, event)
            elif isinstance(event, DataMovementEvent):
                self.route_dme(vr, event)
            elif isinstance(event, VertexManagerEvent):
                self.route_vm_event(event, task.index)

    def _edge_candidates(self, vr: VertexRuntime, event) -> list:
        # With multiple outputs, the producing output tags the event
        # with its edge target (`_edge_target`); without the tag the
        # event is routed along every out-edge.
        target_name = getattr(event, "_edge_target", None)
        if target_name:
            return [e for e in vr.out_edges
                    if e.target.name == target_name]
        return vr.out_edges

    def route_dme(self, vr: VertexRuntime,
                  event: DataMovementEvent) -> None:
        for edge in self._edge_candidates(vr, event):
            target = self.am._vertices[edge.target.name]
            manager = self.am.lifecycle.edge_manager(edge)
            key = (vr.name, event.source_task_index,
                   event.source_output_index)
            target.incoming[key] = event
            if target.scheduled:
                self._deliver_live(target, manager, event)

    def route_composite(self, vr: VertexRuntime,
                        event: CompositeDataMovementEvent) -> None:
        """Route one composite DME: buffered compactly (expanded per
        consumer task at launch), and expanded here only for consumer
        attempts that are already running — in partition-ascending
        order, exactly the sequence the per-partition events took."""
        for edge in self._edge_candidates(vr, event):
            target = self.am._vertices[edge.target.name]
            manager = self.am.lifecycle.edge_manager(edge)
            target.incoming_composites[
                (vr.name, event.source_task_index)
            ] = event
            if not target.scheduled:
                continue
            # Nothing to expand until some consumer attempt is live
            # with its inputs up (`_live_attempts` of some task).
            if not any(
                a.state in _LIVE and a.event_store is not None
                for t in target.tasks for a in t.attempts
            ):
                continue
            # What `_deliver_live` does for each sub-event, with the
            # routed events materialised in one `sub_events` call.
            picks, attempts = [], []
            for offset in range(event.count):
                routing = manager.route(event.source_task_index,
                                        event.source_output_start + offset)
                for dest_index, input_index in routing.items():
                    for attempt in self._live_attempts(target, dest_index):
                        picks.append((event, offset, input_index))
                        attempts.append(attempt)
            for attempt, routed in zip(
                    attempts, CompositeDataMovementEvent.sub_events(picks)):
                self.deliver_later(attempt, routed)

    def _deliver_live(self, target: VertexRuntime, manager,
                      event: DataMovementEvent) -> None:
        """Deliver one buffered-form DME to the running attempts of the
        consumer tasks it routes to."""
        routing = manager.route(
            event.source_task_index, event.source_output_index
        )
        for dest_index, input_index in routing.items():
            for dest_attempt in self._live_attempts(target, dest_index):
                routed = DataMovementEvent(
                    source_vertex=event.source_vertex,
                    source_task_index=event.source_task_index,
                    source_output_index=event.source_output_index,
                    payload=event.payload,
                    version=event.version,
                    target_input_index=input_index,
                )
                self.deliver_later(dest_attempt, routed)

    @staticmethod
    def _live_attempts(target: VertexRuntime, dest_index: int) -> list:
        """The running attempts (``Task.running_attempts``) of consumer
        task ``dest_index`` whose inputs are up to take events."""
        if dest_index >= len(target.tasks):
            return []
        return [a for a in target.tasks[dest_index].attempts
                if a.state in _LIVE and a.event_store is not None]

    def deliver_later(self, attempt: TaskAttempt,
                      event: DataMovementEvent) -> None:
        """Heartbeat-delayed delivery of a routed DME to a live
        attempt, through the dispatcher.

        Every delivery due on one tick joins a per-tick batch: the
        first one schedules the batch and the rest just append."""
        am = self.am
        delay = am.spec.heartbeat_interval / 2
        due = am.env.now + delay
        batch = self._delivery_buckets.get(due)
        if batch is None:
            batch = DataDeliveryBatchEvent()
            self._delivery_buckets[due] = batch
            am.dispatcher.dispatch_after(delay, batch,
                                         name="dme-deliver")
        batch.deliveries.append(DataDeliveryEvent(attempt, event))

    def on_data_delivery_batch(self,
                               batch: DataDeliveryBatchEvent) -> None:
        """Deliver a coalesced batch: stage every woken event-pump
        getter and schedule them with one kernel heap entry."""
        self._delivery_buckets.pop(batch.time, None)
        staged = []
        for event in batch.deliveries:
            attempt = event.attempt
            if (
                attempt.state != AttemptState.RUNNING
                or attempt.event_store is None
            ):
                continue
            woken = attempt.event_store.offer(event.payload)
            if woken is not None:
                staged.append(woken)
        if staged:
            self.am.env.schedule_many(staged)

    # -------------------------------------------------- task uplink
    def event_from_task(self, attempt: TaskAttempt,
                        event: TezEvent) -> None:
        """Events sent mid-task via the context (heartbeat delayed)."""
        self.am.dispatcher.dispatch_after(
            self.am.spec.heartbeat_interval / 2,
            TaskUplinkEvent(attempt, event),
            name="task-event",
        )

    def on_task_uplink(self, uplink: TaskUplinkEvent) -> None:
        am = self.am
        if am._dag_state != DAGState.RUNNING:
            return
        event = uplink.payload
        if isinstance(event, VertexManagerEvent):
            self.route_vm_event(event, uplink.attempt.task.index)
        elif isinstance(event, InputInitializerEvent):
            ictx = am._init_contexts.get(
                (event.target_vertex, event.target_input)
            )
            if ictx is not None:
                ictx.deliver_event(event)
        elif isinstance(event, InputReadErrorEvent):
            self.handle_input_read_error(uplink.attempt, event)

    def route_vm_event(self, event: VertexManagerEvent,
                       producer_index) -> None:
        target = self.am._vertices.get(event.target_vertex)
        if target is None:
            return
        if event.producer_task_index is None:
            event.producer_task_index = producer_index
        if target.manager is None or not target.started:
            target.pending_vm_events.append(event)
            return
        target.manager.on_vertex_manager_event(event)

    # -------------------------------------------------- read errors
    def handle_input_read_error(self, consumer: TaskAttempt,
                                event: InputReadErrorEvent) -> None:
        src_vr = self.am._vertices.get(event.source_vertex)
        if src_vr is None:
            return
        if event.source_task_index >= len(src_vr.tasks):
            return
        producer = src_vr.tasks[event.source_task_index]
        if producer.output_version != event.version:
            # Stale: already re-executed. Re-send current outputs so the
            # waiting consumer can retry.
            if producer.state == TaskState.SUCCEEDED:
                self.route_events(src_vr, producer,
                                  producer.output_events)
            return
        self.am.runner.reexecute_task(
            producer, AttemptEndReason.OUTPUT_LOST
        )
