"""Task scheduler: locality-aware container negotiation and reuse.

This is the Tez AM component that owns all containers (paper 4.1/4.2).
It queues task requests by priority, satisfies them either by reusing
an idle container (node match first, then rack, then any — per config)
or by asking YARN for new containers with locality preferences, and
releases containers back to YARN after an idle timeout so the cluster
can be shared (multi-tenancy, paper 4.3).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from operator import attrgetter
from typing import Any, Callable, Generator, Optional

from ...sim import Environment, Interrupt, Store
from ...telemetry import MetricsRegistry, TaskTraceEntry, get_telemetry
from ...yarn import (
    AMContext,
    Container,
    ContainerExitStatus,
    ContainerState,
    Priority,
    Resource,
)
from ..config import TezConfig
from .structures import AttemptEndReason, TaskAttempt

__all__ = ["TaskRequest", "TaskSchedulerService"]

_STOP = object()
_WARMUP = object()
_ORDER = attrgetter("order")


class TaskRequest:
    """A queued ask: run this attempt somewhere appropriate."""

    def __init__(
        self,
        attempt: TaskAttempt,
        priority: int,
        capability: Resource,
        nodes: tuple[str, ...] = (),
        racks: tuple[str, ...] = (),
    ):
        self.attempt = attempt
        self.priority = priority
        self.yarn_priority = Priority(priority)   # the same, as YARN's record
        self.capability = capability
        self.nodes = tuple(nodes)
        self.racks = tuple(racks)
        self.asked_yarn = False
        self.queued_at: Optional[float] = None
        # Set by TaskSchedulerService.schedule: the racks this request
        # is local to, and its place in the queue.
        self.rack_set: frozenset[str] = frozenset()
        self.order: tuple = ()

    def __repr__(self) -> str:
        return f"<TaskRequest {self.attempt.attempt_id} p{self.priority}>"


class _Slot:
    """Scheduler-side state of one held container."""

    def __init__(self, container: Container, mailbox: Store, seq: int = 0):
        self.container = container
        self.mailbox = mailbox
        # Creation order; reuse ties break on the lowest seq.
        self.seq = seq
        self.current: Optional[TaskAttempt] = None
        self.idle_since: Optional[float] = None
        self.launched = False
        self.releasing = False


class TaskSchedulerService:
    def __init__(
        self,
        env: Environment,
        ctx: AMContext,
        config: TezConfig,
        run_attempt: Callable[[TaskAttempt, Container], Generator],
        on_attempt_exit: Callable[[TaskAttempt, Optional[BaseException]], None],
        defer_exits: Callable[..., None],
        registry: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.ctx = ctx
        self.config = config
        self.spec = ctx.rm.spec
        self.cluster = ctx.rm.cluster
        self._run_attempt = run_attempt
        # Kills and lost containers exit through ``on_attempt_exit``,
        # synchronously. An attempt that ends in its container exits
        # through ``defer_exits(attempt, error, unit)``; ``unit(process)``
        # replays [free slot, process exit, match slot] later in the tick.
        self._on_attempt_exit = on_attempt_exit
        self.defer_exits = defer_exits
        # Queued requests in queue order (see ``_enqueue``).
        self.pending: list[TaskRequest] = []
        self.slots: dict[Any, _Slot] = {}   # ContainerId -> _Slot
        self.blacklisted: set[str] = set()  # nodes the AM avoids
        self._stopped = False
        # attempt->slot and attempt->request maps plus idle-slot
        # indexes keyed by node and rack. Index entries may be stale
        # w.r.t. node death or blacklisting; every lookup re-validates
        # its candidates.
        self._slot_seq = itertools.count(1)
        self._slot_by_attempt: dict[TaskAttempt, _Slot] = {}
        self._pending_by_attempt: dict[TaskAttempt, TaskRequest] = {}
        # The request side of the book: every queued request is also
        # in the bucket of each node and rack it is local to, or in
        # the no-locality bucket, each in queue order. A request's
        # nodes and racks are fixed once queued and it leaves only
        # through ``_dequeue``, so these are never stale.
        self._request_seq = itertools.count(1)
        self._pending_by_node: dict[str, list[TaskRequest]] = {}
        self._pending_by_rack: dict[str, list[TaskRequest]] = {}
        self._pending_anywhere: list[TaskRequest] = []
        self._idle_slots: dict[int, _Slot] = {}          # seq -> slot
        self._idle_by_node: dict[str, dict[int, _Slot]] = {}
        self._idle_by_rack: dict[str, dict[int, _Slot]] = {}
        self.session_waiting = False  # between DAGs: longer idle timeout
        # Metrics live in a registry (typically the owning AM's) so the
        # AM's per-DAG delta accounting and these counters cannot drift.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_launched = self.registry.counter(
            "scheduler.containers_launched")
        self._c_placed = self.registry.counter("scheduler.tasks_placed")
        self._c_reuse = self.registry.counter("scheduler.reuse_hits")
        self._c_released = self.registry.counter(
            "scheduler.containers_released")
        self._h_queue_wait = self.registry.histogram(
            "scheduler.queue_wait_seconds")
        # Execution trace (paper Figure 7): one TaskTraceEntry per task
        # run; iterates like the historical (container_id, attempt_id,
        # vertex, start, end) tuple.
        self.task_trace: list[TaskTraceEntry] = []
        env.process(self._allocation_pump(), name="tez-alloc-pump")
        env.process(self._completion_pump(), name="tez-completion-pump")
        env.process(self._idle_reaper(), name="tez-idle-reaper")

    # -- counter views (registry-backed) --------------------------------
    @property
    def containers_launched(self) -> int:
        return int(self._c_launched.value)

    @property
    def tasks_placed(self) -> int:
        return int(self._c_placed.value)

    @property
    def reuse_hits(self) -> int:
        return int(self._c_reuse.value)

    @property
    def containers_released(self) -> int:
        return int(self._c_released.value)

    # ------------------------------------------------------------------ API
    def schedule(self, request: TaskRequest) -> None:
        """Queue an attempt for execution."""
        request.queued_at = self.env.now
        if self.blacklisted and request.nodes:
            # Locality preferences pointing at blacklisted nodes would
            # make YARN place us right back on the flaky machine.
            request.nodes = tuple(
                n for n in request.nodes if n not in self.blacklisted
            )
        request.rack_set = frozenset(request.racks) | {
            self.cluster.nodes[n].rack
            for n in request.nodes if n in self.cluster.nodes
        }
        slot = self._find_reusable_slot(request)
        if slot is not None:
            self._c_reuse.inc()
            self._assign(slot, request, reuse=True)
            return
        self._enqueue(request)
        self._ask_yarn(request)

    def deallocate(self, request_attempt: TaskAttempt) -> bool:
        """Remove a not-yet-running attempt from the queue."""
        req = self._pending_by_attempt.get(request_attempt)
        if req is None:
            return False
        self._dequeue(req)
        if req.asked_yarn:
            self._cancel_ask(req)
        return True

    def kill_attempt(self, attempt: TaskAttempt,
                     reason: AttemptEndReason) -> None:
        """Stop a running attempt; its container survives for reuse
        (except preemption, which releases the container to YARN)."""
        if self.deallocate(attempt):
            attempt.end_reason = reason
            self._on_attempt_exit(attempt, Interrupt(reason))
            return
        slot = self._slot_of(attempt)
        if slot is None:
            return
        attempt.end_reason = reason
        setattr(attempt, "killing", True)
        if attempt.process is not None and attempt.process.is_alive:
            # Interrupt the task itself so its exit is reported (and
            # the task re-queued) before the container goes away.
            attempt.process.interrupt(reason)
        if reason == AttemptEndReason.PREEMPTED:
            self.release_slot(slot)

    def _slot_of(self, attempt: TaskAttempt) -> Optional[_Slot]:
        slot = self._slot_by_attempt.get(attempt)
        if (
            slot is not None
            and slot.current is attempt
            and self.slots.get(slot.container.container_id) is slot
        ):
            return slot
        return None

    def release_slot(self, slot: _Slot) -> None:
        if slot.releasing:
            return
        slot.releasing = True
        self._unmark_idle(slot)
        current = slot.current
        if current is not None and self._slot_by_attempt.get(current) is slot:
            del self._slot_by_attempt[current]
        self._c_released.inc()
        self.slots.pop(slot.container.container_id, None)
        # Nothing is mailed to a released slot: the idle TezChild loop
        # parked on the mailbox goes with it, not to the collector.
        slot.mailbox.abandon()
        self.ctx.release_container(slot.container.container_id)

    # ------------------------------------------------------- node blacklist
    def blacklist_node(self, node_id: str) -> None:
        """Stop placing work on a node: tell YARN, drop idle slots."""
        if node_id in self.blacklisted:
            return
        self.blacklisted.add(node_id)
        self.ctx.update_blacklist(additions=[node_id])
        for slot in list(self.slots.values()):
            if slot.container.node_id == node_id and slot.current is None:
                self.release_slot(slot)

    def clear_blacklist(self) -> None:
        """Failsafe path: forget every blacklisted node."""
        if self.blacklisted:
            self.ctx.update_blacklist(removals=sorted(self.blacklisted))
        self.blacklisted.clear()

    def shutdown(self) -> None:
        self._stopped = True
        for slot in list(self.slots.values()):
            self.release_slot(slot)

    def held_containers(self) -> int:
        return len(self.slots)

    def prewarm(self, count: int, capability: Resource,
                priority: int = 1) -> None:
        """Ask YARN for containers and warm them up before any DAG
        arrives (paper 4.2, session pre-warming)."""
        self.ctx.request_containers(
            Priority(priority), capability, count=count
        )

    # --------------------------------------------------------- YARN plumbing
    def _ask_yarn(self, request: TaskRequest) -> None:
        request.asked_yarn = True
        self.ctx.request_containers(
            request.yarn_priority,
            request.capability,
            nodes=list(request.nodes),
            racks=list(request.racks),
        )

    def _cancel_ask(self, request: TaskRequest) -> None:
        self.ctx.cancel_request(
            request.yarn_priority,
            nodes=list(request.nodes),
            racks=list(request.racks),
        )
        request.asked_yarn = False

    def _allocation_pump(self) -> Generator:
        while not self._stopped:
            container = yield self.ctx.allocated.get()
            self._on_new_container(container)

    def _completion_pump(self) -> Generator:
        while not self._stopped:
            status = yield self.ctx.completed.get()
            slot = self.slots.pop(status.container_id, None)
            if slot is None:
                continue
            slot.mailbox.abandon()      # as in release_slot
            self._unmark_idle(slot)
            attempt = slot.current
            if (
                attempt is not None
                and self._slot_by_attempt.get(attempt) is slot
            ):
                del self._slot_by_attempt[attempt]
            if attempt is not None and not getattr(attempt, "killing", False):
                externally_ended = (
                    AttemptEndReason.PREEMPTED
                    if status.exit_status == ContainerExitStatus.PREEMPTED
                    else AttemptEndReason.CONTAINER_LOST
                )
                attempt.end_reason = attempt.end_reason or externally_ended
                self._on_attempt_exit(
                    attempt,
                    RuntimeError(
                        f"container lost: {status.diagnostics or 'stopped'}"
                    ),
                )

    def _on_new_container(self, container: Container) -> None:
        if self._stopped:
            self.ctx.release_container(container.container_id)
            return
        if (
            container.state == ContainerState.COMPLETE
            or not container.node.alive
        ):
            # Died in the allocation-delivery window (node crashed
            # between the RM grant and the AM heartbeat receiving it).
            self.ctx.release_container(container.container_id)
            return
        mailbox = Store(self.env)
        slot = _Slot(container, mailbox, seq=next(self._slot_seq))
        self.slots[container.container_id] = slot
        self._mark_idle(slot)
        request = self._match_pending(container)
        if request is not None:
            self._dequeue(request)
            if request.asked_yarn:
                request.asked_yarn = False  # consumed by this allocation
            self._assign(slot, request)
        else:
            # Pre-warm or surplus container: warm it and hold it idle.
            slot.idle_since = self.env.now
            self._ensure_launched(slot)
            slot.mailbox.put(_WARMUP)

    # ------------------------------------------------------------- matching
    def _mark_idle(self, slot: _Slot) -> None:
        """Enter ``slot`` into the idle indexes.

        Invariant: indexed iff the slot is in ``self.slots`` with no
        current attempt and not releasing.
        """
        if slot.releasing or slot.current is not None:
            return
        if self.slots.get(slot.container.container_id) is not slot:
            return
        self._idle_slots[slot.seq] = slot
        self._idle_by_node.setdefault(
            slot.container.node_id, {}
        )[slot.seq] = slot
        self._idle_by_rack.setdefault(
            slot.container.node.rack, {}
        )[slot.seq] = slot

    def _unmark_idle(self, slot: _Slot) -> None:
        if self._idle_slots.pop(slot.seq, None) is None:
            return
        bucket = self._idle_by_node.get(slot.container.node_id)
        if bucket is not None:
            bucket.pop(slot.seq, None)
            if not bucket:
                del self._idle_by_node[slot.container.node_id]
        bucket = self._idle_by_rack.get(slot.container.node.rack)
        if bucket is not None:
            bucket.pop(slot.seq, None)
            if not bucket:
                del self._idle_by_rack[slot.container.node.rack]

    def _find_reusable_slot(self, request: TaskRequest) -> Optional[_Slot]:
        """Reuse matching over the idle indexes: node match first, then
        rack, then any — each level picking the lowest-seq
        (earliest-created) usable idle slot."""
        if not self.config.container_reuse:
            return None

        def usable(slot: _Slot) -> bool:
            return (
                slot.current is None and not slot.releasing
                and slot.container.node.alive
                and slot.container.node_id not in self.blacklisted
                and request.capability.fits_in(slot.container.resource)
            )

        def best_in(buckets: list[dict[int, _Slot]]) -> Optional[_Slot]:
            found: Optional[_Slot] = None
            for bucket in buckets:
                for seq, slot in bucket.items():
                    if (found is None or seq < found.seq) and usable(slot):
                        found = slot
            return found

        if request.nodes:
            slot = best_in([
                b for n in request.nodes
                if (b := self._idle_by_node.get(n)) is not None
            ])
            if slot is not None:
                return slot
        racks = request.rack_set
        if racks:
            slot = best_in([
                b for r in racks
                if (b := self._idle_by_rack.get(r)) is not None
            ])
            if slot is not None:
                return slot
        return best_in([self._idle_slots])

    def _enqueue(self, request: TaskRequest) -> None:
        """Enter ``request`` into the queue and its locality buckets.

        Queue order is (priority, queued_at, arrival): FIFO within a
        priority. Every bucket keeps it, so the first fitting entry of
        a bucket is the one a scan of the whole queue would reach first.
        """
        request.order = (request.priority, request.queued_at,
                         next(self._request_seq))
        for bucket in self._buckets_of(request):
            insort(bucket, request, key=_ORDER)
        self._pending_by_attempt[request.attempt] = request

    def _dequeue(self, request: TaskRequest) -> None:
        for bucket in self._buckets_of(request):
            del bucket[bisect_left(bucket, request.order, key=_ORDER)]
        del self._pending_by_attempt[request.attempt]

    def _buckets_of(self, request: TaskRequest) -> list[list[TaskRequest]]:
        """The queue itself plus every bucket ``request`` belongs in.
        Emptied buckets are kept: there is at most one per node and
        rack ever named."""
        if not request.nodes and not request.racks:
            return [self.pending, self._pending_anywhere]
        return [
            self.pending,
            *(self._pending_by_node.setdefault(n, [])
              for n in dict.fromkeys(request.nodes)),
            *(self._pending_by_rack.setdefault(r, [])
              for r in request.rack_set),
        ]

    @staticmethod
    def _first_fit(container: Container, levels) -> Optional[TaskRequest]:
        """The one lookup behind both matchers. ``levels`` is a
        sequence of bucket groups, best locality first; the answer is
        the earliest request in queue order that fits ``container``
        within the first group that has one."""
        resource = container.resource
        for buckets in levels:
            best = None
            for bucket in buckets:
                for request in bucket:
                    if request.capability.fits_in(resource):
                        if best is None or request.order < best.order:
                            best = request
                        break
            if best is not None:
                return best
        return None

    def _match_pending(self, container: Container) -> Optional[TaskRequest]:
        """Best queued request for a newly allocated container."""
        return self._first_fit(container, (
            (self._pending_by_node.get(container.node_id, ()),),
            (self._pending_by_rack.get(container.node.rack, ()),),
            (self.pending,),
        ))

    def _match_slot_to_pending(self, slot: _Slot) -> None:
        """A slot went idle: try to hand it a queued request."""
        if self._stopped or slot.releasing or slot.current is not None:
            # The slot may have been re-assigned from inside the
            # completion callback (attempt exit can schedule new work);
            # queueing more tasks behind it invites priority-inversion
            # deadlocks.
            return
        if (
            not slot.container.node.alive
            or slot.container.node_id in self.blacklisted
        ):
            self.release_slot(slot)
            return
        request = None
        if self.config.container_reuse:
            container = slot.container
            # A request without preferences competes from the rack
            # level down, in queue order with the rack's own.
            request = self._first_fit(container, (
                (self._pending_by_node.get(container.node_id, ()),),
                (self._pending_by_rack.get(container.node.rack, ()),
                 self._pending_anywhere),
                (self.pending,),
            ))
        if request is not None:
            self._dequeue(request)
            if request.asked_yarn:
                self._cancel_ask(request)
            self._c_reuse.inc()
            self._assign(slot, request, reuse=True)
        else:
            slot.idle_since = self.env.now

    # ------------------------------------------------------------ execution
    def _assign(self, slot: _Slot, request: TaskRequest,
                reuse: bool = False) -> None:
        slot.current = request.attempt
        slot.idle_since = None
        self._unmark_idle(slot)
        self._slot_by_attempt[request.attempt] = slot
        self._c_placed.inc()
        request.attempt.container = slot.container
        request.attempt.node_id = slot.container.node_id
        queue_wait = self.env.now - (request.queued_at or self.env.now)
        self._h_queue_wait.observe(queue_wait)
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            attempt = request.attempt
            node = slot.container.node_id
            locality = "any"
            if request.nodes and node in request.nodes:
                locality = "node"
            elif request.nodes or request.racks:
                if slot.container.node.rack in request.rack_set:
                    locality = "rack"
                else:
                    locality = "off"
            telemetry.event(
                "scheduler.task_placed",
                attempt=attempt.attempt_id,
                dag=attempt.task.vertex.dag_id,
                vertex=attempt.task.vertex.name,
                node=node,
                container=str(slot.container.container_id),
                locality=locality,
                reuse=reuse,
                queue_wait=queue_wait,
            )
        self._ensure_launched(slot)
        slot.mailbox.put(request.attempt)

    def _ensure_launched(self, slot: _Slot) -> None:
        if slot.launched:
            return
        slot.launched = True
        self._c_launched.inc()
        self.ctx.launch_container(
            slot.container, lambda c, s=slot: self._runner(s)
        )

    def _runner(self, slot: _Slot) -> Generator:
        """The long-lived in-container loop (the 'TezChild')."""
        while True:
            item = yield slot.mailbox.get()
            if item is _STOP:
                return
            if item is _WARMUP:
                # Burn the JIT warm-up so future tasks run hot.
                warm = self.spec.jit_warmup_work
                yield self.env.timeout(slot.container.compute_delay(warm))
                continue
            attempt: TaskAttempt = item
            task_started = self.env.now
            child = self.env.process(
                self._run_attempt(attempt, slot.container),
                name=f"attempt:{attempt.attempt_id}",
            )
            attempt.process = child
            error: Optional[BaseException] = None
            try:
                yield child
            except Interrupt as intr:
                if getattr(attempt, "killing", False):
                    error = intr  # the attempt itself was killed
                else:
                    # The container is being stopped: take the task down.
                    if child.is_alive:
                        setattr(attempt, "killing", True)
                        child.interrupt("container stopped")
                    raise
            except GeneratorExit:
                raise
            except BaseException as exc:
                error = exc
            slot.container.tasks_run += 1
            slot.current = None
            self._slot_by_attempt.pop(attempt, None)
            entry = TaskTraceEntry(
                container_id=str(slot.container.container_id),
                attempt_id=attempt.attempt_id,
                vertex=attempt.task.vertex.name,
                start=task_started,
                end=self.env.now,
                node_id=slot.container.node_id,
                dag_id=attempt.task.vertex.dag_id,
            )
            self.task_trace.append(entry)
            telemetry = get_telemetry(self.env)
            if telemetry is not None:
                telemetry.event(
                    "task.run",
                    attempt=attempt.attempt_id,
                    dag=entry.dag_id,
                    vertex=entry.vertex,
                    index=attempt.task.index,
                    node=entry.node_id,
                    container=entry.container_id,
                    start=entry.start,
                    ok=error is None,
                )
                telemetry.metrics.histogram(
                    "scheduler.task_run_seconds").observe(entry.duration)
            self.defer_exits(
                attempt, error,
                lambda process, s=slot: self._attempt_exit_unit(s, process),
            )

    def _attempt_exit_unit(self, slot: _Slot,
                           process: Callable[[], None]) -> None:
        """The tail of an attempt's life: make its slot reusable,
        ``process`` the exit, then offer the slot to the pending queue.

        Kept as one function so ``defer_exits`` can replay the units in
        arrival order at the tail of the tick: an exit's consumers may
        reuse its own slot and slots of earlier-processed exits, never
        a slot whose exit is still queued."""
        # Reusable from this instant: the exit processing below may
        # schedule() consumer tasks synchronously.
        self._mark_idle(slot)
        process()
        self._match_slot_to_pending(slot)

    # ------------------------------------------------------------ idle reaper
    def _idle_reaper(self) -> Generator:
        while not self._stopped:
            yield self.env.timeout(1.0)
            timeout = (
                self.config.session_idle_timeout
                if self.session_waiting
                else self.config.container_idle_timeout
            )
            now = self.env.now
            for slot in list(self.slots.values()):
                if (
                    slot.current is None
                    and slot.idle_since is not None
                    and now - slot.idle_since >= timeout
                ):
                    self.release_slot(slot)
