"""AM background monitors: speculation and deadlock preemption.

Both run as periodic simulation processes for the lifetime of one DAG
(spawned/interrupted by ``execute_dag``): the speculation monitor
clones straggling attempts (paper 4.2), the deadlock monitor detects
starved upstream requests on a full cluster and preempts out-of-order
downstream work (paper 3.4).
"""

from __future__ import annotations

from typing import Generator, Optional

from ...sim import Interrupt
from ...telemetry import get_telemetry
from .structures import (
    AttemptEndReason,
    AttemptState,
    DAGState,
    TaskAttempt,
    TaskState,
    VertexRuntime,
)

__all__ = ["SpeculationMonitor", "DeadlockMonitor"]


class SpeculationMonitor:
    """Launch clones of straggling attempts (paper 4.2)."""

    def __init__(self, am):
        self.am = am

    def run(self) -> Generator:
        am = self.am
        try:
            while True:
                yield am.env.timeout(
                    am.config.speculation_check_interval
                )
                if am._dag_state != DAGState.RUNNING:
                    continue
                for vr in am._vertices.values():
                    self.speculate_vertex(vr)
        except Interrupt:
            return

    def speculate_vertex(self, vr: VertexRuntime) -> None:
        am = self.am
        durations = [
            t.succeeded_attempt.duration
            for t in vr.tasks
            if t.succeeded_attempt is not None
            and t.succeeded_attempt.duration is not None
        ]
        if len(durations) < am.config.speculation_min_completed:
            return
        mean = sum(durations) / len(durations)
        threshold = mean * am.config.speculation_slowdown_factor
        for task in vr.tasks:
            if task.state != TaskState.RUNNING:
                continue
            running = [
                a for a in task.attempts
                if a.state == AttemptState.RUNNING
                and a.launch_time is not None
            ]
            if len(running) != 1:
                continue  # already speculating (or nothing running)
            attempt = running[0]
            if am.env.now - attempt.launch_time > threshold:
                telemetry = get_telemetry(am.env)
                if telemetry is not None:
                    telemetry.event(
                        "am.speculation", dag=vr.dag_id, vertex=vr.name,
                        index=task.index,
                        running_for=am.env.now - attempt.launch_time,
                        threshold=threshold,
                    )
                am.runner.launch_attempt(task, speculative=True)


class DeadlockMonitor:
    """Out-of-order scheduling can deadlock a full cluster; detect
    starved upstream requests and preempt downstream tasks (3.4)."""

    def __init__(self, am):
        self.am = am
        self._preemptions = am.registry.counter("preemptions")

    def run(self) -> Generator:
        am = self.am
        try:
            while True:
                yield am.env.timeout(am.config.deadlock_check_interval)
                if am._dag_state != DAGState.RUNNING:
                    continue
                pending = am.scheduler.pending
                if not pending:
                    continue
                now = am.env.now
                starved = [
                    r for r in pending
                    if now - (r.queued_at or now)
                    >= am.config.deadlock_pending_timeout
                ]
                if not starved:
                    continue
                headroom = am.ctx.headroom()
                oldest = min(starved, key=lambda r: r.queued_at or 0)
                if oldest.capability.fits_in(headroom):
                    continue  # cluster has room; just busy, not deadlock
                # Preempt enough out-of-order downstream work to unblock
                # every starved upstream request, not one per cycle.
                highest = min(r.priority for r in starved)
                for _ in range(len(starved)):
                    victim = self.pick_preemption_victim(highest)
                    if victim is None:
                        break
                    self._preemptions.inc()
                    am.scheduler.kill_attempt(
                        victim, AttemptEndReason.PREEMPTED
                    )
        except Interrupt:
            return

    def pick_preemption_victim(
        self, starved_priority: int
    ) -> Optional[TaskAttempt]:
        am = self.am
        candidates: list[TaskAttempt] = []
        for vr in am._vertices.values():
            for task in vr.tasks:
                for attempt in task.attempts:
                    if (
                        attempt.state == AttemptState.RUNNING
                        and not getattr(attempt, "killing", False)
                        and am.runner.task_priority(task) > starved_priority
                    ):
                        candidates.append(attempt)
        if not candidates:
            return None
        # Youngest, lowest-priority attempt loses least work.
        return max(
            candidates,
            key=lambda a: (
                am.runner.task_priority(a.task), a.launch_time or 0
            ),
        )
