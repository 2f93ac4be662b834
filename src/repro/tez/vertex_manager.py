"""VertexManager: runtime re-configuration of the DAG (paper 3.4).

Each vertex is controlled by a VertexManagerPlugin that observes state
transitions (vertex start, source task completions, application events)
through a context object and can, in response, change the vertex's
parallelism, its task placement, and when its tasks are scheduled.

Built-ins (as in Tez):

* :class:`ImmediateStartVertexManager` — schedule everything as soon as
  the vertex starts (root vertices, concurrent edges).
* :class:`InputReadyVertexManager` — schedule tasks when their inputs
  are complete (broadcast/one-to-one edges).
* :class:`RootInputVertexManager` — schedule after the root-input
  initializer fixed the splits.
* :class:`ShuffleVertexManager` — the scatter-gather controller:
  slow-start scheduling overlapped with producer completion, and
  automatic partition-cardinality estimation from producer-reported
  output statistics (paper Figure 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from .events import VertexManagerEvent

__all__ = [
    "VertexManagerPlugin",
    "VertexManagerContext",
    "ImmediateStartVertexManager",
    "InputReadyVertexManager",
    "RootInputVertexManager",
    "ShuffleVertexManagerConfig",
    "ShuffleVertexManager",
]


class VertexManagerContext:
    """What a vertex manager may observe and actuate.

    Implemented by the AM; this class documents the interface (and is
    subclassed there).
    """

    @property
    def vertex_name(self) -> str:
        raise NotImplementedError

    @property
    def vertex_parallelism(self) -> int:
        raise NotImplementedError

    def source_vertices(self) -> list[str]:
        raise NotImplementedError

    def source_parallelism(self, vertex_name: str) -> int:
        raise NotImplementedError

    def completed_source_tasks(self, vertex_name: str) -> int:
        raise NotImplementedError

    def set_parallelism(self, parallelism: int) -> None:
        """Re-configure this vertex's task count (before scheduling)."""
        raise NotImplementedError

    def schedule_tasks(self, task_indices: list[int]) -> None:
        raise NotImplementedError

    def scheduled_tasks(self) -> set[int]:
        raise NotImplementedError

    def is_scheduled(self, task_index: int) -> bool:
        """O(1) membership probe (default: via the copied set)."""
        return task_index in self.scheduled_tasks()

    def scheduled_count(self) -> int:
        return len(self.scheduled_tasks())

    def user_payload(self) -> Any:
        raise NotImplementedError

    def source_locked(self, vertex_name: str) -> bool:
        """True when a source's parallelism is final (configured)."""
        return True


class VertexManagerPlugin:
    """Application hook controlling one vertex's runtime behaviour.

    Subclass and override the ``on_*`` callbacks; actuate through
    ``self.ctx`` (set parallelism, schedule tasks). The framework
    guarantees callbacks are serialized per vertex.
    """

    def __init__(self, ctx: VertexManagerContext, payload: Any = None):
        self.ctx = ctx
        self.payload = payload

    def initialize(self) -> None:
        pass

    def on_vertex_started(self) -> None:
        pass

    def on_root_input_initialized(self, input_name: str,
                                  num_splits: int) -> None:
        pass

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        pass

    def on_vertex_manager_event(self, event: VertexManagerEvent) -> None:
        pass

    # -- helpers -----------------------------------------------------------
    def _schedule_all(self) -> None:
        pending = [
            i for i in range(self.ctx.vertex_parallelism)
            if i not in self.ctx.scheduled_tasks()
        ]
        if pending:
            self.ctx.schedule_tasks(pending)


class ImmediateStartVertexManager(VertexManagerPlugin):
    """Schedule every task as soon as the vertex starts."""

    def on_vertex_started(self) -> None:
        self._schedule_all()


class RootInputVertexManager(VertexManagerPlugin):
    """Root vertices with initializers: schedule once splits are known."""

    def __init__(self, ctx, payload: Any = None):
        super().__init__(ctx, payload)
        self._initialized = False
        self._started = False

    def on_vertex_started(self) -> None:
        self._started = True
        if self._initialized:
            self._schedule_all()

    def on_root_input_initialized(self, input_name: str,
                                  num_splits: int) -> None:
        self._initialized = True
        if self._started:
            self._schedule_all()


class InputReadyVertexManager(VertexManagerPlugin):
    """Schedule tasks when all their source tasks have completed.

    For one-to-one edges task i waits only for source task i; for
    broadcast (or any other) edges every task waits for all sources.
    """

    def __init__(self, ctx, payload: Any = None):
        super().__init__(ctx, payload)
        self._one_to_one_sources: list[str] = []
        self._oo_source_set: frozenset = frozenset()
        self._all_sources: list[str] = []
        self._completed: dict[str, set[int]] = {}
        # True once the broadcast gate passed and the one-time catch-up
        # scan ran. From then on each one-to-one completion is checked
        # in O(#sources) instead of rescanning every task index.
        self._gate_open = False

    def initialize(self) -> None:
        info = getattr(self.ctx, "edge_types", None)
        # edge_types: {source_vertex: DataMovementType-name}
        self._one_to_one_sources = []
        self._all_sources = []
        if callable(info):
            for src, movement in info().items():
                if movement == "ONE_TO_ONE":
                    self._one_to_one_sources.append(src)
                else:
                    self._all_sources.append(src)
        else:
            self._all_sources = list(self.ctx.source_vertices())
        self._oo_source_set = frozenset(self._one_to_one_sources)
        self._completed = {
            s: set()
            for s in self._one_to_one_sources + self._all_sources
        }

    def on_vertex_started(self) -> None:
        self._maybe_schedule()

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        if vertex_name in self._completed:
            self._completed[vertex_name].add(task_index)
        if self._gate_open:
            self._incremental_step(vertex_name, task_index)
        else:
            self._maybe_schedule()

    def _incremental_step(self, vertex_name: str,
                          task_index: int) -> None:
        """O(#sources) readiness check for one newly-completed source
        task (an extra completion of a broadcast source can never make
        a new task ready once the gate is open)."""
        if vertex_name not in self._oo_source_set:
            return
        if task_index >= self.ctx.vertex_parallelism:
            return
        if self.ctx.is_scheduled(task_index):
            return
        for s in self._one_to_one_sources:
            if task_index not in self._completed[s]:
                return
        self.ctx.schedule_tasks([task_index])

    def _maybe_schedule(self) -> None:
        if any(
            self.ctx.source_parallelism(s) < 1
            for s in self._one_to_one_sources + self._all_sources
        ):
            return  # a source's parallelism is not yet resolved
        broadcast_ready = all(
            len(self._completed[s]) >= self.ctx.source_parallelism(s)
            for s in self._all_sources
        )
        if not broadcast_ready:
            return
        # One-time catch-up in ascending order; subsequent completions
        # go through _incremental_step.
        ready = [
            i for i in range(self.ctx.vertex_parallelism)
            if not self.ctx.is_scheduled(i)
            and all(i in self._completed[s]
                    for s in self._one_to_one_sources)
        ]
        self._gate_open = True
        if ready:
            self.ctx.schedule_tasks(ready)


@dataclass
class ShuffleVertexManagerConfig:
    """Tuning for the shuffle controller (Tez's well-known knobs)."""

    slowstart_min_fraction: float = 0.25
    slowstart_max_fraction: float = 0.75
    auto_parallelism: bool = False
    desired_task_input_bytes: int = 256 * 1024 * 1024
    min_task_parallelism: int = 1

    def __post_init__(self):
        if not 0 <= self.slowstart_min_fraction <= 1:
            raise ValueError("slowstart_min_fraction must be in [0,1]")
        if not self.slowstart_min_fraction <= self.slowstart_max_fraction <= 1:
            raise ValueError(
                "slowstart_max_fraction must be in [min_fraction, 1]"
            )
        if self.min_task_parallelism < 1:
            raise ValueError("min_task_parallelism must be >= 1")


class ShuffleVertexManager(VertexManagerPlugin):
    """Controls vertices reading shuffled (scatter-gather) data.

    * **Auto partition cardinality** (paper Figure 6): producer tasks
      report their output size in VertexManagerEvents; once enough
      producers finished, the manager extrapolates the total shuffle
      size and shrinks the vertex's parallelism so each task reads
      roughly ``desired_task_input_bytes`` — before any task runs.
    * **Slow-start**: consumer tasks are scheduled gradually as the
      fraction of completed producers moves between the min and max
      thresholds, overlapping fetch with producer execution.
    """

    def __init__(self, ctx, payload: Any = None):
        super().__init__(ctx, payload)
        self.config = payload if isinstance(payload, ShuffleVertexManagerConfig) \
            else ShuffleVertexManagerConfig()
        self._started = False
        self._completed: dict[str, set[int]] = {}
        self._reported_bytes: dict[tuple[str, int], int] = {}
        self._parallelism_decided = False
        # Ascending scan frontier — every index below it is known
        # scheduled, so repeated slow-start rounds cost O(newly
        # scheduled) instead of O(parallelism).
        self._next_unscheduled = 0

    def initialize(self) -> None:
        self._completed = {s: set() for s in self.ctx.source_vertices()}

    # -- observation --------------------------------------------------------
    def on_vertex_started(self) -> None:
        self._started = True
        if not self.ctx.source_vertices():
            self._parallelism_decided = True
            self._schedule_all()
            return
        self._react()

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        self._completed.setdefault(vertex_name, set()).add(task_index)
        self._react()

    def on_vertex_manager_event(self, event: VertexManagerEvent) -> None:
        payload = event.payload or {}
        nbytes = payload.get("output_bytes")
        producer = payload.get("producer_vertex")
        task = event.producer_task_index
        if nbytes is not None and producer is not None and task is not None:
            self._reported_bytes[(producer, task)] = nbytes
        self._react()

    # -- decision making ---------------------------------------------------------
    def _totals(self) -> tuple[int, int]:
        total = sum(
            self.ctx.source_parallelism(s) for s in self._completed
        )
        done = sum(len(c) for c in self._completed.values())
        return done, total

    def _react(self) -> None:
        if not self._started:
            return
        if any(
            self.ctx.source_parallelism(s) < 1 for s in self._completed
        ):
            return  # a source's parallelism is not yet resolved
        done, total = self._totals()
        if total == 0:
            return
        fraction = done / total
        if not self._parallelism_decided:
            if self.config.auto_parallelism:
                if fraction >= self.config.slowstart_min_fraction \
                        and self._reported_bytes:
                    self._decide_parallelism()
                elif fraction >= 1.0:
                    self._parallelism_decided = True
            else:
                self._parallelism_decided = True
        if self._parallelism_decided:
            # Consumers must not start until every source vertex's
            # parallelism is final: the tasks' physical input counts
            # depend on it (Tez waits for sources to be CONFIGURED).
            if not all(
                self.ctx.source_locked(s) for s in self._completed
            ):
                return
            self._slow_start_schedule(fraction)

    def _decide_parallelism(self) -> None:
        reported = list(self._reported_bytes.values())
        mean = sum(reported) / len(reported)
        _done, total = self._totals()
        estimated_total = mean * total
        desired = max(
            self.config.min_task_parallelism,
            math.ceil(estimated_total / self.config.desired_task_input_bytes),
        )
        current = self.ctx.vertex_parallelism
        if desired < current:
            self.ctx.set_parallelism(desired)
        self._parallelism_decided = True

    def _slow_start_schedule(self, fraction: float) -> None:
        parallelism = self.ctx.vertex_parallelism
        lo = self.config.slowstart_min_fraction
        hi = self.config.slowstart_max_fraction
        if fraction < lo:
            return
        if fraction >= hi:
            target = parallelism
        else:
            target = max(1, math.ceil(
                parallelism * (fraction - lo) / max(hi - lo, 1e-9)
            ))
        # Ascending pick: tasks are only ever scheduled by this
        # manager, so indices below the frontier stay scheduled and the
        # frontier only advances.
        need = target - self.ctx.scheduled_count()
        to_schedule = []
        i = self._next_unscheduled
        while need > 0 and i < parallelism:
            if not self.ctx.is_scheduled(i):
                to_schedule.append(i)
                need -= 1
            i += 1
        self._next_unscheduled = i
        if to_schedule:
            self.ctx.schedule_tasks(to_schedule)
