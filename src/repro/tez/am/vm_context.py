"""The VertexManagerContext the AM hands to vertex-manager plugins."""

from __future__ import annotations

from typing import Any

from ..dag import SchedulingType
from ..vertex_manager import VertexManagerContext
from .structures import TaskState, VertexRuntime

__all__ = ["_VMContext"]


class _VMContext(VertexManagerContext):
    """Bridges a VertexManagerPlugin to the AM internals."""

    def __init__(self, am, vr: VertexRuntime):
        self._am = am
        self._vr = vr

    @property
    def vertex_name(self) -> str:
        return self._vr.name

    @property
    def vertex_parallelism(self) -> int:
        return self._vr.parallelism

    def source_vertices(self) -> list[str]:
        return [e.source.name for e in self._vr.in_edges
                if e.prop.scheduling == SchedulingType.SEQUENTIAL]

    def edge_types(self) -> dict[str, str]:
        return {
            e.source.name: e.prop.data_movement.value
            for e in self._vr.in_edges
        }

    def source_parallelism(self, vertex_name: str) -> int:
        return self._am._vertices[vertex_name].parallelism

    def completed_source_tasks(self, vertex_name: str) -> int:
        src = self._am._vertices[vertex_name]
        return sum(1 for t in src.tasks if t.state == TaskState.SUCCEEDED)

    def source_locked(self, vertex_name: str) -> bool:
        """True once the source's parallelism can no longer change
        (Tez's vertex-CONFIGURED notification)."""
        return self._am._vertices[vertex_name].parallelism_locked

    def set_parallelism(self, parallelism: int) -> None:
        self._am.lifecycle.reconfigure_parallelism(self._vr, parallelism)

    def schedule_tasks(self, task_indices: list[int]) -> None:
        self._am.lifecycle.schedule_tasks(self._vr, task_indices)

    def scheduled_tasks(self) -> set[int]:
        return set(self._vr.scheduled)

    def is_scheduled(self, task_index: int) -> bool:
        return task_index in self._vr.scheduled

    def scheduled_count(self) -> int:
        return len(self._vr.scheduled)

    def user_payload(self) -> Any:
        desc = self._vr.vertex.vertex_manager
        return desc.payload if desc else None
