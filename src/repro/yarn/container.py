"""Containers: the unit of resource allocation and task execution.

A container is a process slot on a node. It carries the JVM warm-up
state used by the cost model: freshly launched containers execute
application compute slower (JIT interpretation) until a configurable
amount of work has been burned; reused or pre-warmed containers run at
full speed. This is the effect Tez's container reuse, sessions and
pre-warming exploit (paper section 4.2).
"""

from __future__ import annotations

from typing import Optional

from ..cluster import ClusterSpec, Node
from .records import ContainerId, ContainerState, Resource

__all__ = ["Container"]


class Container:
    def __init__(
        self,
        container_id: ContainerId,
        node: Node,
        resource: Resource,
        spec: ClusterSpec,
        queue: str = "default",
    ):
        self.container_id = container_id
        self.node = node
        self.node_id = node.node_id     # a container never changes node
        self.resource = resource
        self.spec = spec
        self.queue = queue
        self.state = ContainerState.NEW
        self.exit_status: Optional[int] = None
        self.diagnostics = ""
        self._warmup_remaining = spec.jit_warmup_work
        self.tasks_run = 0          # how many tasks reused this container
        self.allocated_at: float = 0.0
        self.process = None         # sim Process once launched

    def prewarm(self) -> None:
        """Mark the JVM as fully warmed (session pre-warm containers)."""
        self._warmup_remaining = 0.0

    def compute_delay(self, cpu_seconds: float) -> float:
        """Wall-clock seconds to perform ``cpu_seconds`` of compute.

        Applies the JIT warm-up penalty to the cold prefix and the
        node's speed factor (straggler model) to everything.
        """
        if cpu_seconds <= 0:
            return 0.0
        cold = min(cpu_seconds, self._warmup_remaining)
        hot = cpu_seconds - cold
        self._warmup_remaining -= cold
        wall = cold * self.spec.jit_slowdown + hot
        speed = self.node.speed if self.node.speed > 0 else 1e-9
        return wall / speed

    def io_delay(self, seconds: float) -> float:
        """Wall-clock seconds for IO work (affected by node speed only)."""
        speed = self.node.speed if self.node.speed > 0 else 1e-9
        return seconds / speed

    def __repr__(self) -> str:
        return (
            f"<Container {self.container_id} on {self.node_id} "
            f"{self.state.value} tasks={self.tasks_run}>"
        )
