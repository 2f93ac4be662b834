"""NodeManager: launches and supervises containers on one node."""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..cluster import Node
from ..sim import Environment, Interrupt
from ..telemetry import get_telemetry
from .container import Container
from .records import (
    ContainerExitStatus,
    ContainerId,
    ContainerState,
    ContainerStatus,
    Resource,
)
from .security import SecurityManager, Token

__all__ = ["NodeManager"]

# A container runner is a generator taking the container; it is executed
# as a simulation process inside the container.
ContainerRunner = Callable[[Container], Generator]


class NodeManager:
    """Per-node agent: capacity accounting + container supervision."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        security: SecurityManager,
        on_complete: Callable[[ContainerStatus, Container], None],
        on_heartbeat: Optional[Callable[[str], None]] = None,
        heartbeat_interval: float = 0.5,
    ):
        self.env = env
        self.node = node
        self.security = security
        self._on_complete = on_complete
        self._on_heartbeat = on_heartbeat
        self._heartbeat_interval = heartbeat_interval
        self.total = Resource(node.memory_mb, node.cores)
        self.used = Resource(0, 0)
        self.containers: dict[ContainerId, Container] = {}
        node.on_crash(self._handle_node_crash)
        if on_heartbeat is not None:
            env.process(self._heartbeat_loop(),
                        name=f"nm-heartbeat:{node.node_id}")

    def _heartbeat_loop(self) -> Generator:
        """Report liveness to the RM while the node is up and reachable.

        A dead node sends nothing (the process literally died with the
        machine); an isolated node sends nothing because the network
        path to the RM is gone. Heartbeats resume automatically on
        restart / partition heal, which un-LOSTs the node at the RM.
        """
        while True:
            if self.node.alive and not self.node.isolated:
                self._on_heartbeat(self.node.node_id)
            yield self.env.timeout(self._heartbeat_interval)

    @property
    def available(self) -> Resource:
        return self.total - self.used

    def can_fit(self, resource: Resource) -> bool:
        return self.node.alive and resource.fits_in(self.available)

    # -- allocation-side accounting (called by the scheduler) ------------
    def reserve(self, container: Container) -> None:
        if not self.can_fit(container.resource):
            raise RuntimeError(
                f"{self.node.node_id} cannot fit {container.resource}"
            )
        self.used = self.used + container.resource
        self.containers[container.container_id] = container

    def unreserve(self, container: Container) -> None:
        if container.container_id in self.containers:
            del self.containers[container.container_id]
            self.used = self.used - container.resource

    # -- launch / stop ----------------------------------------------------
    def launch(
        self,
        container: Container,
        runner: ContainerRunner,
        nm_token: Optional[Token] = None,
        launch_overhead: Optional[float] = None,
    ) -> None:
        """Start the container process (localization + JVM start first)."""
        container_id = container.container_id
        name, app = str(container_id), str(container_id.app_id)
        self.security.verify(nm_token, "NM", app)
        if container_id not in self.containers:
            raise RuntimeError(f"{name} not allocated here")
        if container.state != ContainerState.NEW:
            raise RuntimeError(f"{name} already launched")
        overhead = (
            container.spec.container_launch_overhead
            if launch_overhead is None
            else launch_overhead
        )
        container.state = ContainerState.RUNNING
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            container.telemetry_span = telemetry.span(
                "container", name, node=self.node.node_id, app=app,
            )
            telemetry.event(
                "yarn.container_launched",
                container=name, node=self.node.node_id, app=app,
            )
        container.process = self.env.process(
            self._supervise(container, runner, overhead),
            name=f"container:{name}",
        )

    def _supervise(self, container: Container, runner: ContainerRunner,
                   overhead: float) -> Generator:
        exit_status = ContainerExitStatus.SUCCESS
        diagnostics = ""
        try:
            if overhead > 0:
                yield self.env.timeout(container.io_delay(overhead))
            yield self.env.process(
                runner(container), name=f"runner:{container.container_id}"
            )
        except Interrupt as intr:
            exit_status = (
                intr.cause
                if isinstance(intr.cause, int)
                else ContainerExitStatus.ABORTED
            )
            diagnostics = f"interrupted: {intr.cause}"
        except Exception as exc:  # container crash
            exit_status = 1
            diagnostics = f"{type(exc).__name__}: {exc}"
        finally:
            self._finish(container, exit_status, diagnostics)

    def _finish(self, container: Container, exit_status: int,
                diagnostics: str) -> None:
        if container.state == ContainerState.COMPLETE:
            return
        container.state = ContainerState.COMPLETE
        container.exit_status = exit_status
        container.diagnostics = diagnostics
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            span = getattr(container, "telemetry_span", None)
            if span is not None:
                telemetry.finish(span, exit_status=exit_status)
            telemetry.event(
                "yarn.container_stopped",
                container=str(container.container_id),
                node=self.node.node_id,
                exit_status=exit_status,
            )
        self.unreserve(container)
        status = ContainerStatus(
            container.container_id,
            ContainerState.COMPLETE,
            exit_status,
            diagnostics,
        )
        self._on_complete(status, container)

    def stop_container(
        self, container_id: ContainerId,
        exit_status: int = ContainerExitStatus.ABORTED,
    ) -> None:
        container = self.containers.get(container_id)
        if container is None:
            return
        if container.process is not None and container.process.is_alive:
            container.process.interrupt(exit_status)
        else:
            # Never launched: just release the reservation.
            self._finish(container, exit_status, "stopped before launch")

    def _handle_node_crash(self, node: Node) -> None:
        for cid in list(self.containers):
            self.stop_container(cid, ContainerExitStatus.NODE_LOST)
