"""The Tez DAG API (paper section 3.1).

Engines describe computation as a DAG of :class:`Vertex` (a logical
processing step, executed as parallel tasks) connected by :class:`Edge`
(logical connection pattern + physical transport, expressed as the
input/output classes placed on each end). Everything user-defined is
carried as a :class:`Descriptor`: a class plus an opaque payload, the
Tez idiom that keeps the framework agnostic of application code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

__all__ = [
    "DAG",
    "Vertex",
    "Edge",
    "EdgeProperty",
    "Descriptor",
    "DataMovementType",
    "DataSourceType",
    "SchedulingType",
    "DataSourceDescriptor",
    "DataSinkDescriptor",
    "TaskLocationHint",
    "DagValidationError",
]


class DagValidationError(ValueError):
    """The DAG structure is malformed."""


@dataclass(frozen=True)
class Descriptor:
    """A user entity: the class to instantiate + an opaque payload.

    The payload is opaque to Tez (paper: "an opaque binary payload ...
    interpreted by the sender and receiver"); here it is any Python
    object, handed to the entity at initialization.
    """

    cls: type
    payload: Any = None

    def create(self, *args, **kwargs):
        return self.cls(*args, **kwargs)

    def __repr__(self) -> str:
        return f"Descriptor({self.cls.__name__})"


class DataMovementType(Enum):
    """Logical connection patterns between producer and consumer tasks."""

    ONE_TO_ONE = "ONE_TO_ONE"
    BROADCAST = "BROADCAST"
    SCATTER_GATHER = "SCATTER_GATHER"
    CUSTOM = "CUSTOM"


class DataSourceType(Enum):
    """Resilience of edge data (drives fault-tolerance backtracking)."""

    PERSISTED = "PERSISTED"                    # producer-local disk
    PERSISTED_RELIABLE = "PERSISTED_RELIABLE"  # reliable store (barrier)
    EPHEMERAL = "EPHEMERAL"                    # streamed, lost on failure


class SchedulingType(Enum):
    SEQUENTIAL = "SEQUENTIAL"   # consumers scheduled after producers
    CONCURRENT = "CONCURRENT"   # consumers may run with producers


@dataclass(frozen=True)
class EdgeProperty:
    """Everything that defines an edge's semantics."""

    data_movement: DataMovementType
    output_descriptor: Descriptor
    input_descriptor: Descriptor
    data_source: DataSourceType = DataSourceType.PERSISTED
    scheduling: SchedulingType = SchedulingType.SEQUENTIAL
    edge_manager_descriptor: Optional[Descriptor] = None

    def __post_init__(self):
        if (
            self.data_movement == DataMovementType.CUSTOM
            and self.edge_manager_descriptor is None
        ):
            raise DagValidationError(
                "CUSTOM data movement requires an edge_manager_descriptor"
            )


@dataclass(frozen=True)
class DataSourceDescriptor:
    """A root input: its input class + optional runtime initializer."""

    input_descriptor: Descriptor
    initializer_descriptor: Optional[Descriptor] = None


@dataclass(frozen=True)
class DataSinkDescriptor:
    """A leaf output: its output class + optional commit handler."""

    output_descriptor: Descriptor
    committer_descriptor: Optional[Descriptor] = None


@dataclass(frozen=True)
class TaskLocationHint:
    """Preferred placement for one task."""

    nodes: tuple[str, ...] = ()
    racks: tuple[str, ...] = ()


class Vertex:
    """A logical step of processing, executed as parallel tasks."""

    def __init__(
        self,
        name: str,
        processor: Descriptor,
        parallelism: int = -1,
        vertex_manager: Optional[Descriptor] = None,
        resource_mb: int = 1024,
        resource_vcores: int = 1,
    ):
        if not name:
            raise DagValidationError("vertex name must be non-empty")
        if parallelism == 0 or parallelism < -1:
            raise DagValidationError(
                f"vertex {name}: parallelism must be positive or -1 "
                "(determined at runtime)"
            )
        self.name = name
        self.processor = processor
        self.parallelism = parallelism
        self.vertex_manager = vertex_manager
        self.resource_mb = resource_mb
        self.resource_vcores = resource_vcores
        self.data_sources: dict[str, DataSourceDescriptor] = {}
        self.data_sinks: dict[str, DataSinkDescriptor] = {}
        self.location_hints: Optional[list[TaskLocationHint]] = None

    def add_data_source(self, name: str,
                        source: DataSourceDescriptor) -> "Vertex":
        if name in self.data_sources:
            raise DagValidationError(
                f"duplicate data source {name!r} on vertex {self.name!r}"
            )
        self.data_sources[name] = source
        return self

    def add_data_sink(self, name: str, sink: DataSinkDescriptor) -> "Vertex":
        if name in self.data_sinks:
            raise DagValidationError(
                f"duplicate data sink {name!r} on vertex {self.name!r}"
            )
        self.data_sinks[name] = sink
        return self

    def set_location_hints(self, hints: list[TaskLocationHint]) -> "Vertex":
        self.location_hints = hints
        return self

    def __repr__(self) -> str:
        return f"<Vertex {self.name} parallelism={self.parallelism}>"


@dataclass(frozen=True)
class Edge:
    source: Vertex
    target: Vertex
    prop: EdgeProperty

    def __repr__(self) -> str:
        return (
            f"<Edge {self.source.name}->{self.target.name} "
            f"{self.prop.data_movement.value}>"
        )


class DAG:
    """A named, validated directed acyclic graph of vertices."""

    def __init__(self, name: str):
        if not name:
            raise DagValidationError("DAG name must be non-empty")
        self.name = name
        self.vertices: dict[str, Vertex] = {}
        self.edges: list[Edge] = []

    def add_vertex(self, vertex: Vertex) -> "DAG":
        if vertex.name in self.vertices:
            raise DagValidationError(f"duplicate vertex {vertex.name!r}")
        self.vertices[vertex.name] = vertex
        return self

    def add_edge(self, edge: Edge) -> "DAG":
        for endpoint in (edge.source, edge.target):
            if self.vertices.get(endpoint.name) is not endpoint:
                raise DagValidationError(
                    f"edge endpoint {endpoint.name!r} not in DAG"
                )
        if edge.source is edge.target:
            raise DagValidationError(
                f"self-edge on vertex {edge.source.name!r}"
            )
        for existing in self.edges:
            if (existing.source is edge.source
                    and existing.target is edge.target):
                raise DagValidationError(
                    f"duplicate edge {edge.source.name}->{edge.target.name}"
                )
        self.edges.append(edge)
        return self

    # -- queries ----------------------------------------------------------
    def in_edges(self, vertex_name: str) -> list[Edge]:
        return [e for e in self.edges if e.target.name == vertex_name]

    def out_edges(self, vertex_name: str) -> list[Edge]:
        return [e for e in self.edges if e.source.name == vertex_name]

    def root_vertices(self) -> list[Vertex]:
        return [
            v for v in self.vertices.values() if not self.in_edges(v.name)
        ]

    def leaf_vertices(self) -> list[Vertex]:
        return [
            v for v in self.vertices.values() if not self.out_edges(v.name)
        ]

    def topological_order(self) -> list[Vertex]:
        """Kahn's algorithm; raises on cycles."""
        indegree = {name: 0 for name in self.vertices}
        for edge in self.edges:
            indegree[edge.target.name] += 1
        frontier = sorted(n for n, d in indegree.items() if d == 0)
        order: list[Vertex] = []
        while frontier:
            name = frontier.pop(0)
            order.append(self.vertices[name])
            for edge in self.out_edges(name):
                indegree[edge.target.name] -= 1
                if indegree[edge.target.name] == 0:
                    frontier.append(edge.target.name)
            frontier.sort()
        if len(order) != len(self.vertices):
            raise DagValidationError(f"DAG {self.name!r} contains a cycle")
        return order

    def vertex_depths(self) -> dict[str, int]:
        """Longest distance from any root (drives task priorities)."""
        depths = {v.name: 0 for v in self.vertices.values()}
        for vertex in self.topological_order():
            for edge in self.out_edges(vertex.name):
                depths[edge.target.name] = max(
                    depths[edge.target.name], depths[vertex.name] + 1
                )
        return depths

    def descendants(self, vertex_name: str) -> set[str]:
        out: set[str] = set()
        stack = [vertex_name]
        while stack:
            current = stack.pop()
            for edge in self.out_edges(current):
                if edge.target.name not in out:
                    out.add(edge.target.name)
                    stack.append(edge.target.name)
        return out

    def verify(self) -> None:
        """Full structural validation (cycle check + local rules)."""
        if not self.vertices:
            raise DagValidationError(f"DAG {self.name!r} has no vertices")
        self.topological_order()
        for vertex in self.vertices.values():
            has_input = bool(self.in_edges(vertex.name)) or bool(
                vertex.data_sources
            )
            if vertex.parallelism == -1 and not has_input:
                raise DagValidationError(
                    f"vertex {vertex.name!r}: runtime parallelism requires "
                    "an input edge or data source to derive it from"
                )
            # Without its own manager or a sequential in-edge a vertex
            # with data sources gets the root-input manager, which
            # schedules once an initializer reports splits: with no
            # initializer at all, it would never schedule a task.
            if (
                vertex.data_sources
                and vertex.vertex_manager is None
                and all(source.initializer_descriptor is None
                        for source in vertex.data_sources.values())
                and not any(
                    e.prop.scheduling == SchedulingType.SEQUENTIAL
                    for e in self.in_edges(vertex.name)
                )
            ):
                raise DagValidationError(
                    f"vertex {vertex.name!r}: data sources "
                    f"{sorted(vertex.data_sources)} have no initializer, "
                    "so the root-input vertex manager would never "
                    "schedule its tasks; give a source an initializer, "
                    "or the vertex its own vertex manager"
                )
        for edge in self.edges:
            if edge.prop.data_movement == DataMovementType.ONE_TO_ONE:
                src, dst = edge.source, edge.target
                if (
                    src.parallelism != -1
                    and dst.parallelism != -1
                    and src.parallelism != dst.parallelism
                ):
                    raise DagValidationError(
                        f"one-to-one edge {src.name}->{dst.name} requires "
                        f"equal parallelism ({src.parallelism} vs "
                        f"{dst.parallelism})"
                    )

    def __repr__(self) -> str:
        return (
            f"<DAG {self.name}: {len(self.vertices)} vertices, "
            f"{len(self.edges)} edges>"
        )
