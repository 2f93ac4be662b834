"""The Tez Runtime API (paper section 3.2): Inputs, Processor, Outputs.

A task is the composition of a set of logical inputs, one processor,
and a set of logical outputs (IPO). Tez instantiates them from the
descriptors in the DAG, configures each with its opaque payload, wires
up the event channels, and asks the processor to run. Tez itself never
touches the data: inputs/outputs move bytes directly against HDFS or
the shuffle service; Tez only routes metadata events.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from ..sim import Environment, Store
from .events import TezEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..cluster import Cluster, ClusterSpec
    from ..hdfs import Hdfs
    from ..shuffle import ShuffleServices
    from ..yarn import Container
    from .registry import ObjectRegistry

__all__ = [
    "FrameworkServices",
    "TaskContext",
    "LogicalInput",
    "LogicalOutput",
    "Processor",
    "TaskSpec",
    "InputSpec",
    "OutputSpec",
]


class FrameworkServices:
    """Cluster-side services handed to the task runtime (not the app)."""

    def __init__(self, env: Environment, cluster: "Cluster", hdfs: "Hdfs",
                 shuffle: "ShuffleServices", job_token=None):
        self.env = env
        self.cluster = cluster
        self.spec = cluster.spec
        self.hdfs = hdfs
        self.shuffle = shuffle
        self.job_token = job_token


class InputSpec:
    """One logical input of a task: where data comes from.

    ``extra`` carries per-task data such as the root-input split
    assigned by an initializer (Tez ships this as an
    InputDataInformationEvent; we attach it to the spec directly).
    """

    def __init__(self, source_name: str, descriptor, physical_count: int,
                 extra: Any = None):
        self.source_name = source_name      # edge source vertex / root name
        self.descriptor = descriptor
        self.physical_count = physical_count
        self.extra = extra

    def __repr__(self) -> str:
        return f"<InputSpec from={self.source_name} n={self.physical_count}>"


class OutputSpec:
    """One logical output of a task: where data goes."""

    def __init__(self, target_name: str, descriptor, physical_count: int):
        self.target_name = target_name      # edge target vertex / sink name
        self.descriptor = descriptor
        self.physical_count = physical_count

    def __repr__(self) -> str:
        return f"<OutputSpec to={self.target_name} n={self.physical_count}>"


class TaskSpec:
    """Everything needed to run one task attempt."""

    def __init__(
        self,
        dag_name: str,
        vertex_name: str,
        task_index: int,
        attempt: int,
        processor_descriptor,
        inputs: list[InputSpec],
        outputs: list[OutputSpec],
        parallelism: int,
    ):
        self.dag_name = dag_name
        self.vertex_name = vertex_name
        self.task_index = task_index
        self.attempt = attempt
        self.processor_descriptor = processor_descriptor
        self.inputs = inputs
        self.outputs = outputs
        self.parallelism = parallelism
        # Fixed at construction (none of its four parts is reassigned),
        # read once per fetch, spill and span.
        self.attempt_id = f"{dag_name}/{vertex_name}/t{task_index}_a{attempt}"

    def __repr__(self) -> str:
        return f"<TaskSpec {self.attempt_id}>"


class TaskContext:
    """The context object IPO entities use to interact with Tez."""

    def __init__(
        self,
        services: FrameworkServices,
        spec: TaskSpec,
        container: "Container",
        registry: "ObjectRegistry",
        send_event: Callable[[TezEvent], None],
    ):
        self.services = services
        self.env = services.env
        self.task = spec
        self.container = container
        self.registry = registry
        self._send_event = send_event
        self.counters: dict[str, float] = {}
        # Set by the framework when this attempt runs on the inline
        # fast path: IPO entities should compose nested generators with
        # ``yield from`` instead of spawning child sim processes, and
        # may drain already-buffered store items without blocking.
        self.inline = False
        # Scope identifiers for the shared object registry; set by the
        # framework before the task runs.
        self.vertex_scope_id = f"{spec.dag_name}/{spec.vertex_name}"
        self.dag_scope_id = spec.dag_name
        self.session_scope_id = "session"

    # -- identity -------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.container.node_id

    @property
    def vertex_name(self) -> str:
        return self.task.vertex_name

    @property
    def task_index(self) -> int:
        return self.task.task_index

    @property
    def attempt(self) -> int:
        return self.task.attempt

    @property
    def parallelism(self) -> int:
        return self.task.parallelism

    # -- cost-model charging ----------------------------------------------
    def compute(self, cpu_seconds: float):
        """Timeout for ``cpu_seconds`` of compute (JIT/straggler aware)."""
        self.count("cpu_seconds", cpu_seconds)
        return self.env.timeout(self.container.compute_delay(cpu_seconds))

    def io_wait(self, seconds: float):
        self.count("io_seconds", seconds)
        return self.env.timeout(self.container.io_delay(seconds))

    # -- control plane -------------------------------------------------------
    def send_event(self, event: TezEvent) -> None:
        """Ship an event to the AM (delivered on the next heartbeat)."""
        self._send_event(event)

    # -- shared object registry (paper 4.2) -----------------------------------
    def cache_put(self, scope: str, key: str, value: Any) -> None:
        """Publish an object to this container's registry at a scope."""
        from .registry import Scope

        scope_id = {
            Scope.VERTEX: self.vertex_scope_id,
            Scope.DAG: self.dag_scope_id,
            Scope.SESSION: self.session_scope_id,
        }[scope]
        self.registry.put(scope, scope_id, key, value)

    def cache_get(self, key: str) -> Any:
        return self.registry.get(key)

    # -- metrics ----------------------------------------------------------------
    def count(self, counter: str, delta: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + delta


class LogicalInput:
    """Reads the data of one edge/data-source for one task.

    Lifecycle: constructed from the descriptor; ``initialize`` may do
    IO; ``handle_event`` receives routed DataMovementEvents (possibly
    while the task runs — the shuffle overlap); ``reader`` is a sim
    process that completes when the data has been read.
    """

    def __init__(self, ctx: TaskContext, spec: InputSpec, payload: Any):
        self.ctx = ctx
        self.spec = spec
        self.payload = payload
        self.events: Store = Store(ctx.env)

    def initialize(self) -> Generator:
        yield from ()

    def handle_event(self, event: TezEvent) -> None:
        """Default: queue for the reader process to consume.

        Fire-and-forget: nobody awaits the put acknowledgement, so the
        no-ack variant saves one inert kernel entry per routed event.
        """
        self.events.put_nowait(event)

    def handle_events(self, events: list[TezEvent]) -> None:
        """``handle_event`` on each of ``events``, in order: a task's
        buffered events arrive in one call per input."""
        for event in events:
            self.handle_event(event)

    def reader(self) -> Generator:
        """Process returning the input's records."""
        raise NotImplementedError
        yield  # pragma: no cover

    def close(self) -> Generator:
        yield from ()


class LogicalOutput:
    """Writes the data of one edge/data-sink for one task.

    ``close`` finalizes the write and returns the control-plane events
    (DataMovementEvents) describing where consumers can find the data.
    """

    def __init__(self, ctx: TaskContext, spec: OutputSpec, payload: Any):
        self.ctx = ctx
        self.spec = spec
        self.payload = payload

    def initialize(self) -> Generator:
        yield from ()

    def write(self, records: list) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def close(self) -> Generator:
        """Finalize; returns list[TezEvent] to route."""
        yield from ()
        return []


class Processor:
    """The application logic of a vertex, opaque to Tez."""

    def __init__(self, ctx: TaskContext, payload: Any):
        self.ctx = ctx
        self.payload = payload

    def initialize(self) -> Generator:
        yield from ()

    def run(self, inputs: dict[str, LogicalInput],
            outputs: dict[str, LogicalOutput]) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover
