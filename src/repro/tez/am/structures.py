"""AM-side bookkeeping: DAG / Vertex / Task / TaskAttempt state.

These mirror Tez's DAGImpl/VertexImpl/TaskImpl/TaskAttemptImpl state
machines in a compact form: explicit states for observability and
testing, with transitions driven by the DAGAppMaster.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional, TYPE_CHECKING

from ...yarn import Resource
from ..dag import Edge, Vertex
from ..events import CompositeDataMovementEvent, TezEvent

if TYPE_CHECKING:  # pragma: no cover
    from ...sim import Store
    from ...yarn import Container

__all__ = [
    "DAGState",
    "VertexState",
    "VertexInitState",
    "TaskState",
    "AttemptState",
    "TaskAttempt",
    "Task",
    "VertexRuntime",
    "AttemptEndReason",
]


class DAGState(Enum):
    NEW = "NEW"
    RUNNING = "RUNNING"
    COMMITTING = "COMMITTING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"


class VertexState(Enum):
    NEW = "NEW"
    INITIALIZING = "INITIALIZING"
    INITED = "INITED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"


class VertexInitState(Enum):
    """Sub-machine of the vertex INITIALIZING phase.

    The vertex-level table collapses the whole initialization into one
    NEW -> INITIALIZING -> INITED arc; this machine makes the phases
    inside INITIALIZING explicit (and auditable): root-input
    initializers, parallelism resolution (including one-to-one
    inheritance), task creation, and vertex-manager bring-up. Shard
    replay re-enters vertex init from PENDING on every AM attempt — a
    fresh :class:`VertexRuntime` means a fresh init machine.
    """

    PENDING = "PENDING"
    SOURCES_INITIALIZING = "SOURCES_INITIALIZING"
    RESOLVING_PARALLELISM = "RESOLVING_PARALLELISM"
    TASKS_CREATED = "TASKS_CREATED"
    MANAGER_READY = "MANAGER_READY"
    DONE = "DONE"
    ABORTED = "ABORTED"


class TaskState(Enum):
    NEW = "NEW"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"


class AttemptState(Enum):
    NEW = "NEW"
    QUEUED = "QUEUED"        # waiting for a container
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"


class AttemptEndReason(Enum):
    APP_ERROR = "APP_ERROR"              # processor raised
    CONTAINER_LOST = "CONTAINER_LOST"    # node/container died
    PREEMPTED = "PREEMPTED"              # internal deadlock preemption
    SPECULATION_LOST = "SPECULATION_LOST"
    OUTPUT_LOST = "OUTPUT_LOST"          # re-executed for lost output
    DAG_KILLED = "DAG_KILLED"


class TaskAttempt:
    """One execution attempt of a task."""

    def __init__(self, task: "Task", number: int,
                 is_speculative: bool = False):
        self.task = task
        self.number = number
        # Fixed at construction, read several times per task.
        dag_id = task.vertex.dag_id
        prefix = f"{dag_id}/" if dag_id else ""
        self.attempt_id = (
            f"{prefix}{task.task_id.replace('_t', '/t')}_a{number}"
        )
        self.is_speculative = is_speculative
        self.state = AttemptState.NEW
        self.container: Optional["Container"] = None
        self.node_id: Optional[str] = None
        self.process = None              # sim process while running
        self.event_store: Optional["Store"] = None  # live event channel
        self.start_time: Optional[float] = None
        self.launch_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.end_reason: Optional[AttemptEndReason] = None
        self.diagnostics = ""
        self.counters: dict[str, float] = {}
        self.telemetry_span = None       # timeline span (observability)

    @property
    def duration(self) -> Optional[float]:
        if self.launch_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.launch_time

    def __repr__(self) -> str:
        return f"<Attempt {self.attempt_id} {self.state.value}>"


class Task:
    """One unit of work of a vertex (paper terminology)."""

    def __init__(self, vertex: "VertexRuntime", index: int):
        self.vertex = vertex
        self.index = index
        self.task_id = f"{vertex.name}_t{index}"
        # What the task machine announces this task's moves under.
        self.machine_id = f"{vertex.dag_id}/{self.task_id}"
        # Moved only by the task machine. A move into or out of
        # SUCCEEDED is also counted in the vertex's `_succeeded_count`
        # by the code that fires it (`succeed`, `recover`, `restart`).
        self.state = TaskState.NEW
        self.attempts: list[TaskAttempt] = []
        self.failed_attempts = 0
        self.output_version = -1         # attempt number of live output
        self.succeeded_attempt: Optional[TaskAttempt] = None
        self.output_events: list[TezEvent] = []
        self.location_nodes: tuple[str, ...] = ()
        self.location_racks: tuple[str, ...] = ()

    def new_attempt(self, is_speculative: bool = False) -> TaskAttempt:
        attempt = TaskAttempt(self, len(self.attempts),
                              is_speculative=is_speculative)
        self.attempts.append(attempt)
        return attempt

    def running_attempts(self) -> list[TaskAttempt]:
        return [
            a for a in self.attempts
            if a.state in (AttemptState.QUEUED, AttemptState.RUNNING)
        ]

    def __repr__(self) -> str:
        return f"<Task {self.task_id} {self.state.value}>"


class VertexRuntime:
    """AM-side state of one vertex."""

    def __init__(self, vertex: Vertex, depth: int, dag_id: str,
                 dag_name: str):
        self.vertex = vertex
        self.name = vertex.name
        self.depth = depth
        self.dag_id = dag_id   # session-unique DAG execution id
        self.dag_name = dag_name   # what the journal keys recovery by
        # What the vertex and vertex_init machines announce moves under.
        self.machine_id = f"{dag_id}/{self.name}"
        self.init_machine_id = f"{dag_id}/{self.name}/init"
        # What every attempt of this vertex asks YARN for.
        self.capability = Resource(vertex.resource_mb,
                                   vertex.resource_vcores)
        self.state = VertexState.NEW
        self.init_state = VertexInitState.PENDING
        self.parallelism = vertex.parallelism
        self.tasks: list[Task] = []
        # Count of tasks currently in SUCCEEDED, kept by the code that
        # fires a task's `succeed`, `recover` and `restart` (see Task)
        # and read by all_tasks_done.
        self._succeeded_count = 0
        self.scheduled: set[int] = set()
        self.completed_tasks = 0
        self.in_edges: list[Edge] = []
        self.out_edges: list[Edge] = []
        self.manager = None              # VertexManagerPlugin
        self.root_splits: dict[str, list] = {}   # input name -> splits
        self.initialized_inputs: set[str] = set()
        # Buffered data movement: the composite DME of each source
        # task's latest output (one per attempt, covering its whole
        # partition range) keyed by (source_name, source_task). Kept
        # compact and expanded lazily per consumer task at launch.
        self.incoming_composites: dict[
            tuple[str, int], CompositeDataMovementEvent
        ] = {}
        # VertexManagerEvents arriving before the manager is ready.
        self.pending_vm_events: list = []
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.telemetry_span = None       # timeline span (observability)
        self.inited_event = None   # sim Event set by the AM
        # True once the first task is scheduled: parallelism is final
        # and downstream vertices may compute their input shapes
        # (Tez's "vertex configured" state).
        self.parallelism_locked = False

    @property
    def started(self) -> bool:
        return self.state in (
            VertexState.RUNNING, VertexState.SUCCEEDED
        )

    def create_tasks(self) -> None:
        if self.parallelism < 1:
            raise RuntimeError(
                f"vertex {self.name}: parallelism unresolved "
                f"({self.parallelism})"
            )
        self._succeeded_count = 0
        self.tasks = [Task(self, i) for i in range(self.parallelism)]

    def set_parallelism(self, parallelism: int) -> None:
        if self.scheduled:
            raise RuntimeError(
                f"vertex {self.name}: cannot change parallelism after "
                "tasks were scheduled"
            )
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.create_tasks()

    def all_tasks_done(self) -> bool:
        return (
            bool(self.tasks)
            and self._succeeded_count == len(self.tasks)
        )

    def __repr__(self) -> str:
        return (
            f"<VertexRuntime {self.name} {self.state.value} "
            f"{self.completed_tasks}/{self.parallelism}>"
        )
