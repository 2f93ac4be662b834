"""The Tez DAG ApplicationMaster and its services.

The AM is an event-driven state-machine control plane: a typed
:class:`Dispatcher` (Tez's AsyncDispatcher), declarative transition
tables (`state_machines`, audited by ``python -m repro.tez.am.check``)
and focused components (`vertex_lifecycle`, `attempt_runner`,
`event_router`, `speculation`, `recovery`) wired together by the
:class:`DAGAppMaster` facade.
"""

from .dag_app_master import DAGAppMaster, DagAbort
from .dispatcher import (
    AttemptExitedEvent,
    ControlEvent,
    DataDeliveryEvent,
    Dispatcher,
    NodeLostEvent,
    StateTransitionEvent,
    TaskUplinkEvent,
    UnhandledEventError,
)
from .journal import RecoveredTask, RecoveryJournal
from .state_machines import (
    InvalidStateTransition,
    MachineSet,
    StateMachine,
    TABLES,
    TransitionTable,
)
from .status import DAGStatus
from .structures import (
    AttemptEndReason,
    AttemptState,
    DAGState,
    Task,
    TaskAttempt,
    TaskState,
    VertexRuntime,
    VertexState,
)
from .task_scheduler import TaskRequest, TaskSchedulerService

__all__ = [
    "AttemptEndReason",
    "AttemptExitedEvent",
    "AttemptState",
    "ControlEvent",
    "DAGAppMaster",
    "DAGState",
    "DAGStatus",
    "DagAbort",
    "DataDeliveryEvent",
    "Dispatcher",
    "InvalidStateTransition",
    "MachineSet",
    "NodeLostEvent",
    "RecoveredTask",
    "RecoveryJournal",
    "StateMachine",
    "StateTransitionEvent",
    "TABLES",
    "Task",
    "TaskAttempt",
    "TaskRequest",
    "TaskSchedulerService",
    "TaskState",
    "TaskUplinkEvent",
    "TransitionTable",
    "UnhandledEventError",
    "VertexRuntime",
    "VertexState",
]
