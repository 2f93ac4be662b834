"""YARN protocol records (the wire types of the RM/NM/AM protocols)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "Resource",
    "Priority",
    "ApplicationId",
    "ContainerId",
    "ContainerState",
    "ContainerExitStatus",
    "NodeState",
    "ContainerStatus",
    "ResourceRequest",
    "FinalApplicationStatus",
    "ANY",
]

ANY = "*"  # the wildcard resource-name (any node)


_new = tuple.__new__


def _frozen(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


@classmethod
def _make(cls, iterable):
    # namedtuple's _make / _replace go straight to tuple.__new__: route
    # them through the validating, name-rendering constructor instead.
    return cls(*iterable)


class _ResourceFields(NamedTuple):
    memory_mb: int
    vcores: int = 1


class Resource(_ResourceFields):
    """A resource capability: memory and virtual cores."""

    __slots__ = ()
    _make = _make

    def __new__(cls, memory_mb: int, vcores: int = 1) -> "Resource":
        if memory_mb < 0 or vcores < 0:
            raise ValueError("resources must be non-negative")
        return _new(cls, (memory_mb, vcores))

    def fits_in(self, other: "Resource") -> bool:
        return self[0] <= other[0] and self[1] <= other[1]

    def __add__(self, other: "Resource") -> "Resource":
        # Two valid resources sum to a valid one: no re-check.
        return _new(Resource, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other: "Resource") -> "Resource":
        return Resource(self[0] - other[0], self[1] - other[1])

    def dominant_share(self, total: "Resource") -> float:
        memory, cores = total[0], total[1]
        mem_share = self[0] / memory if memory else 0.0
        cpu_share = self[1] / cores if cores else 0.0
        return mem_share if mem_share >= cpu_share else cpu_share


class _PriorityFields(NamedTuple):
    value: int


class Priority(_PriorityFields):
    __slots__ = ()
    _make = _make

    def __new__(cls, value: int) -> "Priority":
        if value < 0:
            raise ValueError("priority must be >= 0")
        return _new(cls, (value,))


_app_counter = itertools.count(1)


class _ApplicationIdFields(NamedTuple):
    cluster_ts: int
    app_num: int


class ApplicationId(_ApplicationIdFields):
    # No __slots__: the name rendered at construction lives in the
    # instance __dict__, outside the tuple, so hash(id) == hash(fields).
    __setattr__ = __delattr__ = _frozen
    _make = _make

    def __new__(cls, cluster_ts: int, app_num: int) -> "ApplicationId":
        self = _new(cls, (cluster_ts, app_num))
        self.__dict__["_str"] = f"application_{cluster_ts}_{app_num:04d}"
        return self

    @classmethod
    def new(cls, cluster_ts: int = 0) -> "ApplicationId":
        return cls(cluster_ts, next(_app_counter))

    def __str__(self) -> str:
        return self._str


class _ContainerIdFields(NamedTuple):
    app_id: ApplicationId
    container_num: int


class ContainerId(_ContainerIdFields):
    __setattr__ = __delattr__ = _frozen
    _make = _make

    def __new__(cls, app_id: ApplicationId,
                container_num: int) -> "ContainerId":
        self = _new(cls, (app_id, container_num))
        self.__dict__["_str"] = (
            f"container_{app_id.cluster_ts}_{app_id.app_num:04d}"
            f"_{container_num:06d}"
        )
        return self

    def __str__(self) -> str:
        return self._str


class ContainerState(Enum):
    NEW = "NEW"
    RUNNING = "RUNNING"
    COMPLETE = "COMPLETE"


class NodeState(Enum):
    """RM-side view of a node's health (driven by NM heartbeats)."""

    RUNNING = "RUNNING"
    LOST = "LOST"           # heartbeats stopped past the liveness timeout


class ContainerExitStatus:
    SUCCESS = 0
    ABORTED = -100          # released by AM / RM
    PREEMPTED = -102        # preempted by the scheduler
    DISKS_FAILED = -101
    NODE_LOST = -105        # node crashed
    KILLED_BY_APP = -106


@dataclass
class ContainerStatus:
    container_id: ContainerId
    state: ContainerState
    exit_status: int = 0
    diagnostics: str = ""


class FinalApplicationStatus(Enum):
    UNDEFINED = "UNDEFINED"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    KILLED = "KILLED"


@dataclass
class ResourceRequest:
    """An AM's ask: N containers of some capability at a priority.

    ``resource_name`` is a node id, a rack id, or :data:`ANY`. YARN
    semantics: to get node-local placement with fallback, the AM sends
    node-level, rack-level and ANY requests for the same priority, and
    ``relax_locality`` governs whether fallback is allowed.
    """

    priority: Priority
    capability: Resource
    num_containers: int
    resource_name: str = ANY
    relax_locality: bool = True

    def __post_init__(self):
        if self.num_containers < 0:
            raise ValueError("num_containers must be >= 0")
