"""The per-node auxiliary shuffle service.

Producer tasks register partitioned spills with the service on their
node; consumer tasks fetch single partitions over the (simulated)
network. Spills live on the producing node's local disks: if the node
dies, its spills are lost and fetches raise — the failure mode Tez's
re-execution fault tolerance recovers from.

Access is authenticated with a per-application JOB token (paper 4.3:
shuffle data is read via the secure YARN shuffle service).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from ..cluster import Cluster
from ..hdfs import estimate_records_bytes, record_width
from ..yarn.security import SecurityManager, Token
from . import sorter
from .partitioner import Partitioner

__all__ = ["ShuffleService", "ShuffleServices", "Spill", "SpillRef",
           "ShuffleError", "SpillLost"]


class ShuffleError(Exception):
    pass


class SpillLost(ShuffleError):
    """The spill's node is dead or the spill was deleted."""


@dataclass
class Spill:
    """A producer task output: records and byte sizes per partition."""

    spill_id: str
    app_id: str
    node_id: str
    partitions: dict[int, list]
    partition_bytes: dict[int, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.partition_bytes.values())


class SpillRef:
    """What a DataMovementEvent carries: where to fetch which data, and
    the key kind (``sorter.key_kind``) of the whole spill it is part of
    - ``None`` when unknown - so a reducer's merge need not look at the
    keys again. A slotted record, never changed once built; equality
    and hash are the location's, the kind takes no part."""

    __slots__ = ("node_id", "spill_id", "partition", "nbytes", "key_kind")

    def __init__(self, node_id: str, spill_id: str, partition: int,
                 nbytes: int, key_kind: Optional[frozenset] = None):
        self.node_id = node_id
        self.spill_id = spill_id
        self.partition = partition
        self.nbytes = nbytes
        self.key_kind = key_kind

    def _location(self) -> tuple:
        return (self.node_id, self.spill_id, self.partition, self.nbytes)

    def __eq__(self, other) -> bool:
        if type(other) is not SpillRef:
            return NotImplemented
        return self._location() == other._location()

    def __hash__(self) -> int:
        return hash(self._location())

    def __repr__(self) -> str:
        return f"<SpillRef {self.spill_id}[p{self.partition}]@{self.node_id}>"


class ShuffleService:
    """One node's shuffle service."""

    def __init__(self, node_id: str, cluster: Cluster,
                 security: SecurityManager,
                 app_nodes: dict[str, set[str]]):
        self.node_id = node_id
        self.cluster = cluster
        self.security = security
        self._spills: dict[str, Spill] = {}
        # app id -> its spill ids here, so a finished application's
        # spills are found without scanning every other app's.
        self._app_spills: dict[str, set[str]] = {}
        # app id -> ids of the nodes holding its spills, shared by every
        # service of one ShuffleServices directory: an app is listed
        # under this node exactly while ``_app_spills`` lists it.
        self._app_nodes = app_nodes
        # app id -> the job token object a fetch here last verified for
        # it: the secret never changes, so a token that passed once
        # passes again. Only a check that ran is remembered.
        self._verified: dict[str, Token] = {}

    @property
    def alive(self) -> bool:
        return self.cluster.nodes[self.node_id].alive

    def register_spill(
        self,
        app_id: str,
        spill_id: str,
        partitions: dict[int, list],
        token: Optional[Token] = None,
        bytes_per_record: Optional[float] = None,
        key_kind: Optional[frozenset] = None,
    ) -> list[SpillRef]:
        """Store a spill; returns one SpillRef per partition, empty ones
        included, in partition order, each stamped with ``key_kind``.
        The service takes ownership of ``partitions`` (no copy).

        An empty partition still gets a ref, and its consumer still
        fetches it: the cost model charges every fetch its connection
        latency, so a wide scatter-gather over few records (a session
        of small DAGs: 163 840 refs for 320 records a batch) pays for
        its fan-out. Tez skips those fetches with an empty-partition
        bitmap in the DataMovementEvent; modelling it is a fidelity
        change that moves simulated makespans, not a host-time one."""
        self.security.verify(token, "JOB", app_id)
        if not self.alive:
            raise SpillLost(f"node {self.node_id} is down")
        if spill_id in self._spills:
            raise ShuffleError(f"duplicate spill {spill_id}")
        partition_bytes: dict[int, int] = {}
        for part, records in partitions.items():
            if bytes_per_record is not None:
                partition_bytes[part] = int(len(records) * bytes_per_record)
            elif records:
                partition_bytes[part] = estimate_records_bytes(records)
            else:
                partition_bytes[part] = 0
        spill = Spill(spill_id, app_id, self.node_id, partitions,
                      partition_bytes)
        self._spills[spill_id] = spill
        spill_ids = self._app_spills.get(app_id)
        if spill_ids is None:
            spill_ids = self._app_spills[app_id] = set()
            self._app_nodes.setdefault(app_id, set()).add(self.node_id)
        spill_ids.add(spill_id)
        return [
            SpillRef(self.node_id, spill_id, part, partition_bytes[part],
                     key_kind)
            for part in sorted(partitions)
        ]

    def spill(
        self,
        app_id: str,
        spill_id: str,
        records: list,
        num_partitions: int,
        partitioner: Partitioner,
        *,
        ordered: bool,
        combiner: Optional[Callable[[list], list]] = None,
        token: Optional[Token] = None,
        bytes_per_record: Optional[float] = None,
    ) -> list[SpillRef]:
        """Partition, sort, combine, size and register one task's output
        (``(key, value)`` records): how every producer makes a spill.

        One pass over the keys gives the output's key kind. The
        partitioner routes by it, every partition is sorted in place
        (``ordered``) on the one order it picks, and the refs carry it
        to the reducers' merges. ``combiner`` maps each partition,
        sorted if ``ordered``, to its combined records, whose kind is
        taken afresh. A one-partition output is ``records`` itself,
        uncopied; unless it is sorted its keys are never read (its kind
        stays unknown), so it may hold records of any shape. Partitions
        are sized ``len x bytes_per_record``; when that is not given and
        every record has one fixed width (``hdfs.record_width``), that
        width, and otherwise ``estimate_records_bytes`` each."""
        kind = None
        if num_partitions == 1:
            partitions = {0: records}
            if ordered:
                kind = sorter.key_kind(records)
        else:
            kind = sorter.key_kind(records)
            partitions = partitioner.split(records, num_partitions, kind)
        if ordered:
            order = sorter.record_order(kind)
            for part in partitions.values():
                part.sort(key=order)
        if combiner is not None:
            partitions = {part: combiner(recs)
                          for part, recs in partitions.items()}
            records = list(chain.from_iterable(partitions.values()))
            if kind is not None:
                kind = sorter.key_kind(records)
        if bytes_per_record is None:
            bytes_per_record = record_width(records, kind)
        return self.register_spill(
            app_id, spill_id, partitions, token=token,
            bytes_per_record=bytes_per_record, key_kind=kind)

    def fetch(self, spill_id: str, partition: int,
              app_id: str, token: Optional[Token] = None) -> list:
        """Return one partition's records; raises SpillLost when gone.

        The token is verified once per app and token object; any other
        token is verified on every call, so a bad one (wrong kind or
        owner, a forged signature, none) raises every time."""
        if token is None or self._verified.get(app_id) is not token:
            security = self.security
            security.verify(token, "JOB", app_id)
            if security.enabled:
                self._verified[app_id] = token
        if not self.alive:
            raise SpillLost(f"node {self.node_id} is down")
        spill = self._spills.get(spill_id)
        if spill is None:
            raise SpillLost(f"spill {spill_id} not found on {self.node_id}")
        return spill.partitions.get(partition, [])

    def delete_app(self, app_id: str) -> None:
        """Reclaim all spills of a finished application."""
        for spill_id in self._app_spills.pop(app_id, ()):
            del self._spills[spill_id]
        self._unlist(app_id)

    def drop_spill(self, spill_id: str) -> None:
        spill = self._spills.pop(spill_id, None)
        if spill is not None:
            spill_ids = self._app_spills[spill.app_id]
            spill_ids.discard(spill_id)
            if not spill_ids:
                del self._app_spills[spill.app_id]
                self._unlist(spill.app_id)

    def _unlist(self, app_id: str) -> None:
        """This node holds no more spills of ``app_id``."""
        nodes = self._app_nodes.get(app_id)
        if nodes is not None:
            nodes.discard(self.node_id)
            if not nodes:
                del self._app_nodes[app_id]

    def spill_ids(self) -> list[str]:
        """Registered spill ids, sorted (fault injection + testing)."""
        return sorted(self._spills)

    def spill_count(self, app_id: Optional[str] = None) -> int:
        if app_id is None:
            return len(self._spills)
        return len(self._app_spills.get(app_id, ()))


class ShuffleServices:
    """Directory of per-node shuffle services + app-wide cleanup."""

    def __init__(self, cluster: Cluster, security: SecurityManager):
        self.cluster = cluster
        self.security = security
        # app id -> ids of the nodes holding its spills (kept by the
        # services), so cleanup visits only those nodes.
        self._app_nodes: dict[str, set[str]] = {}
        self.services = {
            node_id: ShuffleService(node_id, cluster, security,
                                    self._app_nodes)
            for node_id in cluster.nodes
        }

    def on_node(self, node_id: str) -> ShuffleService:
        return self.services[node_id]

    def app_nodes(self, app_id: str) -> list[str]:
        """Ids of the nodes holding spills of ``app_id``, sorted."""
        return sorted(self._app_nodes.get(app_id, ()))

    def delete_app(self, app_id: str) -> None:
        for node_id in self.app_nodes(app_id):
            self.services[node_id].delete_app(app_id)
