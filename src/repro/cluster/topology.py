"""Physical cluster model: racks, nodes, locality, and network health.

Besides the static topology this tracks the *dynamic* network state the
chaos subsystem manipulates: per-rack-pair link degradation (reduced
bandwidth, packet loss, full partition) and per-node isolation (a rack
outage leaves machines running but unreachable — heartbeats stop and
shuffle fetches hang, which is how partitions surface upstream).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Environment
from .spec import ClusterSpec

__all__ = ["Node", "Cluster", "LinkState", "LOCAL", "RACK_LOCAL", "REMOTE"]

LOCAL = "local"
RACK_LOCAL = "rack"
REMOTE = "remote"


@dataclass
class LinkState:
    """Health of the network path between two racks."""

    bandwidth_factor: float = 1.0   # <1.0 slows transfers on this link
    loss_rate: float = 0.0          # extra transient-fetch-error probability
    partitioned: bool = False       # nothing gets through at all


class Node:
    """A cluster machine: identity, rack, capacity, and health."""

    def __init__(self, node_id: str, rack: str, cores: int, memory_mb: int):
        self.node_id = node_id
        self.rack = rack
        self.cores = cores
        self.memory_mb = memory_mb
        self.alive = True
        # Network isolation: the machine is up but unreachable (rack
        # outage). Heartbeats and fetches involving it fail.
        self.isolated = False
        # Relative execution speed; < 1.0 models a degraded machine
        # (the straggler scenario speculation targets).
        self.speed = 1.0
        self._crash_listeners: list[Callable[["Node"], None]] = []
        self._restart_listeners: list[Callable[["Node"], None]] = []

    def on_crash(self, callback: Callable[["Node"], None]) -> None:
        self._crash_listeners.append(callback)

    def on_restart(self, callback: Callable[["Node"], None]) -> None:
        """Fires on a dead->alive transition (not on no-op restarts)."""
        self._restart_listeners.append(callback)

    def crash(self) -> None:
        if not self.alive:
            return
        self.alive = False
        for callback in list(self._crash_listeners):
            callback(self)

    def restart(self) -> None:
        was_dead = not self.alive
        self.alive = True
        self.speed = 1.0
        if was_dead:
            for callback in list(self._restart_listeners):
                callback(self)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        if self.alive and self.isolated:
            state = "isolated"
        return f"<Node {self.node_id} rack={self.rack} {state}>"


class Cluster:
    """The set of nodes plus topology queries used for locality."""

    def __init__(self, env: Environment, spec: ClusterSpec):
        self.env = env
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.nodes: dict[str, Node] = {}
        for i in range(spec.num_nodes):
            rack = f"rack{i // spec.nodes_per_rack}"
            node = Node(
                node_id=f"node{i:04d}",
                rack=rack,
                cores=spec.cores_per_node,
                memory_mb=spec.memory_per_node_mb,
            )
            self.nodes[node.node_id] = node
        # Degraded / partitioned inter-rack links, keyed by rack pair.
        self._links: dict[frozenset, LinkState] = {}

    # -- lookups ---------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def live_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def racks(self) -> list[str]:
        return sorted({n.rack for n in self.nodes.values()})

    def nodes_in_rack(self, rack: str) -> list[Node]:
        return [n for n in self.nodes.values() if n.rack == rack]

    def locality(self, from_node: str, to_node: str) -> str:
        """Locality class of a transfer from ``from_node`` to ``to_node``."""
        if from_node == to_node:
            return LOCAL
        if self.nodes[from_node].rack == self.nodes[to_node].rack:
            return RACK_LOCAL
        return REMOTE

    def transfer_time(self, nbytes: int, from_node: str, to_node: str) -> float:
        seconds = self.spec.transfer_time(
            nbytes, self.locality(from_node, to_node)
        )
        link = self.link_state(from_node, to_node)
        if link is not None and 0 < link.bandwidth_factor < 1.0:
            seconds /= link.bandwidth_factor
        return seconds

    # -- network health ----------------------------------------------------
    def degrade_link(
        self,
        rack_a: str,
        rack_b: str,
        bandwidth_factor: float = 1.0,
        loss_rate: float = 0.0,
        partitioned: bool = False,
    ) -> None:
        """Degrade the path between two racks (flaky or partitioned)."""
        for rack in (rack_a, rack_b):
            if rack not in self.racks():
                raise ValueError(f"unknown rack {rack!r}")
        if rack_a == rack_b:
            raise ValueError("link endpoints must be distinct racks")
        if not 0 < bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if not 0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        self._links[frozenset((rack_a, rack_b))] = LinkState(
            bandwidth_factor, loss_rate, partitioned
        )

    def restore_link(self, rack_a: str, rack_b: str) -> None:
        self._links.pop(frozenset((rack_a, rack_b)), None)

    def link_state(self, from_node: str, to_node: str) -> Optional[LinkState]:
        if not self._links:
            # Asked up to three times per shuffle fetch; a healthy
            # network has no entry to find.
            return None
        rack_a = self.nodes[from_node].rack
        rack_b = self.nodes[to_node].rack
        if rack_a == rack_b:
            return None
        return self._links.get(frozenset((rack_a, rack_b)))

    def link_partitioned(self, from_node: str, to_node: str) -> bool:
        """True when no traffic can flow between the two nodes."""
        if from_node == to_node:
            return False
        if self.nodes[from_node].isolated or self.nodes[to_node].isolated:
            return True
        link = self.link_state(from_node, to_node)
        return link.partitioned if link is not None else False

    def link_loss_rate(self, from_node: str, to_node: str) -> float:
        if from_node == to_node:
            return 0.0
        link = self.link_state(from_node, to_node)
        return link.loss_rate if link is not None else 0.0

    def isolate_rack(self, rack: str) -> None:
        """Rack outage: every node keeps running but is unreachable."""
        nodes = self.nodes_in_rack(rack)
        if not nodes:
            raise ValueError(f"unknown rack {rack!r}")
        for node in nodes:
            node.isolated = True

    def restore_rack(self, rack: str) -> None:
        for node in self.nodes_in_rack(rack):
            node.isolated = False

    # -- placement helpers ------------------------------------------------
    def place_replicas(self, count: int, preferred: Optional[str] = None) -> list[Node]:
        """HDFS-style replica placement: first replica on the preferred
        (writer's) node, second on a different rack, rest spread out."""
        live = self.live_nodes()
        if not live:
            raise RuntimeError("no live nodes available for placement")
        count = min(count, len(live))
        chosen: list[Node] = []
        chosen_ids: set[str] = set()  # O(1) membership on large clusters

        def take(node: Node) -> None:
            chosen.append(node)
            chosen_ids.add(node.node_id)

        if preferred and preferred in self.nodes and self.nodes[preferred].alive:
            take(self.nodes[preferred])
        else:
            take(self.rng.choice(live))
        if count > 1:
            off_rack = [
                n for n in live
                if n.rack != chosen[0].rack and n.node_id not in chosen_ids
            ]
            if off_rack:
                take(self.rng.choice(off_rack))
        while len(chosen) < count:
            remaining = [n for n in live if n.node_id not in chosen_ids]
            if not remaining:
                break
            take(self.rng.choice(remaining))
        return chosen

    # -- failure injection --------------------------------------------------
    def crash_node(self, node_id: str) -> None:
        self.nodes[node_id].crash()

    def restart_node(self, node_id: str) -> None:
        self.nodes[node_id].restart()

    def slow_node(self, node_id: str, speed: float) -> None:
        if not 0 < speed <= 1.0:
            raise ValueError("speed must be in (0, 1]")
        self.nodes[node_id].speed = speed
