"""ChaosController: executes a :class:`FaultPlan` against a live sim.

Runs as a simulation process: sleeps to each fault's injection time,
picks victims deterministically (seeded rng over stable candidate
orderings), applies the fault, and spawns auto-heal processes for
faults with a duration. Everything injected is logged in
:attr:`ChaosController.injected` and counted per kind; the total is
mirrored into the driving Tez AM's metrics as ``faults_injected`` when
a client is attached.

Injection route: each fault goes to the thing it breaks, once. A node
crash is ``Cluster.crash_node``, a lost shuffle output is
``ShuffleService.drop_spill``, and an AM crash is the live AM
attempt's :meth:`~repro.tez.am.DAGAppMaster.crash`. The AM learns of
them as it would on YARN: a lost node through the RM's node-loss
callback, a lost output through its consumers' fetch failures, its own
death through the RM restarting the application. An AM crash needs a
live AM; injecting one without an attached client's running
application raises.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from ..cluster import Cluster
from ..shuffle import ShuffleServices
from ..sim import Environment
from ..telemetry import get_telemetry
from ..yarn import ResourceManager
from .plan import Fault, FaultKind, FaultPlan

__all__ = ["ChaosController"]


class ChaosController:
    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        rm: ResourceManager,
        shuffle: ShuffleServices,
        plan: FaultPlan,
        client=None,
    ):
        self.env = env
        self.cluster = cluster
        self.rm = rm
        self.shuffle = shuffle
        self.plan = plan
        self.client = client    # TezClient (optional): metrics mirroring
        self.rng = random.Random(plan.seed)
        self.injected: list[tuple[float, str, str]] = []
        self.counters: dict[str, int] = {k.value: 0 for k in FaultKind}
        self.process = env.process(self._run(), name="chaos-controller")

    @property
    def faults_injected(self) -> int:
        return sum(self.counters.values())

    # ------------------------------------------------------------ schedule
    def _run(self) -> Generator:
        ordered = sorted(
            enumerate(self.plan.faults),
            key=lambda pair: (pair[1].at, pair[0]),
        )
        for _, fault in ordered:
            if fault.at > self.env.now:
                yield self.env.timeout(fault.at - self.env.now)
            self._inject(fault)

    def _record(self, fault: Fault, detail: str) -> None:
        self.injected.append((self.env.now, fault.kind.value, detail))
        self.counters[fault.kind.value] += 1
        am = getattr(self.client, "last_am", None)
        if am is not None:
            am.registry.counter("faults_injected").inc()
        telemetry = get_telemetry(self.env)
        if telemetry is not None:
            telemetry.event("chaos.fault", fault=fault.kind.value,
                            detail=detail)
            telemetry.metrics.counter(
                f"chaos.{fault.kind.value}").inc()

    def _heal_later(self, delay: float, heal, name: str) -> None:
        def heal_process() -> Generator:
            yield self.env.timeout(delay)
            heal()

        self.env.process(heal_process(), name=name)

    def _live_am(self, shard: Optional[int] = None):
        """The attached client's current AM, while it is registered.
        With ``shard`` the lookup routes through the client's shard
        coordinator to that specific control-plane shard."""
        if shard is not None:
            coordinator = getattr(self.client, "coordinator", None)
            if coordinator is None:
                return None
            return coordinator.live_am(shard)
        am = getattr(self.client, "last_am", None)
        if am is not None and not am.ctx.unregistered:
            return am
        return None

    # ------------------------------------------------------ victim picking
    def _am_node_ids(self) -> set[str]:
        return {
            ctx.am_container.node_id
            for ctx in self.rm.am_service.live_contexts()
        }

    def _pick_node(self) -> Optional[str]:
        """Busiest live, reachable, non-AM node; seeded tie-break."""
        am_nodes = self._am_node_ids()
        pool = [
            n for n in self.cluster.nodes.values()
            if n.alive and not n.isolated and n.node_id not in am_nodes
        ]
        if not pool:
            pool = [n for n in self.cluster.nodes.values() if n.alive]
        if not pool:
            return None

        def load(node) -> int:
            return len(self.rm.node_managers[node.node_id].containers)

        top = max(load(n) for n in pool)
        busiest = sorted(n.node_id for n in pool if load(n) == top)
        return self.rng.choice(busiest)

    def _pick_rack(self) -> Optional[str]:
        """A rack not hosting any AM, when one exists."""
        am_racks = {
            self.cluster.nodes[nid].rack for nid in self._am_node_ids()
        }
        racks = [r for r in self.cluster.racks() if r not in am_racks]
        if not racks:
            racks = self.cluster.racks()
        return self.rng.choice(sorted(racks)) if racks else None

    # ------------------------------------------------------------ injection
    def _inject(self, fault: Fault) -> None:
        kind = fault.kind
        if kind == FaultKind.NODE_CRASH:
            self._inject_node_crash(fault)
        elif kind == FaultKind.NODE_RESTART:
            self._inject_node_restart(fault)
        elif kind == FaultKind.SLOW_NODE:
            self._inject_slow_node(fault)
        elif kind == FaultKind.RACK_OUTAGE:
            self._inject_rack_outage(fault)
        elif kind == FaultKind.LINK_DEGRADE:
            self._inject_link_degrade(fault)
        elif kind == FaultKind.SHUFFLE_OUTPUT_LOSS:
            self.env.process(
                self._hunt_spills(fault), name="chaos-spill-hunt"
            )
        elif kind == FaultKind.AM_CRASH:
            self._inject_am_crash(fault)

    def _inject_node_crash(self, fault: Fault) -> None:
        node_id = fault.node or self._pick_node()
        if node_id is None or not self.cluster.nodes[node_id].alive:
            return
        self.cluster.crash_node(node_id)
        self._record(fault, node_id)
        if fault.duration is not None:
            self._heal_later(
                fault.duration,
                lambda n=node_id: self.cluster.restart_node(n),
                name=f"chaos-heal:{node_id}",
            )

    def _inject_node_restart(self, fault: Fault) -> None:
        node_id = fault.node
        if node_id is None:
            dead = sorted(
                n.node_id for n in self.cluster.nodes.values()
                if not n.alive
            )
            node_id = dead[0] if dead else None
        if node_id is None:
            return
        self.cluster.restart_node(node_id)
        self._record(fault, node_id)

    def _inject_slow_node(self, fault: Fault) -> None:
        node_id = fault.node or self._pick_node()
        if node_id is None:
            return
        self.cluster.slow_node(node_id, fault.speed)
        self._record(fault, f"{node_id}@x{fault.speed}")
        if fault.duration is not None:
            self._heal_later(
                fault.duration,
                lambda n=node_id: self.cluster.slow_node(n, 1.0),
                name=f"chaos-unslow:{node_id}",
            )

    def _inject_rack_outage(self, fault: Fault) -> None:
        rack = fault.rack or self._pick_rack()
        if rack is None:
            return
        self.cluster.isolate_rack(rack)
        self._record(fault, rack)
        if fault.duration is not None:
            self._heal_later(
                fault.duration,
                lambda r=rack: self.cluster.restore_rack(r),
                name=f"chaos-heal-rack:{rack}",
            )

    def _inject_link_degrade(self, fault: Fault) -> None:
        rack_a, rack_b = fault.rack_a, fault.rack_b
        if rack_a is None or rack_b is None:
            racks = sorted(self.cluster.racks())
            if len(racks) < 2:
                return
            rack_a, rack_b = self.rng.sample(racks, 2)
        self.cluster.degrade_link(
            rack_a, rack_b,
            bandwidth_factor=fault.bandwidth_factor,
            loss_rate=fault.loss_rate,
            partitioned=fault.partitioned,
        )
        detail = f"{rack_a}<->{rack_b}"
        if fault.partitioned:
            detail += " partitioned"
        self._record(fault, detail)
        if fault.duration is not None:
            self._heal_later(
                fault.duration,
                lambda a=rack_a, b=rack_b: self.cluster.restore_link(a, b),
                name=f"chaos-heal-link:{rack_a}:{rack_b}",
            )

    def _hunt_spills(self, fault: Fault) -> Generator:
        """Drop matching shuffle outputs as they appear (poll until the
        hunt window closes — outputs may not exist at injection time)."""
        deadline = self.env.now + fault.wait
        dropped = 0
        while dropped < fault.count:
            for node_id in sorted(self.shuffle.services):
                service = self.shuffle.services[node_id]
                for spill_id in service.spill_ids():
                    if fault.pattern and fault.pattern not in spill_id:
                        continue
                    service.drop_spill(spill_id)
                    self._record(fault, f"{spill_id}@{node_id}")
                    dropped += 1
                    if dropped >= fault.count:
                        return
            if self.env.now >= deadline:
                return
            yield self.env.timeout(0.25)

    def _inject_am_crash(self, fault: Fault) -> None:
        """Crash the live AM attempt (or arm its dispatcher to crash it
        at an exact event boundary). There is no bare-cluster form: an
        AM the client does not know about has no journal to fence and
        no restart to recover through."""
        if fault.when_journaled is not None:
            self.env.process(
                self._journal_aimed_am_crash(fault),
                name=f"chaos-am-crash-watch:{fault.shard}",
            )
            return
        am = self._live_am(shard=fault.shard)
        if am is None:
            where = (
                f"shard {fault.shard}" if fault.shard is not None
                else "a live dispatcher-carrying AM"
            )
            raise RuntimeError(
                f"am_crash fault needs {where}: attach a TezClient "
                "(sim.chaos(plan, client=...)) and inject while an "
                "application is running"
            )
        node_id = am.ctx.am_container.node_id
        tag = f"am@{node_id}" if fault.shard is None \
            else f"am[shard{fault.shard}]@{node_id}"
        if fault.after_events is not None:
            am.dispatcher.halt_after(
                am.dispatcher.dispatched + fault.after_events, am.crash
            )
            self._record(fault, f"{tag}+{fault.after_events}ev")
            return
        am.crash()
        self._record(fault, tag)

    def _journal_aimed_am_crash(self, fault: Fault) -> Generator:
        """Self-aiming AM crash: poll the target shard's recovery
        journal and fire once it records ``when_journaled`` task
        successes for a DAG still in flight. The poll grid is fixed,
        so the firing instant is a pure function of simulation state —
        seeded reruns crash at the same boundary, and the crash always
        lands mid-DAG with real journaled work to recover."""
        coordinator = getattr(self.client, "coordinator", None)
        if coordinator is None:
            raise RuntimeError(
                "when_journaled am_crash needs a journal-carrying "
                "TezClient (sim.chaos(plan, client=...))"
            )
        journal = coordinator.shard(fault.shard or 0).journal
        while True:
            armed = any(
                len(state.successes) >= fault.when_journaled
                for state in journal.dags.values()
            )
            if armed:
                am = self._live_am(shard=fault.shard)
                if am is not None:
                    node_id = am.ctx.am_container.node_id
                    am.crash()
                    self._record(
                        fault,
                        f"am[shard{fault.shard}]@{node_id}"
                        f"+{fault.when_journaled}journaled",
                    )
                    return
            yield self.env.timeout(0.25)
