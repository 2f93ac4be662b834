"""Convenience harness: one object wiring the whole simulated stack.

Bundles the DES environment, cluster, YARN RM, HDFS and the shuffle
services so examples, tests and benchmarks start from one line::

    sim = SimCluster(num_nodes=20)
    client = sim.tez_client(session=True)
"""

from __future__ import annotations

from typing import Optional

from .chaos import ChaosController, FaultPlan
from .cluster import Cluster, ClusterSpec
from .hdfs import Hdfs
from .shuffle import ShuffleServices
from .sim import Environment
from .telemetry import Telemetry
from .tez import TezClient, TezConfig
from .yarn import QueueConfig, ResourceManager

__all__ = ["SimCluster"]


class SimCluster:
    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        queues: Optional[list[QueueConfig]] = None,
        secure: bool = True,
        preemption_enabled: bool = False,
        telemetry: bool = True,
        telemetry_opts: Optional[dict] = None,
        **spec_overrides,
    ):
        if spec is None:
            spec = ClusterSpec(**spec_overrides)
        elif spec_overrides:
            spec = spec.scaled(**spec_overrides)
        self.spec = spec
        self.env = Environment()
        # ``telemetry=False`` turns observability into a no-op for
        # perf-sensitive runs: spans/events are skipped at every
        # emission site (see telemetry.facade.get_telemetry).
        # ``telemetry_opts`` sizes the span store's rings
        # (``ring_spans`` / ``ring_events`` - see
        # telemetry.store.SpanStore).
        self.telemetry = Telemetry(self.env, enabled=telemetry,
                                   store_opts=telemetry_opts)
        self.cluster = Cluster(self.env, spec)
        self.rm = ResourceManager(
            self.env, self.cluster, queues=queues, secure=secure,
            preemption_enabled=preemption_enabled,
        )
        self.hdfs = Hdfs(self.cluster)
        self.shuffle = ShuffleServices(self.cluster, self.rm.security)

    def tez_client(self, name: str = "tez", queue: str = "default",
                   config: Optional[TezConfig] = None,
                   session: bool = False, **kwargs) -> TezClient:
        return TezClient(
            self.env, self.rm, self.hdfs, self.shuffle,
            name=name, queue=queue, config=config, session=session,
            **kwargs,
        )

    def chaos(self, plan: FaultPlan, client=None) -> ChaosController:
        """Start executing a fault plan against this simulation.

        Pass the :class:`TezClient` driving the workload so chaos
        counters are mirrored into its AM's metrics and the AM's own
        node is spared from random victim selection."""
        return ChaosController(
            self.env, self.cluster, self.rm, self.shuffle, plan,
            client=client,
        )

    def run(self, until=None):
        return self.env.run(until=until)

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def timeline(self):
        """Query surface over this simulation's telemetry timeline."""
        return self.telemetry.store
