"""Cluster cost-model specification.

Every simulated latency in the system derives from a :class:`ClusterSpec`.
The defaults approximate a 2014-era Hadoop node (the paper's testbeds:
16 cores, 24-256 GB RAM, 6 SATA drives, 1-10 GbE) and the well-known
YARN overheads the paper's optimizations target: container allocation
round trips, process launch, and JVM warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ClusterSpec"]

MB = 1024 * 1024
GB = 1024 * MB


@dataclass
class ClusterSpec:
    """All tunables of the simulated cluster, in seconds / bytes."""

    # -- topology -------------------------------------------------------
    num_nodes: int = 20
    nodes_per_rack: int = 10
    cores_per_node: int = 16
    memory_per_node_mb: int = 256 * 1024

    # -- storage / network bandwidths (bytes/sec) -----------------------
    disk_read_bw: float = 400 * MB       # aggregate across spindles
    disk_write_bw: float = 300 * MB
    memory_read_bw: float = 4 * 1024 * MB  # HDFS in-memory tier (§7)
    net_bw_same_rack: float = 120 * MB   # ~1 GbE effective
    net_bw_cross_rack: float = 60 * MB   # oversubscribed core

    # -- per-operation latencies (seconds) ------------------------------
    rpc_latency: float = 0.002           # one RPC hop
    heartbeat_interval: float = 0.5      # task/NM <-> AM/RM heartbeats
    container_allocate_overhead: float = 1.0   # RM negotiation round trips
    container_launch_overhead: float = 2.5     # localization + process start
    am_launch_overhead: float = 4.0      # submit + scheduling + AM start
    shuffle_connection_latency: float = 0.05   # per fetch connection

    # -- JVM warm-up model ----------------------------------------------
    # Fresh containers execute application code this many times slower
    # until `jit_warmup_work` seconds of compute have been burned; reused
    # (or pre-warmed) containers run at full speed.  This is the effect
    # container reuse and sessions exploit (paper section 4.2).
    jit_slowdown: float = 1.8
    jit_warmup_work: float = 3.0

    # -- compute cost (seconds per unit) ---------------------------------
    cpu_cost_per_record: float = 1.0e-6  # per record per operator
    sort_cost_factor: float = 2.5        # multiplier on cpu cost for sorts

    # -- reliability ------------------------------------------------------
    shuffle_transient_error_rate: float = 0.0  # probability per fetch
    shuffle_max_retries: int = 3
    shuffle_retry_backoff: float = 0.5         # base of the exponential backoff
    shuffle_retry_backoff_cap: float = 5.0     # per-retry wait ceiling
    shuffle_retry_total_timeout: float = 20.0  # total retry budget per fetch
    shuffle_fetch_timeout: float = 1.5         # hang time on a partitioned link
    node_liveness_timeout: float = 2.0         # missed-heartbeat window -> LOST

    # -- misc --------------------------------------------------------------
    hdfs_replication: int = 3
    hdfs_block_size: int = 128 * MB
    seed: int = 17

    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.nodes_per_rack < 1:
            raise ValueError("nodes_per_rack must be >= 1")
        if self.hdfs_replication < 1:
            raise ValueError("hdfs_replication must be >= 1")
        if self.node_liveness_timeout <= 0:
            raise ValueError("node_liveness_timeout must be > 0")
        if self.shuffle_retry_total_timeout <= 0:
            raise ValueError("shuffle_retry_total_timeout must be > 0")

    @property
    def num_racks(self) -> int:
        full, rem = divmod(self.num_nodes, self.nodes_per_rack)
        return full + (1 if rem else 0)

    def transfer_time(self, nbytes: int, locality: str,
                      storage: str = "disk") -> float:
        """Seconds to move ``nbytes`` given the data locality.

        ``locality`` is one of ``"local"``, ``"rack"``, ``"remote"``.
        ``storage`` is ``"disk"`` or ``"memory"`` (the HDFS in-memory
        tier of paper section 7): local reads hit the medium directly;
        rack/remote reads pay medium + network at the slower pipeline.
        """
        if nbytes <= 0:
            return 0.0
        medium_bw = (
            self.memory_read_bw if storage == "memory"
            else self.disk_read_bw
        )
        if locality == "local":
            return nbytes / medium_bw
        if locality == "rack":
            bw = min(medium_bw, self.net_bw_same_rack)
        elif locality == "remote":
            bw = min(medium_bw, self.net_bw_cross_rack)
        else:
            raise ValueError(f"unknown locality {locality!r}")
        return nbytes / bw

    def compute_time(self, records: int, passes: float = 1.0) -> float:
        """Seconds of raw CPU for ``records`` records × ``passes``."""
        return max(0.0, records) * self.cpu_cost_per_record * passes

    def sort_time(self, records: int) -> float:
        return self.compute_time(records, passes=self.sort_cost_factor)

    def scaled(self, **overrides) -> "ClusterSpec":
        """A copy with some fields overridden."""
        fields = {k: getattr(self, k) for k in self.__dataclass_fields__}
        fields.update(overrides)
        return ClusterSpec(**fields)
