"""Tez framework configuration (the knobs of paper section 4)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TezConfig"]


@dataclass
class TezConfig:
    # -- fault tolerance -----------------------------------------------------
    max_task_attempts: int = 4

    # -- node blacklisting (paper 4.3) ----------------------------------------
    # A node accumulating this many task failures (app errors or lost
    # containers) is blacklisted: the AM stops placing work there. The
    # failsafe disables blacklisting when more than the given fraction
    # of the cluster is blacklisted — at that point the failures are
    # probably the job's fault, not the machines'.
    node_blacklisting_enabled: bool = True
    node_max_task_failures: int = 3
    blacklist_disable_fraction: float = 0.33

    # -- container reuse / sessions (paper 4.2) ------------------------------
    container_reuse: bool = True
    reuse_rack_fallback: bool = True
    reuse_any_fallback: bool = True
    container_idle_timeout: float = 10.0
    session_idle_timeout: float = 60.0   # idle cap while a session waits

    # -- speculation (paper 4.2) ----------------------------------------------
    speculation_enabled: bool = False
    speculation_min_completed: int = 3
    speculation_slowdown_factor: float = 1.5
    speculation_check_interval: float = 2.0

    # -- deadlock handling (paper 3.4) ------------------------------------------
    deadlock_check_interval: float = 10.0
    deadlock_pending_timeout: float = 30.0

    # -- recovery journal (paper 4.3) ----------------------------------------
    # Accepted journal appends between checkpoint compactions: every
    # interval the record prefix is folded into one checkpoint record
    # (per-DAG successes + completed vertices), bounding the log on
    # long sessions while keeping replay semantics identical.
    journal_checkpoint_interval: int = 4096

    def __post_init__(self):
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        if self.journal_checkpoint_interval < 2:
            raise ValueError("journal_checkpoint_interval must be >= 2")
        if self.speculation_slowdown_factor <= 1.0:
            raise ValueError("speculation_slowdown_factor must exceed 1.0")
        if self.node_max_task_failures < 1:
            raise ValueError("node_max_task_failures must be >= 1")
        if not 0 < self.blacklist_disable_fraction <= 1.0:
            raise ValueError(
                "blacklist_disable_fraction must be in (0, 1]"
            )
