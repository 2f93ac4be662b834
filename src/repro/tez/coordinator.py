"""The shard coordinator: cross-shard concerns of a sharded client.

The control plane shards per DAG (non-session mode: every DAG is its
own YARN app, its own AM, its own journal) or per DAG *partition*
(session mode with ``shards=N``: N long-lived session AMs, DAGs
assigned round-robin by submission order). Each shard owns the full
per-AM control plane — dispatcher, audited machines, task-scheduler
ask book, telemetry span scope — plus its own epoch-fenced
:class:`~repro.tez.am.journal.RecoveryJournal` keyed by shard id, so
concurrent AMs never fence each other and a shard's crash recovers
from *its* journal alone.

What stays deliberately cross-shard lives here, explicitly, instead of
as implicit globals on the client:

* **DAG -> shard assignment** (deterministic round-robin by submission
  order, so seeded reruns shard identically);
* **app -> shard resolution** (``shard_of``), stable across AM
  attempts because it is keyed by the YARN ``ApplicationId`` — the
  hook the chaos sweep uses to arm a crash on one shard of a
  multi-shard run;
* **chaos fault routing** (``live_am(shard)``) so an ``am_crash``
  fault can target a specific shard instead of assuming one global AM;
* **recovery accounting** — per-shard journal health
  (``fenced_appends``, checkpoints) and folded recovery counters
  (events replayed / tasks recovered / entries dropped) that survive
  individual AM attempts, surfaced by ``repro.telemetry.query
  --summary``.

Session container reuse stays *within* a shard (each session AM holds
its own container pool — YARN containers belong to one application),
and committer staging stays shared (HDFS paths are cluster-global);
both facts are part of this layer's contract, not accidents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .am.journal import RecoveryJournal

if TYPE_CHECKING:  # pragma: no cover
    from .am.dag_app_master import DAGAppMaster
    from .client import TezClient

__all__ = ["ShardRecord", "ShardCoordinator"]


class ShardRecord:
    """One shard's cross-attempt state."""

    def __init__(self, shard_id: int, journal: RecoveryJournal):
        self.shard_id = shard_id
        self.journal = journal
        self.requests = None          # session mode: per-shard mailbox
        self.app_handle = None        # session mode: the shard's app
        self.inflight = None          # DAGHandle being executed (if any)
        self.am: Optional["DAGAppMaster"] = None
        self.am_attempts = 0
        self.dags_assigned = 0
        # Recovery counters folded from *finished* AM attempts; the
        # live AM's registry is added on read (see summary()).
        self._folded = {"recovery.events_replayed": 0,
                        "recovery.tasks_recovered": 0,
                        "recovery.entries_dropped": 0}

    def _fold_am(self, am: "DAGAppMaster") -> None:
        for key in self._folded:
            self._folded[key] += int(am.registry.counter(key).value)

    def recovery_counters(self) -> dict:
        """Folded totals across every AM attempt of this shard."""
        totals = dict(self._folded)
        if self.am is not None:
            for key in totals:
                totals[key] += int(self.am.registry.counter(key).value)
        return totals

    def summary(self) -> dict:
        counters = self.recovery_counters()
        return {
            "shard": self.shard_id,
            "dags": self.dags_assigned,
            "am_attempts": self.am_attempts,
            "journal_records": len(self.journal),
            "fenced_appends": self.journal.fenced_appends,
            "checkpoints": self.journal.checkpoints,
            "events_replayed": counters["recovery.events_replayed"],
            "tasks_recovered": counters["recovery.tasks_recovered"],
            "entries_dropped": counters["recovery.entries_dropped"],
        }


class ShardCoordinator:
    """Cross-shard state of one :class:`TezClient`."""

    def __init__(self, client: "TezClient"):
        self.client = client
        self._records: dict[int, ShardRecord] = {}
        self._by_app: dict = {}       # ApplicationId -> shard id
        self._rr = 0                  # session round-robin cursor
        self._next_ephemeral = 0      # non-session: one shard per DAG

    # ------------------------------------------------------ shards
    @property
    def shards(self) -> int:
        return self.client.shards

    def shard(self, shard_id: int) -> ShardRecord:
        record = self._records.get(shard_id)
        if record is None:
            if shard_id == 0:
                # Shard 0's journal *is* the client's historical
                # ``recovery`` attribute — single-shard runs keep the
                # exact legacy journal surface.
                journal = self.client.recovery
            else:
                journal = RecoveryJournal(
                    checkpoint_interval=self.client.config
                    .journal_checkpoint_interval
                )
            record = ShardRecord(shard_id, journal)
            self._records[shard_id] = record
        return record

    def records(self) -> list[ShardRecord]:
        return [self._records[k] for k in sorted(self._records)]

    # ------------------------------------------------------ assignment
    def assign(self) -> int:
        """Round-robin the next session DAG onto a shard
        (deterministic in submission order)."""
        shard_id = self._rr % max(1, self.shards)
        self._rr += 1
        record = self.shard(shard_id)
        record.dags_assigned += 1
        return shard_id

    def allocate_ephemeral(self) -> int:
        """Non-session mode: every DAG's app is its own shard."""
        shard_id = self._next_ephemeral
        self._next_ephemeral += 1
        record = self.shard(shard_id)
        record.dags_assigned += 1
        return shard_id

    def register_app(self, app_id, shard_id: int) -> None:
        """Bind a YARN app to its shard (stable across AM attempts)."""
        self._by_app[app_id] = shard_id

    def shard_of(self, app_id) -> int:
        return self._by_app.get(app_id, 0)

    # ------------------------------------------------------ AM tracking
    def on_am_created(self, am: "DAGAppMaster") -> None:
        record = self.shard(am.shard_id)
        if record.am is not None:
            record._fold_am(record.am)
        record.am = am
        record.am_attempts += 1

    def live_am(self, shard: Optional[int] = None
                ) -> Optional["DAGAppMaster"]:
        """The live AM of ``shard`` (or of the single shard when only
        one exists); None if that shard has no registered AM."""
        if shard is None:
            live = self.live_ams()
            return live[-1] if live else None
        record = self._records.get(shard)
        am = record.am if record is not None else None
        if (
            am is not None
            and not am.ctx.unregistered
            and am.dispatcher is not None
        ):
            return am
        return None

    def live_ams(self) -> list["DAGAppMaster"]:
        return [
            record.am for record in self.records()
            if record.am is not None and not record.am.ctx.unregistered
        ]

    # ------------------------------------------------------ telemetry
    def shard_summaries(self) -> list[dict]:
        return [record.summary() for record in self.records()]

    def template_summaries(self) -> list[dict]:
        """Always empty: there is no template cache. Read by
        ``benchmarks/ledger/run.py``; goes when the ledger stops
        reading it."""
        return []
