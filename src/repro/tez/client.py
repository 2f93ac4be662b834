"""TezClient: DAG submission, sessions, and pre-warming (paper 4.2).

Non-session mode launches one AM per DAG (like a single YARN app).
Session mode keeps one AM alive across a sequence of DAGs so containers
are reused *across* DAGs and can be pre-warmed before the first DAG
arrives — the mechanism behind Hive/Pig interactive sessions and
efficient iterative processing (paper Figure 7, Figure 11).

The control plane behind this facade is *sharded*: every AM is one
shard with its own dispatcher, machines, ask book and epoch-fenced
recovery journal, tracked by the client's
:class:`~repro.tez.coordinator.ShardCoordinator`. Non-session mode is
one ephemeral shard per DAG; session mode runs ``shards`` long-lived
session AMs with DAGs assigned round-robin by submission order
(``shards=1``, the default, is the historical single-session-AM
behavior, byte for byte).
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from ..hdfs import Hdfs
from ..shuffle import ShuffleServices
from ..sim import Environment, Store
from ..telemetry import get_telemetry
from ..yarn import FinalApplicationStatus, Resource, ResourceManager
from .am.dag_app_master import DAGAppMaster, DAGStatus, RecoveryJournal
from .am.structures import DAGState
from .config import TezConfig
from .coordinator import ShardCoordinator
from .dag import DAG
from .runtime import FrameworkServices

__all__ = ["TezClient", "DAGHandle"]

_STOP = object()


class DAGHandle:
    """Client-side handle for one submitted DAG."""

    def __init__(self, env: Environment, dag: DAG):
        self.env = env
        self.dag = dag
        self.completion = env.event()
        self.status: Optional[DAGStatus] = None

    def _finish(self, status: DAGStatus) -> None:
        self.status = status
        if not self.completion.triggered:
            self.completion.succeed(status)


def _take_owed(record) -> list:
    """The DAG handles a session shard owes - the one in flight, then
    its queue - taken off the shard."""
    owed = [msg for msg in record.requests.items
            if isinstance(msg, DAGHandle)]
    if record.inflight is not None:
        owed.insert(0, record.inflight)
        record.inflight = None
    record.requests.items.clear()
    return owed


def _execute_inflight(am, record) -> Generator:
    """Run a session shard's DAG in flight on ``am``, then let go of it
    and finish its handle."""
    handle = record.inflight
    status = yield from am.execute_dag(handle.dag)
    record.inflight = None
    handle._finish(status)


def _fail(app, handles: Iterable[DAGHandle]) -> None:
    """Fail every unfinished handle of ``handles``: ``app``, the AM
    application that owed them, has ended."""
    for handle in handles:
        if handle.status is None:
            handle._finish(DAGStatus(
                name=handle.dag.name,
                state=DAGState.FAILED,
                start_time=app.submit_time,
                finish_time=handle.env.now,
                diagnostics=f"application failed: {app.diagnostics}",
            ))


class _Prewarm:
    def __init__(self, count: int, capability: Resource):
        self.count = count
        self.capability = capability


class TezClient:
    def __init__(
        self,
        env: Environment,
        rm: ResourceManager,
        hdfs: Hdfs,
        shuffle: ShuffleServices,
        name: str = "tez",
        queue: str = "default",
        config: Optional[TezConfig] = None,
        session: bool = False,
        am_resource: Resource = Resource(2048, 1),
        am_max_attempts: int = 2,
        shards: int = 1,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.env = env
        self.rm = rm
        self.hdfs = hdfs
        self.shuffle = shuffle
        self.name = name
        self.queue = queue
        self.config = config or TezConfig()
        self.session = session
        self.am_resource = am_resource
        self.am_max_attempts = am_max_attempts
        self.shards = shards
        # Shard 0's journal, eagerly constructed: the historical
        # single-AM journal surface (`client.recovery`) every existing
        # caller — sweep, chaos, tests — reads.
        self.recovery = RecoveryJournal()
        self.coordinator = ShardCoordinator(self)
        self._requests: Store = Store(env)   # shard 0's session mailbox
        self._app_handle = None
        self._started = False
        self._stopped = False
        self.last_am: Optional[DAGAppMaster] = None
        telemetry = get_telemetry(env)
        if telemetry is not None:
            telemetry.attach_shards(name,
                                    self.coordinator.shard_summaries)

    # ------------------------------------------------------------- session
    def start(self) -> None:
        """Start the session AM shards (no-op for non-session
        clients). One YARN application per shard."""
        if not self.session or self._started:
            return
        self._started = True
        for shard_id in range(self.shards):
            record = self.coordinator.shard(shard_id)
            if shard_id == 0:
                record.requests = self._requests
            elif record.requests is None:
                record.requests = Store(self.env)
            app_name = (
                f"{self.name}-session" if self.shards == 1
                else f"{self.name}-shard{shard_id}"
            )
            record.app_handle = self.rm.submit_application(
                app_name,
                self._session_am,
                queue=self.queue,
                am_resource=self.am_resource,
                max_attempts=self.am_max_attempts,
            )
            self.coordinator.register_app(
                record.app_handle.app_id, shard_id
            )
            self._watch_app(record.app_handle,
                            lambda r=record: _take_owed(r))
        self._app_handle = self.coordinator.shard(0).app_handle

    def submit_dag(self, dag: DAG) -> DAGHandle:
        """Verify ``dag`` before anything launches; hand it to an AM."""
        if self._stopped:
            raise RuntimeError("client is stopped")
        dag.verify()
        handle = DAGHandle(self.env, dag)
        if self.session:
            self.start()
            record = self.coordinator.shard(self.coordinator.assign())
            if record.app_handle.completion.triggered:
                # The session application is gone for good; its last
                # attempt may still hold a get() on the mailbox, so the
                # DAG must not be queued there.
                _fail(record.app_handle, (handle,))
            else:
                record.requests.put(handle)
        else:
            shard_id = self.coordinator.allocate_ephemeral()
            app = self.rm.submit_application(
                f"{self.name}:{dag.name}",
                lambda ctx, h=handle: self._single_dag_am(ctx, h),
                queue=self.queue,
                am_resource=self.am_resource,
                max_attempts=self.am_max_attempts,
            )
            self.coordinator.register_app(app.app_id, shard_id)
            self._watch_app(app, lambda: (handle,))
        return handle

    def _watch_app(self, app, owed: Callable[[], Iterable[DAGHandle]]
                   ) -> None:
        """One watcher per AM application: once the application has
        ended, fail every DAG handle ``owed()`` gives that is still
        unfinished (the application died for good). A session's watcher
        holds no handle: ``owed`` reads the shard's queue then."""

        def watch() -> Generator:
            yield app.completion
            _fail(app, owed())

        self.env.process(watch(), name=f"watch:{app.name}")

    def run_dag(self, dag: DAG) -> Generator:
        """Process: submit and wait; returns the DAGStatus."""
        handle = self.submit_dag(dag)
        status = yield handle.completion
        return status

    def prewarm(self, count: int, memory_mb: int = 1024,
                vcores: int = 1) -> None:
        """Ask the session AM(s) to warm ``count`` containers up
        front (split round-robin across shards)."""
        if not self.session:
            raise RuntimeError("pre-warm requires session mode")
        self.start()
        per_shard = [count // self.shards] * self.shards
        for i in range(count % self.shards):
            per_shard[i] += 1
        for shard_id, n in enumerate(per_shard):
            if n > 0:
                self.coordinator.shard(shard_id).requests.put(
                    _Prewarm(n, Resource(memory_mb, vcores))
                )

    def stop(self) -> None:
        if self.session and self._started and not self._stopped:
            for record in self.coordinator.records():
                if record.requests is not None:
                    record.requests.put(_STOP)
        self._stopped = True

    # ------------------------------------------------------------ AM bodies
    def _make_am(self, ctx) -> DAGAppMaster:
        services = FrameworkServices(
            self.env, self.rm.cluster, self.hdfs, self.shuffle
        )
        shard_id = self.coordinator.shard_of(ctx.app_id)
        record = self.coordinator.shard(shard_id)
        am = DAGAppMaster(ctx, services, self.config,
                          recovery=record.journal, shard_id=shard_id)
        self.coordinator.on_am_created(am)
        self.last_am = am
        return am

    def _single_dag_am(self, ctx, handle: DAGHandle) -> Generator:
        am = self._make_am(ctx)
        try:
            status = yield from am.execute_dag(handle.dag)
        finally:
            am.shutdown()
        handle._finish(status)
        final = (
            FinalApplicationStatus.SUCCEEDED
            if status.succeeded
            else FinalApplicationStatus.FAILED
        )
        ctx.unregister(final, diagnostics=status.diagnostics, result=status)

    def _session_am(self, ctx) -> Generator:
        record = self.coordinator.shard(self.coordinator.shard_of(ctx.app_id))
        am = self._make_am(ctx)
        am.scheduler.session_waiting = True
        pending = None
        fenced = False
        try:
            # AM-restart recovery: finish the interrupted DAG first.
            if record.inflight is not None and ctx.attempt > 1:
                yield from _execute_inflight(am, record)
            while True:
                pending = record.requests.get()
                msg = yield pending
                pending = None
                if am.epoch != record.journal.current_epoch:
                    # Zombie: this attempt crashed while parked on the
                    # mailbox (the crash fenced the journal epoch, but
                    # the simulation generator lives on and its get was
                    # already enqueued). Hand the message back so the
                    # live successor's getter receives it, and walk away
                    # without touching shared per-app state.
                    record.requests.put_nowait(msg)
                    fenced = True
                    return
                if msg is _STOP:
                    break
                if isinstance(msg, _Prewarm):
                    am.scheduler.prewarm(msg.count, msg.capability)
                    continue
                # The shard, not this frame, holds the DAG while it
                # runs: a parked session keeps no finished DAG.
                record.inflight, msg = msg, None
                yield from _execute_inflight(am, record)
        finally:
            # An AM attempt dying while blocked on the mailbox (e.g. a
            # chaos crash between DAGs) must withdraw its pending get,
            # or the next put would hand the DAG to this dead attempt
            # and the successor AM would starve.
            if pending is not None and not pending.triggered:
                pending.cancel()
            if not fenced:
                # A fenced zombie must NOT run shutdown: it shares the
                # app id with the live successor attempt, and shutdown
                # deletes the app's shuffle state out from under it.
                am.shutdown()
        if not fenced:
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)
