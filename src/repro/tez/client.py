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
one ephemeral shard per DAG, whose in-flight DAG is set at submission;
session mode runs ``shards`` long-lived session AMs with DAGs assigned
round-robin by submission order (``shards=1``, the default, is the
historical single-session-AM behavior, byte for byte). Both run the
one AM body: every attempt first runs its shard's in-flight DAG, and a
session then serves its mailbox. The client keeps no alias of any
shard's state.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from ..hdfs import Hdfs
from ..shuffle import ShuffleServices
from ..sim import Environment, Store
from ..telemetry import get_telemetry
from ..yarn import FinalApplicationStatus, Resource, ResourceManager
from .am.dag_app_master import DAGAppMaster, DAGStatus
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
    """The DAG handles a shard owes - the one in flight, then its
    session queue - taken off the shard."""
    owed = [] if record.inflight is None else [record.inflight]
    record.inflight = None
    if record.requests is not None:
        owed += [msg for msg in record.requests.items
                 if isinstance(msg, DAGHandle)]
        record.requests.items.clear()
    return owed


def _run_inflight(am, record) -> Generator:
    """Run a shard's DAG in flight on ``am``, then let go of it;
    returns its handle and status."""
    handle = record.inflight
    status = yield from am.execute_dag(handle.dag)
    record.inflight = None
    return handle, status


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
        self.coordinator = ShardCoordinator(self)
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
            record.requests = Store(self.env)
            self._launch(record, f"{self.name}-session" if self.shards == 1
                         else f"{self.name}-shard{shard_id}")

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
            record = self.coordinator.allocate_ephemeral()
            record.inflight = handle
            self._launch(record, f"{self.name}:{dag.name}")
        return handle

    def _launch(self, record, app_name: str) -> None:
        """Submit ``record``'s AM application, bind it to the shard and
        watch it: once the application has ended (it died for good),
        fail every DAG handle the shard still owes. The watcher holds
        no handle; it reads what is owed then."""
        app = record.app_handle = self.rm.submit_application(
            app_name,
            self._am,
            queue=self.queue,
            am_resource=self.am_resource,
            max_attempts=self.am_max_attempts,
        )
        self.coordinator.register_app(app.app_id, record.shard_id)

        def watch() -> Generator:
            yield app.completion
            _fail(app, _take_owed(record))

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

    # ------------------------------------------------------------- AM body
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

    def _am(self, ctx) -> Generator:
        """The one AM body, for a one-shot app and a session shard
        alike. Every attempt first runs its shard's DAG in flight: a
        one-shot app's only DAG, or the one a crashed session attempt
        was running. A one-shot app then ends with that DAG's status;
        a session serves its mailbox until it is stopped."""
        record = self.coordinator.shard(self.coordinator.shard_of(ctx.app_id))
        am = self._make_am(ctx)
        am.scheduler.session_waiting = self.session
        handle = status = pending = None
        fenced = False
        try:
            if record.inflight is not None:
                handle, status = yield from _run_inflight(am, record)
            while self.session:
                if handle is not None:
                    # A parked session keeps no finished DAG.
                    handle._finish(status)
                    handle = None
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
                # The shard, not this frame, holds the DAG while it runs.
                record.inflight, msg = msg, None
                handle, status = yield from _run_inflight(am, record)
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
        if self.session:
            ctx.unregister(FinalApplicationStatus.SUCCEEDED)
            return
        # One-shot: the handle is finished after the AM's shutdown, and
        # the app ends with the DAG's status. That order fixes which of
        # their same-time events run first.
        handle._finish(status)
        ctx.unregister(
            FinalApplicationStatus.SUCCEEDED if status.succeeded
            else FinalApplicationStatus.FAILED,
            diagnostics=status.diagnostics, result=status,
        )
