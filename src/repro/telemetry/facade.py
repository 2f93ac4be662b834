"""The Telemetry facade: one object bundling log, tracer, metrics
and the timeline store, installed onto the simulation Environment.

Deep leaf objects (fetchers, node managers, the YARN scheduler) reach
telemetry ambiently through the environment they already hold::

    tel = get_telemetry(env)
    if tel is not None:
        tel.event("shuffle.fetch_retry", spill=..., backoff=...)

so the whole layer is optional: simulations built without a
:class:`Telemetry` (raw ``Environment`` unit tests) pay only a
``getattr`` per emission site.

Storage: the system of record is the write-once on-disk
:class:`~repro.telemetry.store.SpanStore` (``self.spanstore``) —
spans and events stream through its ring buffers into a private spool,
and per-DAG summaries / critical paths are maintained incrementally by
the :class:`RollupEngine` at span-close time. The
:class:`TimelineStore` query API (``self.store``) reads back through
the spool transparently. :meth:`Telemetry.persist_store` lands the run
once, as one directory - dimension-partitioned segments, and a
manifest that also carries the kernel counters, the shard summaries
and the rollups - and ends the recording.
"""

from __future__ import annotations

from typing import Callable, Optional

from .events import EventLog
from .metrics import MetricsRegistry
from .rollups import _INTERESTING, RollupEngine
from .spans import Span, Tracer
from .store import SpanStore
from .timeline import TimelineStore

__all__ = ["Telemetry", "get_telemetry"]


def get_telemetry(env) -> Optional["Telemetry"]:
    """The telemetry installed on this environment, if any.

    Returns ``None`` when no telemetry is installed *or* the installed
    one is disabled, so every emission site's ``if tel is not None``
    guard doubles as the fast path: a disabled simulation pays two
    attribute reads per site and allocates nothing.
    """
    tel = getattr(env, "telemetry", None)
    if tel is not None and not tel.enabled:
        return None
    return tel


class Telemetry:
    def __init__(self, env=None, enabled: bool = True,
                 store_opts: Optional[dict] = None):
        self.env = env
        # Hot-path kill switch: when False, get_telemetry() reports no
        # telemetry and event/span/finish return without recording.
        # Decided at construction (``sim.processes_started`` is only
        # registered for enabled telemetry); persist_store() turns it
        # off for good.
        self.enabled = enabled
        # store_opts: the ring sizes, ``ring_spans`` / ``ring_events``.
        self.spanstore = SpanStore(**(store_opts or {}))
        self.rollups = RollupEngine()
        self.log = EventLog(sink=self.spanstore)
        self.tracer = Tracer(env=env, sink=self.spanstore)
        self.metrics = MetricsRegistry()
        self.store = TimelineStore(self.log, self.tracer,
                                   spanstore=self.spanstore)
        # Registries of individual components (e.g. one per AM attempt)
        # attached for discovery/export alongside the global registry.
        self.registries: dict[str, MetricsRegistry] = {}
        # Control-plane shard-summary suppliers (one per sharded
        # client); sampled at persist time into the manifest.
        self._shard_suppliers: list[tuple[str, Callable]] = []
        if env is not None:
            self.install(env)

    # -- wiring ---------------------------------------------------------
    def install(self, env) -> None:
        """Become the ambient telemetry of ``env``."""
        self.env = env
        self.tracer.env = env
        env.telemetry = self
        if self.enabled:
            # The kernel counts its processes itself; the metric reads
            # that integer instead of being called once per process.
            self.metrics.read_counter(
                "sim.processes_started", lambda: env.processes_started)

    def attach_registry(self, name: str,
                        registry: MetricsRegistry) -> MetricsRegistry:
        self.registries[name] = registry
        return registry

    def attach_shards(self, name: str,
                      supplier: Callable[[], list]) -> None:
        """Register a control-plane shard-summary supplier (a sharded
        :class:`~repro.tez.client.TezClient` registers its
        coordinator's ``shard_summaries``). Sampled once, at
        :meth:`persist_store` time, into the manifest's ``shards``."""
        self._shard_suppliers.append((name, supplier))

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> int:
        """Spool the ring buffers (see :meth:`SpanStore.flush`)."""
        return self.spanstore.flush()

    def close(self) -> None:
        """End a run that is not persisted (see :meth:`SpanStore.close`)."""
        self.spanstore.close()

    def persist_store(self, target_dir: str) -> str:
        """Land the run in ``target_dir`` - segments, and a manifest
        carrying the kernel counters, shard summaries and per-DAG
        rollups - and end the recording. Spans still open (e.g. the
        session span) are stored as they stand, so the store is as
        lossless as the JSONL export. Afterwards this telemetry is
        disabled and its store sealed: a simulation that runs on records
        nothing and leaves the directory as it is, and a second call
        raises."""
        for span in self.tracer.open_spans():
            self.spanstore.add_span(span.record())
        target = self.spanstore.persist(target_dir, self._run())
        self.enabled = False
        return target

    def _run(self) -> dict:
        """What the manifest says about the run: the DES kernel's
        scheduling counters (event-plane volume, for ``query
        --summary``), every registered shard supplier's summaries, and
        the rollup of every closed DAG."""
        env = self.env
        kernel = None if env is None else {
            "heap_pushes": env.heap_pushes,
            "pool_reuse": env.pool_reuse,
            "processes_started": env.processes_started,
        }
        shards = [{"client": name, **summary}
                  for name, supplier in self._shard_suppliers
                  for summary in supplier()]
        rollups = {dag_id: self.rollups.payload(dag_id)
                   for dag_id in self.rollups.dag_ids()
                   if self.rollups.get(dag_id).closed}
        return {"kernel": kernel, "shards": shards, "rollups": rollups}

    # -- emission -------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def event(self, kind: str, ts: Optional[float] = None, **attrs) -> None:
        if not self.enabled:
            return
        if ts is None:
            env = self.env
            ts = env.now if env is not None else 0.0
        self.log.emit(kind, ts, attrs)
        if kind in _INTERESTING:
            self.rollups.on_event(kind, ts, attrs)

    def span(self, kind: str, name: str, parent=None,
             ts: Optional[float] = None, **attrs) -> Optional[Span]:
        if not self.enabled:
            return None
        if ts is None:
            env = self.env
            ts = env.now if env is not None else 0.0
        return self.tracer._start(kind, name, parent, ts, attrs)

    def finish(self, span: Optional[Span], ts: Optional[float] = None,
               **attrs) -> Optional[Span]:
        if not self.enabled or span is None:
            return None
        if span.end is not None:
            if attrs:
                span.attrs.update(attrs)
            return span
        if ts is None:
            env = self.env
            ts = env.now if env is not None else 0.0
        # Close inline (the facade's tracer is always sink-backed):
        # stamp, hand the record to the store, fold the rollups - which
        # fold attempt, vertex and dag spans only.
        span.end = ts
        if attrs:
            span.attrs.update(attrs)
        self.tracer._by_id.pop(span.span_id, None)
        self.spanstore.add_span(span.record())
        if span.kind in ("attempt", "vertex", "dag"):
            self.rollups.on_span_closed(span)
        return span
