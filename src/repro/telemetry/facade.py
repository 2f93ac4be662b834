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

Storage: the system of record is the partitioned on-disk
:class:`~repro.telemetry.store.SpanStore` (``self.spanstore``) —
spans and events stream through its ring buffers into
dimension-partitioned segments, and per-DAG summaries / critical paths
are maintained incrementally by the :class:`RollupEngine` at
span-close time. The :class:`TimelineStore` query API (``self.store``)
is unchanged and reads back through the segments transparently.
"""

from __future__ import annotations

import json
import os
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
        # Decided at construction: ``sim.processes_started`` is only
        # registered for enabled telemetry.
        self.enabled = enabled
        opts = dict(store_opts or {})
        opts.setdefault("on_overflow", self._on_ring_overflow)
        self.spanstore = SpanStore(**opts)
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
        # client); sampled at persist time into <store>/shards.json.
        self._shard_suppliers: list[tuple[str, Callable]] = []
        self._dropped_synced = (0, 0)
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
        :meth:`persist_store` time, into ``shards.json`` at the store
        root — next to the manifest, *not* under ``rollups/`` (rollup
        payloads are indexed by ``dag_id``)."""
        self._shard_suppliers.append((name, supplier))

    def _on_ring_overflow(self, which: str, capacity: int) -> None:
        # Lossy-mode ring overflow (edge-triggered once per episode):
        # account the loss and put a control event on the record so it
        # is never silent. Control events use the ring's reserve slots,
        # so this cannot recurse.
        self._sync_dropped()
        self.log.emit("telemetry.backpressure", self.now, {
            "ring": which, "capacity": capacity,
            "policy": self.spanstore.overflow,
            "dropped_spans": self.spanstore.dropped_spans,
            "dropped_events": self.spanstore.dropped_events,
        }, control=True)

    def _sync_dropped(self) -> None:
        spans, events = self.spanstore.dropped_spans, \
            self.spanstore.dropped_events
        seen_spans, seen_events = self._dropped_synced
        if spans > seen_spans:
            self.metrics.counter("telemetry.dropped_spans").inc(
                spans - seen_spans)
        if events > seen_events:
            self.metrics.counter("telemetry.dropped_events").inc(
                events - seen_events)
        self._dropped_synced = (spans, events)

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> int:
        """Drain the ring buffers to partitioned segments."""
        written = self.spanstore.flush()
        self._sync_dropped()
        return written

    def close(self) -> None:
        """Flush and seal the store (manifest marked closed)."""
        self.spanstore.close()
        self._sync_dropped()

    def persist_store(self, target_dir: str) -> str:
        """Land the full partitioned store — segments, manifest and
        per-DAG rollups — in ``target_dir``. Spans still open (e.g. the
        session span) are included as snapshots so the store is as
        lossless as the JSONL export; a span that closes afterwards
        replaces its snapshot."""
        for span in self.tracer.open_spans():
            self.spanstore.add_snapshot(span.record())
        for dag_id in self.rollups.dag_ids():
            roll = self.rollups.get(dag_id)
            if roll is not None and roll.closed:
                self.spanstore.write_rollup(dag_id,
                                            self.rollups.payload(dag_id))
        self._sync_dropped()
        path = self.spanstore.persist(target_dir)
        self._write_shards(path)
        self._write_kernel(path)
        return path

    def _write_kernel(self, store_dir: str) -> None:
        """Snapshot the DES kernel's scheduling counters into
        ``<store_dir>/kernel.json`` so ``query --summary`` reports
        event-plane volume (heap pushes, pooled-event reuse, processes
        started) next to the DAG rollups."""
        env = self.env
        if env is None or not hasattr(env, "heap_pushes"):
            return
        payload = {
            "heap_pushes": env.heap_pushes,
            "pool_reuse": getattr(env, "pool_reuse", 0),
            "processes_started": getattr(env, "processes_started", 0),
        }
        out = os.path.join(store_dir, "kernel.json")
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, out)

    def _write_shards(self, store_dir: str) -> None:
        """Sample every registered shard supplier into
        ``<store_dir>/shards.json`` (skipped when none registered, so
        unsharded stores are unchanged on disk)."""
        shards = []
        for name, supplier in self._shard_suppliers:
            for summary in supplier():
                shards.append({"client": name, **summary})
        if not shards:
            return
        out = os.path.join(store_dir, "shards.json")
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"shards": shards}, fh, indent=1, sort_keys=True)
        os.replace(tmp, out)

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
