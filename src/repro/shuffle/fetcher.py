"""Fetcher: the consumer side of the shuffle data plane.

Implements the MapReduce-inherited robustness heuristics the paper
describes (section 4.3): transient network errors are retried with
back-off before an error is reported; a permanent failure raises
:class:`FetchFailure` carrying the spill reference so the caller can
emit an InputReadError event and trigger producer re-execution.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from ..cluster import Cluster, ClusterSpec
from ..sim import Environment, Interrupt
from ..telemetry.spans import Span
from ..yarn.security import Token
from .service import ShuffleServices, SpillLost, SpillRef

__all__ = ["Fetcher", "FetchFailure", "TransientFetchError"]


class FetchFailure(Exception):
    """Permanent inability to fetch a spill partition."""

    def __init__(self, ref: SpillRef, reason: str):
        super().__init__(f"{ref}: {reason}")
        self.ref = ref
        self.reason = reason


class TransientFetchError(Exception):
    """Injected network blip (retried internally)."""


class Fetcher:
    """Fetches spill partitions for one consumer task."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        services: ShuffleServices,
        app_id: str,
        reader_node: str,
        job_token: Optional[Token] = None,
        rng: Optional[random.Random] = None,
        spec: Optional[ClusterSpec] = None,
        owner: str = "",
    ):
        self.env = env
        self.cluster = cluster
        self.services = services
        self.app_id = app_id
        self.reader_node = reader_node
        self.job_token = job_token
        self.spec = spec or cluster.spec
        # Drawn from only on an injected error or a back-off: seeded
        # on first use (see ``rng``), not once per consumer input.
        self._rng = rng
        # Attempt id of the consumer task, for timeline attribution.
        # The owning dag never changes for a fetcher's lifetime, and
        # the span site runs once per fetch — split it up front.
        self.owner = owner
        self._owner_dag = owner.split("/", 1)[0] if "/" in owner else ""
        self.bytes_fetched = 0
        self.fetch_count = 0
        self.retries = 0

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self.cluster.spec.seed)
        return self._rng

    def _backoff(self, attempts: int) -> float:
        """Exponential backoff with seeded jitter, capped per retry."""
        base = self.spec.shuffle_retry_backoff * (2 ** (attempts - 1))
        capped = min(base, self.spec.shuffle_retry_backoff_cap)
        return capped * (0.5 + self.rng.random())   # jitter in [0.5, 1.5)

    def fetch(self, ref: SpillRef) -> Generator:
        """Process: fetch one partition; returns the records.

        Charges connection latency + locality-dependent transfer time.
        Transient errors (the configured blip rate plus any flaky-link
        loss rate) are retried with exponential backoff and seeded
        jitter. A partitioned network link makes the connection hang
        for ``shuffle_fetch_timeout`` per attempt; once retries or the
        total retry-time budget (``shuffle_retry_total_timeout``) are
        exhausted the fetch escalates to :class:`FetchFailure`, as does
        a spill whose data is gone.

        One frame per fetch (this generator, nothing delegated to) and,
        with telemetry, one ``fetch`` span built in place: the record
        ``Telemetry.span`` / ``finish`` would make - the next span id,
        no parent, attrs ``node, source, owner, dag, nbytes`` and then
        ``outcome`` - and, while in flight, in the tracer's open set.
        It closes ``ok``, ``failed`` or, when an :class:`Interrupt`
        (the owning attempt killed) runs through it, ``killed`` at that
        instant; a fetch the simulation ends in stays open.
        """
        env = self.env
        spec = self.spec
        now = env.now
        # get_telemetry(env), in this frame.
        telemetry = env.telemetry
        if telemetry is not None and not telemetry.enabled:
            telemetry = None
        span = None
        if telemetry is not None:
            tracer = telemetry.tracer
            tracer._count = span_id = tracer._count + 1
            # Field by field rather than Span(...): no __init__ frame.
            span = Span.__new__(Span)
            span.span_id = span_id
            span.kind = "fetch"
            span.name = name = f"{ref.spill_id}:p{ref.partition}"
            span.start = now
            span.end = span.parent_id = None
            span.attrs = attrs = {
                "node": self.reader_node, "source": ref.node_id,
                "owner": self.owner, "dag": self._owner_dag,
                "nbytes": ref.nbytes}
            tracer._by_id[span_id] = span
        try:
            attempts = 0
            deadline = now + spec.shuffle_retry_total_timeout
            while True:
                attempts += 1
                yield env.timeout(spec.shuffle_connection_latency)
                # A partitioned link: the connection hangs, then times out.
                if self.cluster.link_partitioned(ref.node_id,
                                                 self.reader_node):
                    yield env.timeout(spec.shuffle_fetch_timeout)
                    self._note_retry(ref, telemetry, "partition_timeout",
                                     attempts)
                    if (
                        attempts > spec.shuffle_max_retries
                        or env.now >= deadline
                    ):
                        raise FetchFailure(
                            ref,
                            f"fetch timed out after {attempts} attempts "
                            f"(network partition)",
                        )
                    yield env.timeout(self._backoff(attempts))
                    continue
                # Transient error injection (network blips / flaky links).
                error_rate = (
                    spec.shuffle_transient_error_rate
                    + self.cluster.link_loss_rate(ref.node_id,
                                                  self.reader_node)
                )
                if (
                    error_rate > 0
                    and self.rng.random() < error_rate
                    and attempts <= spec.shuffle_max_retries
                    and env.now < deadline
                ):
                    self._note_retry(ref, telemetry, "transient_error",
                                     attempts)
                    yield env.timeout(self._backoff(attempts))
                    continue
                try:
                    records = self.services.services[ref.node_id].fetch(
                        ref.spill_id, ref.partition, self.app_id,
                        self.job_token
                    )
                except SpillLost as exc:
                    raise FetchFailure(ref, str(exc)) from exc
                yield env.timeout(self.cluster.transfer_time(
                    ref.nbytes, ref.node_id, self.reader_node
                ))
                break
        except FetchFailure as exc:
            if telemetry is not None:
                telemetry.event(
                    "shuffle.fetch_failed", owner=self.owner,
                    dag=self._owner_dag, source=ref.node_id,
                    reason=exc.reason,
                )
                telemetry.metrics.counter("shuffle.fetch_failures").inc()
                _close(telemetry, span, "failed")
            raise
        except Interrupt:
            if span is not None:
                _close(telemetry, span, "killed")
            raise
        self.bytes_fetched += ref.nbytes
        self.fetch_count += 1
        if span is not None:
            span.end = end = env.now
            attrs["outcome"] = "ok"
            del tracer._by_id[span_id]
            telemetry.spanstore.add_span(
                (span_id, "fetch", name, now, end, None, attrs))
        return list(records)

    def _note_retry(self, ref: SpillRef, telemetry, reason: str,
                    attempts: int) -> None:
        self.retries += 1
        if telemetry is not None:
            telemetry.event(
                "shuffle.fetch_retry", owner=self.owner,
                dag=self._owner_dag, source=ref.node_id,
                reason=reason, attempt=attempts,
            )
            telemetry.metrics.counter("shuffle.retries").inc()


def _close(telemetry, span: Span, outcome: str) -> None:
    """Close a fetch span off the hot path (a failure or a kill)."""
    span.end = telemetry.now
    span.attrs["outcome"] = outcome
    del telemetry.tracer._by_id[span.span_id]
    telemetry.spanstore.add_span(span.record())
