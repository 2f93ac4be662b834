"""The shuffle fetch path against a frozen copy of the one it replaced.

Until commit b8a8a0f a fetch was two generator frames (``Fetcher.fetch``
delegating to ``Fetcher._fetch``) and its span went through the
telemetry facade (``Telemetry.span`` -> ``Tracer._start``, then
``Telemetry.finish``). Now ``Fetcher.fetch`` is the one frame and builds
the span's store record in place. ``_FrozenFetcher`` and the
``_frozen_*`` facade functions below keep the old code verbatim (the
facade methods spelled as functions of their ``self``), and Hypothesis
runs both on the same generated scenarios: connection latency, a
partitioned link (that may heal), a lossy link plus the transient
error rate, a lost spill, several fetches in a row, and a kill at
step *k* (an ``Interrupt`` while the fetch waits on its *k*-th event).
Both must leave the same span and event records, the same open spans,
the same simulated finish times and the same ``retries``,
``bytes_fetched`` and ``fetch_count`` - except a killed fetch's span,
which the old path left open and the new one closes ``killed`` at the
kill (asserted on its own).

Also here: the job-token check a shuffle service remembers, the kernel's
process count as telemetry and the store report it, and a killed inline
reducer's in-flight fetch span.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SG, edge, fn_vertex, hdfs_source, make_sim
from repro.cluster import Cluster, ClusterSpec
from repro.shuffle import ShuffleServices
from repro.shuffle.fetcher import Fetcher, FetchFailure
from repro.shuffle.service import SpillLost
from repro.sim import Environment, Interrupt
from repro.telemetry import Telemetry, check, query
from repro.telemetry.spans import Span
from repro.telemetry.store import read_manifest
from repro.tez import DAG
from repro.yarn import SecurityManager
from repro.yarn.security import AuthenticationError, Token


# ============================== the replaced fetch path, verbatim
def _frozen_start(self, kind, name, parent, ts, attrs):
    # Hot-path core: takes the attrs dict by reference so callers
    # that already hold one (the facade) skip a kwargs re-copy.
    if parent is not None and parent.__class__ is Span:
        parent = parent.span_id
    self._count = span_id = self._count + 1
    span = Span(span_id, kind, name, ts, None, parent, attrs)
    if self.sink is None:
        self.spans.append(span)
    self._by_id[span_id] = span
    return span


def _frozen_span(self, kind, name, parent=None, ts=None, **attrs):
    if not self.enabled:
        return None
    if ts is None:
        env = self.env
        ts = env.now if env is not None else 0.0
    return _frozen_start(self.tracer, kind, name, parent, ts, attrs)


def _frozen_finish(self, span, ts=None, **attrs):
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


class _FrozenFetcher(Fetcher):
    def fetch(self, ref):
        telemetry = _frozen_get_telemetry(self.env)
        span = None
        if telemetry is not None:
            span = _frozen_span(
                telemetry,
                "fetch", f"{ref.spill_id}:p{ref.partition}",
                node=self.reader_node, source=ref.node_id,
                owner=self.owner, dag=self._owner_dag, nbytes=ref.nbytes,
            )
        try:
            records = yield from self._fetch(ref, telemetry)
        except FetchFailure as exc:
            if telemetry is not None:
                telemetry.event(
                    "shuffle.fetch_failed", owner=self.owner,
                    dag=self._owner_dag, source=ref.node_id,
                    reason=exc.reason,
                )
                telemetry.metrics.counter("shuffle.fetch_failures").inc()
                _frozen_finish(telemetry, span, outcome="failed")
            raise
        if telemetry is not None:
            _frozen_finish(telemetry, span, outcome="ok")
        return records

    def _fetch(self, ref, telemetry=None):
        attempts = 0
        deadline = self.env.now + self.spec.shuffle_retry_total_timeout
        while True:
            attempts += 1
            yield self.env.timeout(self.spec.shuffle_connection_latency)
            # A partitioned link: the connection hangs, then times out.
            if self.cluster.link_partitioned(ref.node_id, self.reader_node):
                yield self.env.timeout(self.spec.shuffle_fetch_timeout)
                self._note_retry(ref, telemetry, "partition_timeout",
                                 attempts)
                if (
                    attempts > self.spec.shuffle_max_retries
                    or self.env.now >= deadline
                ):
                    raise FetchFailure(
                        ref,
                        f"fetch timed out after {attempts} attempts "
                        f"(network partition)",
                    )
                yield self.env.timeout(self._backoff(attempts))
                continue
            # Transient error injection (network blips / flaky links).
            error_rate = (
                self.spec.shuffle_transient_error_rate
                + self.cluster.link_loss_rate(ref.node_id, self.reader_node)
            )
            if (
                error_rate > 0
                and self.rng.random() < error_rate
                and attempts <= self.spec.shuffle_max_retries
                and self.env.now < deadline
            ):
                self._note_retry(ref, telemetry, "transient_error", attempts)
                yield self.env.timeout(self._backoff(attempts))
                continue
            service = self.services.on_node(ref.node_id)
            try:
                records = service.fetch(
                    ref.spill_id, ref.partition, self.app_id, self.job_token
                )
            except SpillLost as exc:
                raise FetchFailure(ref, str(exc)) from exc
            transfer = self.cluster.transfer_time(
                ref.nbytes, ref.node_id, self.reader_node
            )
            yield self.env.timeout(transfer)
            self.bytes_fetched += ref.nbytes
            self.fetch_count += 1
            return list(records)


def _frozen_get_telemetry(env):
    tel = getattr(env, "telemetry", None)
    if tel is not None and not tel.enabled:
        return None
    return tel


# ======================================================= the scenarios
@st.composite
def _scenarios(draw):
    return {
        "latency": draw(st.sampled_from([0.0, 0.01, 0.05, 0.4])),
        "error_rate": draw(st.sampled_from([0.0, 0.0, 0.2, 0.6])),
        "max_retries": draw(st.integers(0, 4)),
        "total_timeout": draw(st.sampled_from([1.0, 5.0, 20.0])),
        # None, or (bandwidth factor, loss rate, partitioned, heal at)
        "link": draw(st.one_of(st.none(), st.tuples(
            st.sampled_from([0.25, 1.0]), st.sampled_from([0.0, 0.3, 0.9]),
            st.booleans(), st.one_of(st.none(), st.floats(0.0, 12.0))))),
        "reader": draw(st.sampled_from(["node0001", "node0002"])),
        "sizes": draw(st.lists(st.integers(0, 30), min_size=1, max_size=3)),
        # None, or (index of the lost spill, lost by crash or by drop)
        "lost": draw(st.one_of(st.none(), st.tuples(
            st.integers(0, 2), st.booleans()))),
        "kill_step": draw(st.one_of(st.none(), st.integers(1, 12))),
        "telemetry": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
    }


def _run(scenario, fetcher_cls):
    """One scenario on a fresh world: a consumer process fetches every
    spill in turn (inline, as an attempt does), a FetchFailure ends
    it, an Interrupt at its ``kill_step``-th wait kills it."""
    spec = ClusterSpec(
        num_nodes=4, nodes_per_rack=2, seed=scenario["seed"],
        shuffle_connection_latency=scenario["latency"],
        shuffle_transient_error_rate=scenario["error_rate"],
        shuffle_max_retries=scenario["max_retries"],
        shuffle_retry_total_timeout=scenario["total_timeout"])
    env = Environment()
    tel = Telemetry(env, enabled=scenario["telemetry"])
    cluster = Cluster(env, spec)
    security = SecurityManager()
    services = ShuffleServices(cluster, security)
    token = security.issue("JOB", "app1")
    service = services.on_node("node0000")
    refs = []
    for i, size in enumerate(scenario["sizes"]):
        refs.extend(service.register_spill(
            "app1", f"dag#1/m/t{i}_a0/r", {0: [(k, i) for k in range(size)]},
            token=token))
    if scenario["lost"] is not None:
        index, crash = scenario["lost"]
        if crash:
            cluster.crash_node("node0000")
        else:
            service.drop_spill(refs[index % len(refs)].spill_id)
    if scenario["link"] is not None:
        factor, loss, partitioned, heal_at = scenario["link"]
        racks = sorted(cluster.racks())
        cluster.degrade_link(racks[0], racks[1], bandwidth_factor=factor,
                             loss_rate=loss, partitioned=partitioned)
        if heal_at is not None:
            env.call_later(heal_at,
                           lambda: cluster.restore_link(racks[0], racks[1]))
    fetcher = fetcher_cls(env, cluster, services, "app1",
                          reader_node=scenario["reader"], job_token=token,
                          owner="dag#1/r/t0_a0")
    seen = []       # (time, outcome) per fetch
    waits = []

    def counted(gen):
        # ``yield from gen``, noting each wait; interrupts the consumer
        # on its kill_step-th.
        value, thrown = None, None
        while True:
            try:
                event = gen.send(value) if thrown is None \
                    else gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            waits.append(env.now)
            if len(waits) == scenario["kill_step"]:
                env.active_process.interrupt("killed")
            try:
                value, thrown = (yield event), None
            except BaseException as exc:   # noqa: B036 - rethrown into gen
                value, thrown = None, exc

    def consumer():
        for ref in refs:
            try:
                records = yield from counted(fetcher.fetch(ref))
            except FetchFailure as exc:
                seen.append((env.now, "failed", exc.reason))
                return
            except Interrupt:
                seen.append((env.now, "killed"))
                return
            seen.append((env.now, "ok", records))

    env.process(consumer())
    env.run()
    tel.flush()
    return {
        "env": env, "tel": tel, "fetcher": fetcher, "seen": seen,
        "counts": (fetcher.retries, fetcher.bytes_fetched,
                   fetcher.fetch_count, env.now, env.heap_pushes),
        "spans": [_span_record(s) for s in tel.store.spans()],
        "open": [_span_record(s) for s in tel.tracer.open_spans()],
        "events": [(e.seq, e.ts, e.kind, list(e.attrs.items()))
                   for e in tel.store.events()],
        "metrics": tel.metrics.as_dict(),
    }


def _span_record(span):
    """A span's record with its attrs' key order."""
    return (span.span_id, span.kind, span.name, span.start, span.end,
            span.parent_id, list(span.attrs.items()))


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_the_fetch_path_leaves_what_the_old_one_left(scenario):
    old = _run(scenario, _FrozenFetcher)
    new = _run(scenario, Fetcher)
    assert new["seen"] == old["seen"]
    assert new["counts"] == old["counts"]
    assert new["events"] == old["events"]
    assert new["metrics"] == old["metrics"]
    killed = bool(old["seen"]) and old["seen"][-1][1] == "killed"
    if not killed:
        assert new["spans"] == old["spans"]
        assert new["open"] == old["open"]
        return
    # The one difference: the old path left a killed fetch's span open;
    # the new one closes it "killed" at the kill.
    kill_at = old["seen"][-1][0]
    if not scenario["telemetry"]:
        assert new["spans"] == old["spans"] == []
        assert new["open"] == old["open"] == []
        return
    (left_open,) = old["open"]
    assert new["open"] == []
    closed = left_open[:4] + (kill_at, None, [
        *left_open[6], ("outcome", "killed")])
    assert new["spans"] == [closed if span == left_open else span
                            for span in old["spans"]]


def test_the_scenarios_reach_every_outcome():
    """The scenario space above holds every outcome: ok, retried,
    failed by a partition, failed by a lost spill, killed."""
    outcomes = set()
    rng = random.Random(0)
    for _ in range(400):
        scenario = {
            "latency": rng.choice([0.0, 0.05]),
            "error_rate": rng.choice([0.0, 0.6]),
            "max_retries": rng.randint(0, 4),
            "total_timeout": 20.0,
            "link": rng.choice([None, (1.0, 0.0, True, None),
                                (0.25, 0.9, False, None)]),
            "reader": "node0002",
            "sizes": [3, 4],
            "lost": rng.choice([None, (1, False), (0, True)]),
            "kill_step": rng.choice([None, 2, 5]),
            "telemetry": True,
            "seed": rng.randint(0, 3),
        }
        run = _run(scenario, Fetcher)
        last = run["seen"][-1]
        outcomes.add(last[1] if last[1] != "failed"
                     else "partition" if "partition" in last[2] else "lost")
        if run["fetcher"].retries:
            outcomes.add("retried")
    assert outcomes == {"ok", "retried", "partition", "lost", "killed"}


# ============================================ a killed inline reducer
def test_a_killed_inline_fetch_closes_its_span():
    """A reducer with no HDFS sink runs inline: its attempt's
    ``Interrupt`` runs through ``Fetcher.fetch``. The fetch it was in
    closes ``killed`` at the kill instead of staying open for the
    rest of the process."""
    from repro.tez.am.structures import AttemptEndReason, AttemptState

    sim = make_sim()
    paths = [f"/in/{i}" for i in range(13)]
    for path in paths:
        sim.hdfs.write(path, [(j % 10, j) for j in range(40)],
                       record_bytes=1 << 20)
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", paths)
    r = fn_vertex("r", lambda c, d: {}, 1)
    dag = DAG("inline").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    client = sim.tez_client()
    handle = client.submit_dag(dag)
    killed = {}

    def fetch_spans(attempt_id):
        return sim.telemetry.store.spans(kind="fetch", owner=attempt_id)

    def kill_mid_gather():
        while True:
            yield sim.env.timeout(0.05)
            am = client.last_am
            tasks = am._vertices["r"].tasks if am is not None \
                and "r" in am._vertices else []
            if not tasks or not tasks[0].attempts:
                continue
            attempt = tasks[0].attempts[0]
            if attempt.state == AttemptState.RUNNING and any(
                    s.end is not None for s in fetch_spans(
                        attempt.attempt_id)):
                break
        killed.update(at=sim.env.now, attempt=attempt.attempt_id)
        am.scheduler.kill_attempt(attempt, AttemptEndReason.PREEMPTED)

    sim.env.process(kill_mid_gather())
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded, handle.status.diagnostics
    assert not [s for s in sim.telemetry.tracer.open_spans()
                if s.kind == "fetch"
                and s.attrs["owner"] == killed["attempt"]]
    spans = fetch_spans(killed["attempt"])
    outcomes = [s.attrs["outcome"] for s in spans]
    assert outcomes.count("killed") == 1 and "ok" in outcomes
    (dead,) = [s for s in spans if s.attrs["outcome"] == "killed"]
    assert dead.end == killed["at"]
    assert max(s.end for s in spans) == killed["at"]


# ====================================================== the job token
def _service_and_tokens(enabled=True):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(num_nodes=2, nodes_per_rack=2))
    security = SecurityManager(enabled=enabled)
    services = ShuffleServices(cluster, security)
    good = security.issue("JOB", "app1")
    service = services.on_node("node0000")
    service.register_spill("app1", "s1", {0: [("k", 1)]}, token=good)
    bad = {
        "missing": None,
        "wrong kind": security.issue("NM", "app1"),
        "wrong owner": security.issue("JOB", "app2"),
        "forged": Token("JOB", "app1", "0" * 24),
    }
    return security, service, good, bad


@pytest.mark.parametrize("which", ["missing", "wrong kind", "wrong owner",
                                   "forged"])
def test_a_bad_token_after_a_good_one_still_raises(which):
    _security, service, good, bad = _service_and_tokens()
    for _ in range(2):
        assert service.fetch("s1", 0, "app1", good) == [("k", 1)]
    for _ in range(2):
        with pytest.raises(AuthenticationError):
            service.fetch("s1", 0, "app1", bad[which])
    assert service.fetch("s1", 0, "app1", good) == [("k", 1)]


@pytest.mark.parametrize("which", ["missing", "wrong kind", "wrong owner",
                                   "forged"])
def test_a_bad_token_first_raises(which):
    _security, service, _good, bad = _service_and_tokens()
    for _ in range(2):
        with pytest.raises(AuthenticationError):
            service.fetch("s1", 0, "app1", bad[which])


def test_a_good_token_is_good_only_for_its_app():
    security, service, good, _bad = _service_and_tokens()
    service.register_spill("app2", "s2", {0: []},
                           token=security.issue("JOB", "app2"))
    service.fetch("s1", 0, "app1", good)
    with pytest.raises(AuthenticationError):
        service.fetch("s2", 0, "app2", good)


def test_a_token_is_verified_once_per_service(monkeypatch):
    security, service, good, _bad = _service_and_tokens()
    calls = []
    verify = security.verify
    monkeypatch.setattr(security, "verify",
                        lambda *a: (calls.append(a), verify(*a)))
    for _ in range(5):
        service.fetch("s1", 0, "app1", good)
    assert calls == [(good, "JOB", "app1")]


def test_a_token_accepted_unchecked_is_not_remembered():
    security, service, _good, bad = _service_and_tokens(enabled=False)
    forged = bad["forged"]
    assert service.fetch("s1", 0, "app1", forged) == [("k", 1)]
    security.enabled = True
    with pytest.raises(AuthenticationError):
        service.fetch("s1", 0, "app1", forged)


# ========================================== processes, counted in the kernel
def _small_run(**sim_overrides):
    sim = make_sim(**sim_overrides)
    sim.hdfs.write("/in", [(j % 4, j) for j in range(20)])
    m = fn_vertex("m", lambda c, d: {"r": list(d["src"])}, -1)
    hdfs_source(m, "src", ["/in"])
    r = fn_vertex("r", lambda c, d: {}, 2)
    dag = DAG("count").add_vertex(m).add_vertex(r)
    dag.add_edge(edge(m, r, SG))
    handle = sim.tez_client().submit_dag(dag)
    sim.env.run(until=handle.completion)
    assert handle.status.succeeded
    return sim


def test_processes_started_is_the_kernels_count():
    sim = _small_run()
    counter = sim.telemetry.metrics.counter("sim.processes_started")
    assert counter.value == sim.env.processes_started > 0
    before = sim.env.processes_started
    sim.env.process(x for x in [sim.env.timeout(1.0)])
    assert counter.value == sim.env.processes_started == before + 1
    with pytest.raises(AttributeError):
        counter.inc()


def test_every_process_is_counted_telemetry_or_not():
    env = Environment()
    for _ in range(3):
        env.process(x for x in [env.timeout(0.0)])
    env.run()
    assert env.processes_started == 3
    quiet = _small_run(telemetry=False)
    loud = _small_run()
    assert quiet.env.processes_started == loud.env.processes_started


def test_the_store_reports_processes_started(tmp_path, capsys):
    sim = _small_run()
    store = str(tmp_path / "store")
    sim.telemetry.persist_store(store)
    manifest = read_manifest(store)
    kernel = manifest["kernel"]
    assert kernel == {"heap_pushes": sim.env.heap_pushes,
                      "pool_reuse": sim.env.pool_reuse,
                      "processes_started": sim.env.processes_started}
    assert query.main([store, "--summary"]) == 0
    out = capsys.readouterr().out
    assert (f"kernel: heap_pushes={kernel['heap_pushes']} "
            f"pool_reuse={kernel['pool_reuse']} "
            f"processes_started={kernel['processes_started']}") in out
    assert check.main(["--store", store]) == 0
    for broken in ({**kernel, "processes_started": -1},
                   {**kernel, "processes_started": 1.5},
                   {**kernel, "hooks": 1}, [1]):
        with open(os.path.join(store, "MANIFEST.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({**manifest, "kernel": broken}, fh)
        assert check.main(["--store", store]) == 1
