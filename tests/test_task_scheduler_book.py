"""The AM's two-sided ask book against a scan-everything reference.

``TaskSchedulerService`` keeps its queued requests in per-node,
per-rack and no-locality buckets beside the queue and answers "which
request for this container" with one lookup. ``_FrozenBook`` below is
the matcher as it stood before any request-side index - one insorted
list, re-filtered and scanned three ways on every slot release and
every new container - kept verbatim as the reference. It shares
``schedule`` / ``_assign`` / ``_find_reusable_slot`` with the scheduler
under test and none of the queue or matching code, so a slip in the
shipped buckets (an entry not removed, a wrong order, a wrong level)
shows as a different request on a slot.

Every index-maintenance site was removed by hand in turn, and each
removal fails the randomized test on its own: the queue, node, rack
and no-locality members of ``_buckets_of``; ``insort`` in ``_enqueue``
replaced by ``append``; the arrival number left out of ``order``; the
``del`` in ``_dequeue`` and each of its three call sites; the
``_pending_by_attempt`` entry and its removal; the ``rack_set``
assignment in ``schedule``; the queue-order comparison in
``_first_fit``; and the no-locality bucket at the rack level.
"""

import itertools
from bisect import insort
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.sim import Environment, Store
from repro.tez import TezConfig
from repro.tez.am.structures import AttemptEndReason
from repro.tez.am.task_scheduler import TaskRequest, TaskSchedulerService
from repro.yarn import (
    ApplicationId,
    Container,
    ContainerId,
    ContainerState,
    ContainerStatus,
    Resource,
)


class _FrozenBook(TaskSchedulerService):
    def _enqueue(self, request):
        # insort lands after equal (priority, queued_at) keys: FIFO
        # within a priority.
        insort(self.pending, request,
               key=lambda r: (r.priority, r.queued_at or 0))
        self._pending_by_attempt[request.attempt] = request

    def _dequeue(self, request):
        self.pending.remove(request)
        self._pending_by_attempt.pop(request.attempt, None)

    def _match_pending(self, container):
        """Best queued request for a newly allocated container."""
        candidates = [
            r for r in self.pending
            if r.capability.fits_in(container.resource)
        ]
        if not candidates:
            return None
        node = container.node_id
        rack = container.node.rack
        for req in candidates:
            if node in req.nodes:
                return req
        for req in candidates:
            req_racks = set(req.racks) | {
                self.cluster.nodes[n].rack
                for n in req.nodes if n in self.cluster.nodes
            }
            if rack in req_racks:
                return req
        return candidates[0]

    def _match_slot_to_pending(self, slot):
        """A slot went idle: try to hand it a queued request."""
        if self._stopped or slot.releasing or slot.current is not None:
            return
        if (
            not slot.container.node.alive
            or slot.container.node_id in self.blacklisted
        ):
            self.release_slot(slot)
            return
        request = None
        node = slot.container.node_id
        rack = slot.container.node.rack
        candidates = [
            r for r in self.pending
            if r.capability.fits_in(slot.container.resource)
        ]
        if self.config.container_reuse and candidates:
            for r in candidates:
                if node in r.nodes:
                    request = r
                    break
            if request is None:
                for r in candidates:
                    r_racks = set(r.racks) | {
                        self.cluster.nodes[n].rack
                        for n in r.nodes if n in self.cluster.nodes
                    }
                    if rack in r_racks or (not r.nodes and not r.racks):
                        request = r
                        break
            if request is None:
                request = candidates[0]
        if request is not None:
            self.pending.remove(request)
            self._pending_by_attempt.pop(request.attempt, None)
            if request.asked_yarn:
                self._cancel_ask(request)
            self._c_reuse.inc()
            self._assign(slot, request, reuse=True)
        else:
            slot.idle_since = self.env.now


def _rack_set(sched, request):
    return set(request.racks) | {
        sched.cluster.nodes[n].rack
        for n in request.nodes if n in sched.cluster.nodes
    }


def _assert_book_equals_rescan(sched):
    """The request side of the book against what it stands for: every
    bucket is the queue filtered by one node, one rack or "no
    preference", in queue order. Needs only the scheduler, so a runtime
    invariant monitor can call it at any quiescent point."""
    queue = sched.pending
    orders = [r.order for r in queue]
    assert orders == sorted(orders) and len(set(orders)) == len(orders)
    assert [o[:2] for o in orders] == [
        (r.priority, r.queued_at) for r in queue]
    by_node, by_rack, anywhere = {}, {}, []
    for request in queue:
        racks = _rack_set(sched, request)
        assert request.rack_set == racks
        if not request.nodes and not request.racks:
            anywhere.append(request)
        for node in set(request.nodes):
            by_node.setdefault(node, []).append(request)
        for rack in racks:
            by_rack.setdefault(rack, []).append(request)

    def live(index):
        return {key: bucket for key, bucket in index.items() if bucket}

    assert live(sched._pending_by_node) == by_node
    assert live(sched._pending_by_rack) == by_rack
    assert sched._pending_anywhere == anywhere
    assert sched._pending_by_attempt == {r.attempt: r for r in queue}
    # Queued and placed are disjoint: a request leaves the book when
    # its attempt gets a slot.
    assert not sched._pending_by_attempt.keys() & {
        slot.current for slot in sched.slots.values()}


# -- the scripted world around one scheduler ---------------------------------

_NODES = 6                       # two racks of three
_SLOT_SIZES = [Resource(1024, 1), Resource(2048, 2)]
_CAPS = [Resource(1024, 1), Resource(2048, 1),
         Resource(65536, 1)]     # the last fits no slot
_APP = ApplicationId(0, 900)


class _Attempt:
    def __init__(self, number):
        self.attempt_id = f"dag_1/v/{number}"
        self.task = SimpleNamespace(
            index=number, vertex=SimpleNamespace(name="v", dag_id="dag_1"))
        self.container = self.node_id = self.process = self.end_reason = None


class _Rig:
    """One scheduler (frozen or shipped) with a recording stand-in for
    YARN: containers arrive when the script says so and are never
    launched, so a slot is busy until the script frees it."""

    def __init__(self, scheduler_cls, config):
        self.env = Environment()
        self.cluster = Cluster(self.env, ClusterSpec(
            num_nodes=_NODES, nodes_per_rack=3))
        self.log = []
        self.env.telemetry = SimpleNamespace(enabled=True, event=self._event)
        record = lambda name: lambda *a, **kw: self.log.append((name, a, kw))
        self.ctx = SimpleNamespace(
            rm=SimpleNamespace(spec=self.cluster.spec, cluster=self.cluster),
            allocated=Store(self.env), completed=Store(self.env),
            request_containers=record("ask"),
            cancel_request=record("cancel"),
            release_container=record("release"),
            update_blacklist=record("blacklist"),
            launch_container=lambda container, runner: None,
        )
        self.follow_ups = []     # schedule() args run inside the next exit
        self.requests = {}       # attempt id -> its TaskRequest
        self.sched = scheduler_cls(
            self.env, self.ctx, config, run_attempt=None,
            on_attempt_exit=self._on_exit,
            defer_exits=lambda attempt, error, unit:
                unit(lambda: self._on_exit(attempt, error)))
        self._attempts = itertools.count()
        self._containers = itertools.count(1)

    def _event(self, kind, **attrs):
        # ``_assign`` labels locality from the request's cached rack
        # set: check it against the preferences rebuilt from scratch.
        request = self.requests[attrs["attempt"]]
        node = self.cluster.nodes[attrs["node"]]
        if node.node_id in request.nodes:
            label = "node"
        elif not request.nodes and not request.racks:
            label = "any"
        else:
            label = ("rack" if node.rack in _rack_set(self.sched, request)
                     else "off")
        assert attrs["locality"] == label
        self.log.append((kind, attrs["attempt"], attrs["container"],
                         label, attrs["reuse"]))

    def _on_exit(self, attempt, error):
        self.log.append(("exit", attempt.attempt_id, type(error).__name__))
        for args in self.follow_ups:
            self._schedule(*args)
        self.follow_ups = []

    def node(self, idx):
        return self.cluster.nodes[f"node{idx:04d}"]

    def _schedule(self, cap, node_idxs, rack_idx, level, speculative):
        nodes = tuple(f"node{i:04d}" for i in node_idxs)   # 7 is no node
        racks = () if rack_idx is None else (f"rack{rack_idx}",)
        request = TaskRequest(
            _Attempt(next(self._attempts)), priority=3 + 2 * level
            + speculative, capability=_CAPS[cap], nodes=nodes, racks=racks)
        self.requests[request.attempt.attempt_id] = request
        self.sched.schedule(request)

    def apply(self, op):
        kind, sched = op[0], self.sched
        if kind == "schedule":
            self._schedule(*op[1:])
        elif kind == "deallocate" and sched.pending:
            request = sched.pending[op[1] % len(sched.pending)]
            if op[2]:
                sched.kill_attempt(request.attempt,
                                   AttemptEndReason.DAG_KILLED)
            else:
                assert sched.deallocate(request.attempt)
            assert request not in sched.pending
            assert not sched.deallocate(request.attempt)
        elif kind == "free":
            busy = [s for s in sched.slots.values() if s.current is not None]
            if busy:
                slot = busy[op[1] % len(busy)]
                attempt, slot.current = slot.current, None
                sched._slot_by_attempt.pop(attempt, None)
                self.follow_ups = list(op[2])
                sched._attempt_exit_unit(
                    slot, lambda: self._on_exit(attempt, None))
        elif kind == "container":
            sched._on_new_container(Container(
                ContainerId(_APP, next(self._containers)), self.node(op[1]),
                _SLOT_SIZES[op[2]], self.cluster.spec))
        elif kind == "blacklist":
            sched.blacklist_node(f"node{op[1]:04d}")
        elif kind == "clear_blacklist":
            sched.clear_blacklist()
        elif kind == "crash":
            node = self.node(op[1])
            node.crash()
            for slot in list(sched.slots.values()):
                if slot.container.node is node:
                    self.ctx.completed.put(ContainerStatus(
                        slot.container.container_id, ContainerState.COMPLETE))
        elif kind == "restart":
            self.node(op[1]).restart()
        elif kind == "advance":
            self.env.run(until=self.env.now + op[1])

    def observe(self):
        sched = self.sched
        return {
            "log": list(self.log),
            "queue": [(r.attempt.attempt_id, r.asked_yarn)
                      for r in sched.pending],
            "slots": {str(cid): slot.current and slot.current.attempt_id
                      for cid, slot in sched.slots.items()},
            "idle": sorted(sched._idle_slots),
            "counts": (sched.tasks_placed, sched.reuse_hits,
                       sched.containers_released),
        }


def _lockstep(ops, config):
    frozen = _Rig(_FrozenBook, config)
    shipped = _Rig(TaskSchedulerService, config)
    for step, op in enumerate(ops):
        frozen.apply(op)
        shipped.apply(op)
        assert shipped.observe() == frozen.observe(), (step, op)
        _assert_book_equals_rescan(shipped.sched)
    return shipped


_node_idx = st.integers(0, _NODES - 1)
_schedule_args = st.tuples(
    st.sampled_from([0, 0, 0, 1, 1, 2]),
    st.lists(st.one_of(_node_idx, st.just(7)), max_size=3),
    st.one_of(st.none(), st.integers(0, 1)),
    st.integers(0, 2), st.booleans(),
)
_OPS = {
    "schedule": _schedule_args.map(lambda args: ("schedule", *args)),
    "container": st.tuples(st.just("container"), _node_idx,
                           st.integers(0, 1)),
    "free": st.tuples(st.just("free"), st.integers(0, 9),
                      st.lists(_schedule_args, max_size=2)),
    "deallocate": st.tuples(st.just("deallocate"), st.integers(0, 9),
                            st.booleans()),
    "blacklist": st.tuples(st.just("blacklist"), _node_idx),
    "clear_blacklist": st.just(("clear_blacklist",)),
    "crash": st.tuples(st.just("crash"), _node_idx),
    "restart": st.tuples(st.just("restart"), _node_idx),
    "advance": st.tuples(st.just("advance"),
                         st.sampled_from([0.25, 1.0, 12.0])),
}
# Weighted towards a full queue over busy slots, so that several
# requests share a bucket while slots turn over.
_WEIGHTS = {"schedule": 14, "free": 6, "container": 2, "deallocate": 2,
            "advance": 2}
_ops = st.lists(
    st.sampled_from([kind for kind in _OPS
                     for _ in range(_WEIGHTS.get(kind, 1))])
    .flatmap(_OPS.__getitem__),
    min_size=15, max_size=60,
)
_REUSE, _NO_REUSE = {"container_reuse": True}, {"container_reuse": False}
_FLAGS = [_REUSE, _NO_REUSE]
# Ids are the places these two held among the eight reuse x rack-fallback x
# any-fallback settings the scheduler once took, so a case keeps its name.
_FLAGS_IDS = ["flags0", "flags4"]


def _config(flags):
    return TezConfig(**flags)


@pytest.mark.parametrize("flags", _FLAGS, ids=_FLAGS_IDS)
@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_randomized_book_matches_frozen_scans(flags, ops):
    # Four idle slots over both racks to start from, so the first
    # requests run and the later ones queue behind them.
    slots = [("container", node, node % 2) for node in (0, 1, 3, 4)]
    _lockstep(slots + ops, _config(flags))


# -- the tie-breaks, one script each ------------------------------------------

def _sched(cap=0, nodes=(), rack=None, level=0, speculative=False):
    return ("schedule", cap, list(nodes), rack, level, speculative)


def _running(rig):
    """Number of the attempt on the rig's only slot, if any."""
    (slot,) = rig.sched.slots.values()
    return slot.current and slot.current.task.index


_BUSY_SLOT_ON_NODE0 = [("container", 0, 1), _sched()]     # attempt 0 runs
_FREE = ("free", 0, [])


@pytest.mark.parametrize("flags, script, placed", [
    # An earlier no-preference request beats a later rack-local one...
    (_REUSE, [_sched(), _sched(rack=0), _FREE], 1),
    # ...a later one does not...
    (_REUSE, [_sched(rack=0), _sched(), _FREE], 1),
    # ...and either beats the head of the queue when that is off-rack.
    (_REUSE, [_sched(nodes=[5]), _sched(), _FREE], 2),
    (_REUSE, [_sched(nodes=[5]), _sched(nodes=[1]), _FREE], 2),
    # Node-local beats everything queued ahead of it.
    (_REUSE,
     [_sched(), _sched(rack=0), _sched(nodes=[0], level=2), _FREE], 3),
    # Upstream priority first, then the speculative +1, then arrival.
    (_REUSE,
     [_sched(level=1), _sched(speculative=True), _sched(), _sched(), _FREE],
     3),
    # A head that fits no slot is stepped over, in every bucket.
    (_REUSE, [_sched(cap=2), _sched(cap=1), _FREE], 2),
    (_REUSE,
     [_sched(cap=2, nodes=[0]), _sched(nodes=[0]), _FREE], 2),
    # A deallocated request is gone from every bucket. (These two keep the
    # ids they had behind the reuse-fallback cases the scheduler dropped.)
    pytest.param(
        _REUSE,
        [_sched(nodes=[0], rack=0), ("deallocate", 0, False), _FREE], None,
        id="flags12-script12-None"),
    # No reuse: a freed slot takes nothing.
    pytest.param(_NO_REUSE, [_sched(nodes=[0]), _FREE], None,
                 id="flags13-script13-None"),
])
def test_freed_slot_takes_the_request_the_scans_would(flags, script, placed):
    rig = _lockstep(_BUSY_SLOT_ON_NODE0 + script, _config(flags))
    assert _running(rig) == placed


@pytest.mark.parametrize("script, placed", [
    # A new container prefers node, then rack, then the queue head: a
    # no-preference request does not compete at the rack level.
    ([_sched(), _sched(rack=0), ("container", 1, 1)], 1),
    ([_sched(), _sched(rack=0), _sched(nodes=[1]), ("container", 1, 1)], 2),
    ([_sched(nodes=[5]), _sched(), ("container", 1, 1)], 0),
    ([_sched(cap=1), _sched(), ("container", 1, 0)], 1),
    ([_sched(cap=2), ("container", 1, 1)], None),
])
def test_new_container_takes_the_request_the_scans_would(script, placed):
    rig = _lockstep(script, _config(_REUSE))
    assert _running(rig) == placed


def test_blacklisted_preferences_are_dropped_before_indexing():
    rig = _lockstep([
        ("container", 0, 1), _sched(), ("blacklist", 1),
        _sched(nodes=[1, 2]), _sched(nodes=[1]),
    ], _config(_REUSE))
    sched = rig.sched
    assert [r.nodes for r in sched.pending] == [("node0002",), ()]
    assert "node0001" not in sched._pending_by_node
    assert sched._pending_anywhere == [sched.pending[1]]
