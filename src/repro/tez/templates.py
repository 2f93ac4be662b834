"""Execution templates: cache and replay control-plane decisions.

Iterative workloads (k-means, PageRank, interactive Pig/Hive sessions)
submit the *same DAG structure* to a session AM over and over, varying
only parameter payloads — yet every iteration historically re-ran the
full control plane: root-input split calculation, vertex-manager
scheduling decisions, edge routing tables and container matching.
Following Execution Templates (Mashayekhi et al., PAPERS.md), the
session AM records those decisions on the first execution of a DAG
structure and replays them for structurally-identical successors,
falling back to full scheduling the moment cluster state diverges.

The one invariant everything here serves: **a replayed run is
decision-for-decision identical to the full-scheduling run it
replaces.** Replay never skips a kernel scheduling point (an
initializer's namenode wait is still waited; a template-assigned slot
is assigned through the same ``_assign`` the matcher would have used),
so simulated timestamps, event order, journals and outputs are
byte-identical with templates on, off, or demoted mid-run.

Four independently-validated template parts:

* **Init plans** — the split list a root-input initializer produced,
  valid while the input files' write versions and the live-node set
  match the recording. Replay drives the *real* initializer through
  its namenode-latency phase (event isomorphism), then substitutes the
  cached splits for the host-side block scan.
* **Vertex-manager plans** — the exact schedule_tasks() calls each
  manager emitted, keyed by the full observation sequence (vertex
  started, source completions, VM events). Replay is lockstep: any
  deviation rebuilds the real manager from the retained observation
  history (managers are deterministic over their observation history,
  and ``schedule_tasks`` de-duplicates, so the rebuild is exact).
* **Placements** — the (task, attempt) -> container-slot sequence,
  valid only for recordings where every assignment was a schedule-time
  container reuse and the slot population never changed; replay checks
  the recorded slot with the same usability predicate the matcher
  applies and demotes on the first mismatch or slot churn.
* **Edge route tables** — memoized scatter-gather routing dictionaries
  shared across runs of the template (pure functions of the frozen
  parallelism triple, so they are safe even when the rest of the
  template is invalid).

Fallback is automatic, journaled (a :class:`TemplateEvent` crosses the
dispatcher, so the write-ahead journal records it) and mid-run-safe.
The cache lives on the AM instance: an AM failover starts empty, and a
run that begins with recovered work neither records nor replays —
template state is never trusted across journal epochs.
"""

from __future__ import annotations

import hashlib
from typing import Any, Generator, Optional

from .library.hdfs_io import HdfsInputInitializer
from .vertex_manager import ShuffleVertexManagerConfig

__all__ = [
    "TemplateStats",
    "ExecutionTemplate",
    "TemplateManager",
    "dag_signature",
]


# ---------------------------------------------------------------- signature
def _payload_key(payload: Any) -> str:
    """Stable fingerprint of a parameter payload (order-insensitive for
    dicts, content-hashed so large payloads stay cheap to compare)."""
    return hashlib.sha256(_stable_repr(payload).encode()).hexdigest()


def _stable_repr(obj: Any) -> str:
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_stable_repr(k)}:{_stable_repr(obj[k])}"
            for k in sorted(obj, key=repr)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_stable_repr(o) for o in obj) + "]"
    if isinstance(obj, (str, int, float, bool, type(None))):
        return repr(obj)
    return f"{type(obj).__name__}({repr(obj)})"


def _descriptor_cls(descriptor) -> str:
    if descriptor is None:
        return "-"
    cls = getattr(descriptor, "cls", None)
    return cls.__name__ if cls is not None else type(descriptor).__name__


def dag_signature(dag) -> str:
    """Structural signature: topology, parallelism, descriptor classes
    and structural (vertex-manager / edge-manager) configuration.
    Parameter payloads — processor payloads, HDFS paths, iteration
    state — are deliberately excluded: two iterations of a loop hash
    identically."""
    parts: list[str] = []
    for name in sorted(dag.vertices):
        v = dag.vertices[name]
        vm = v.vertex_manager
        # Vertex-manager payloads are structural tuning (slow-start
        # fractions, auto-parallelism), not per-iteration data: they
        # change the decision process itself, so they are part of the
        # signature.
        vm_payload = _stable_repr(getattr(vm, "payload", None)) if vm else "-"
        parts.append("|".join((
            "v", name, str(v.parallelism),
            _descriptor_cls(v.processor),
            _descriptor_cls(vm), vm_payload,
            str(v.resource_mb), str(v.resource_vcores),
            ",".join(
                f"{n}:{_descriptor_cls(s.input_descriptor)}"
                f":{_descriptor_cls(s.initializer_descriptor)}"
                for n, s in sorted(v.data_sources.items())
            ),
            ",".join(
                f"{n}:{_descriptor_cls(s.output_descriptor)}"
                f":{_descriptor_cls(s.committer_descriptor)}"
                for n, s in sorted(v.data_sinks.items())
            ),
            "hints" if v.location_hints else "-",
        )))
    for edge in dag.edges:
        p = edge.prop
        parts.append("|".join((
            "e", edge.source.name, edge.target.name,
            p.data_movement.value, p.scheduling.value,
            p.data_source.value,
            _descriptor_cls(p.output_descriptor),
            _descriptor_cls(p.input_descriptor),
            _descriptor_cls(p.edge_manager_descriptor),
        )))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ------------------------------------------------------------------ stats
class TemplateStats:
    """Hit/miss/fallback accounting for one AM's template cache."""

    def __init__(self):
        self.hits = 0
        self.recorded = 0
        self.params_patched = 0
        self.misses: dict[str, int] = {}
        self.fallbacks: dict[str, int] = {}
        self.invalidations: dict[str, int] = {}

    def miss(self, reason: str) -> None:
        self.misses[reason] = self.misses.get(reason, 0) + 1

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def invalidate(self, reason: str) -> None:
        self.invalidations[reason] = self.invalidations.get(reason, 0) + 1

    def summary(self) -> dict:
        return {
            "hits": self.hits,
            "recorded": self.recorded,
            "misses": sum(self.misses.values()),
            "misses_by_reason": dict(sorted(self.misses.items())),
            "fallbacks": sum(self.fallbacks.values()),
            "fallbacks_by_reason": dict(sorted(self.fallbacks.items())),
            "invalidations": sum(self.invalidations.values()),
            "invalidations_by_reason": dict(
                sorted(self.invalidations.items())),
            "params_patched": self.params_patched,
        }

    def fold_from(self, other: "TemplateStats") -> None:
        self.hits += other.hits
        self.recorded += other.recorded
        self.params_patched += other.params_patched
        for mine, theirs in ((self.misses, other.misses),
                             (self.fallbacks, other.fallbacks),
                             (self.invalidations, other.invalidations)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


# ------------------------------------------------------------------ plans
class _InitPlan:
    """Cached split calculation of one root input."""

    def __init__(self, splits: list, paths: list[str],
                 path_versions: dict[str, int], alive: frozenset):
        self.splits = splits
        self.paths = paths
        self.path_versions = path_versions
        self.alive = alive

    def valid(self, hdfs, cluster) -> bool:
        if frozenset(
            n.node_id for n in cluster.live_nodes()
        ) != self.alive:
            return False
        return all(
            hdfs.version(p) == self.path_versions[p] for p in self.paths
        )


class _VertexPlan:
    """The observation->action transcript of one vertex manager."""

    def __init__(self):
        # [(cause, actions)]: cause is the observation tuple, actions
        # the schedule_tasks index tuples it emitted (possibly empty).
        self.steps: list[tuple[tuple, tuple]] = []
        self.eligible = True


class _PlacementPlan:
    """(vertex, task, attempt) -> slot assignments of one recording."""

    def __init__(self, fingerprint: tuple):
        self.fingerprint = fingerprint
        # (vertex, index, attempt_number) -> (slot_seq, node_id)
        self.assignments: dict[tuple, tuple] = {}
        self.eligible = True


class ExecutionTemplate:
    """Everything recorded about one DAG structure's execution."""

    def __init__(self, signature: str):
        self.signature = signature
        # (vertex, input_name, payload_key) -> _InitPlan
        self.init_plans: dict[tuple, _InitPlan] = {}
        self.vm_plans: dict[str, _VertexPlan] = {}
        self.placement: Optional[_PlacementPlan] = None
        # (source, target) -> shared scatter-gather route memo. Route
        # tables are pure functions of (src, dst, partitions, output),
        # so the memo survives template invalidation.
        self.route_caches: dict[tuple, dict] = {}
        self.processor_payloads: dict[str, str] = {}


# ----------------------------------------------------------- VM recording
def _manager_plan_eligible(vr) -> bool:
    """Whether this vertex's manager decisions may be templated:
    classes declaring ``template_deterministic`` are pure functions of
    their observation history; auto-parallelism additionally reads
    *reported byte sizes* — parameter data — so it is never templated;
    custom plugin classes default to ineligible (always run live)."""
    descriptor = vr.vertex.vertex_manager
    if descriptor is None:
        return True     # framework default selection: all built-ins
    if not getattr(descriptor.cls, "template_deterministic", False):
        return False
    payload = descriptor.payload
    if isinstance(payload, ShuffleVertexManagerConfig):
        return not payload.auto_parallelism
    return payload is None


class _RecordingManager:
    """Proxy around the live manager: brackets every callback with its
    observation cause so the recording context can attribute actions."""

    def __init__(self, inner, recorder: "_VertexRecorder"):
        self._inner = inner
        self._recorder = recorder

    def _observe(self, cause: tuple, call) -> None:
        recorder = self._recorder
        recorder.begin(cause)
        try:
            call()
        finally:
            recorder.end()

    def initialize(self) -> None:
        self._observe(("init",), self._inner.initialize)

    def on_vertex_started(self) -> None:
        self._observe(("started",), self._inner.on_vertex_started)

    def on_root_input_initialized(self, input_name: str,
                                  num_splits: int) -> None:
        self._observe(
            ("root_input", input_name, num_splits),
            lambda: self._inner.on_root_input_initialized(
                input_name, num_splits),
        )

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        self._observe(
            ("src_done", vertex_name, task_index),
            lambda: self._inner.on_source_task_completed(
                vertex_name, task_index),
        )

    def on_vertex_manager_event(self, event) -> None:
        self._observe(
            ("vm_event", type(event).__name__,
             getattr(event, "producer_task_index", None)),
            lambda: self._inner.on_vertex_manager_event(event),
        )


class _VertexRecorder:
    """Collects one vertex's (cause, actions) transcript via a wrapped
    VM context."""

    def __init__(self, plan: _VertexPlan):
        self.plan = plan
        self._actions: Optional[list] = None

    def begin(self, cause: tuple) -> None:
        self._cause = cause
        self._actions = []

    def end(self) -> None:
        self.plan.steps.append((self._cause, tuple(self._actions)))
        self._actions = None

    def on_schedule(self, indices) -> None:
        if self._actions is None:
            # An action outside any observation bracket: not replayable.
            self.plan.eligible = False
            return
        self._actions.append(tuple(indices))

    def on_reconfigure(self) -> None:
        # Parallelism changes reshape the task set; replaying them is
        # auto-parallelism territory, which is out of template scope.
        self.plan.eligible = False


class _RecordingVMContext:
    """Wraps the real _VMContext, logging actuations into a recorder.
    Observation getters pass straight through."""

    def __init__(self, inner, recorder: _VertexRecorder):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_recorder", recorder)

    def schedule_tasks(self, task_indices) -> None:
        self._recorder.on_schedule(task_indices)
        self._inner.schedule_tasks(task_indices)

    def set_parallelism(self, parallelism: int) -> None:
        self._recorder.on_reconfigure()
        self._inner.set_parallelism(parallelism)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _ReplayManager:
    """Replays a recorded vertex-manager transcript in lockstep.

    Every callback is checked against the next recorded observation; a
    match applies the recorded schedule calls (through a real VM
    context, so actuation is byte-identical), a mismatch demotes the
    whole run: the real manager is rebuilt and fed the retained
    observation history — deterministic managers arrive at exactly the
    state the live path would hold, and schedule_tasks de-duplication
    makes re-applied prefixes no-ops.
    """

    def __init__(self, vr, plan: _VertexPlan, ctx, on_divergence):
        self._vr = vr
        self._plan = plan
        self._ctx = ctx
        self._cursor = 0
        self._history: list[tuple[str, tuple]] = []
        self._on_divergence = on_divergence

    def _step(self, cause: tuple, method: str, args: tuple) -> None:
        self._history.append((method, args))
        plan = self._plan
        if self._cursor < len(plan.steps) \
                and plan.steps[self._cursor][0] == cause:
            actions = plan.steps[self._cursor][1]
            self._cursor += 1
            for indices in actions:
                self._ctx.schedule_tasks(list(indices))
            return
        # Divergence: this observation sequence is not the recording.
        self._on_divergence(self._vr, self._history)

    def initialize(self) -> None:
        self._step(("init",), "initialize", ())

    def on_vertex_started(self) -> None:
        self._step(("started",), "on_vertex_started", ())

    def on_root_input_initialized(self, input_name: str,
                                  num_splits: int) -> None:
        self._step(("root_input", input_name, num_splits),
                   "on_root_input_initialized", (input_name, num_splits))

    def on_source_task_completed(self, vertex_name: str,
                                 task_index: int) -> None:
        self._step(("src_done", vertex_name, task_index),
                   "on_source_task_completed", (vertex_name, task_index))

    def on_vertex_manager_event(self, event) -> None:
        self._step(("vm_event", type(event).__name__,
                    getattr(event, "producer_task_index", None)),
                   "on_vertex_manager_event", (event,))


# ---------------------------------------------------------------- manager
class TemplateManager:
    """Per-AM execution-template cache, recorder and replayer.

    Also serves as the task scheduler's ``template_bridge`` (assignment
    recording/replay and slot-churn watching) and as the RM membership
    listener (cluster-validity watch)."""

    def __init__(self, am):
        self.am = am
        self.enabled = am.config.execution_templates
        self.stats = TemplateStats()
        self.cache: dict[str, ExecutionTemplate] = {}
        self._mode: Optional[str] = None      # None | "record" | "replay"
        self._template: Optional[ExecutionTemplate] = None
        self._demoted = False
        self._record_aborted = False
        self._replay_managers: list[_ReplayManager] = []
        if self.enabled:
            am.scheduler.template_bridge = self
            am.ctx.rm.add_membership_listener(self._on_membership)

    def detach(self) -> None:
        """AM shutdown: stop watching cluster membership. (A crashed
        AM's listener may leak until the session ends; demoting a dead
        AM's empty cache is a no-op, so leaks are harmless.)"""
        if self.enabled:
            self.am.ctx.rm.remove_membership_listener(self._on_membership)

    # ------------------------------------------------------ lifecycle
    def begin_dag(self, dag, recovered: dict) -> None:
        if not self.enabled:
            return
        self._mode = None
        self._demoted = False
        self._record_aborted = False
        self._replay_managers = []
        if recovered:
            # A recovered run mixes replayed successes into the control
            # plane; neither its decisions nor a pre-crash template can
            # be trusted (the cache is per-AM, so it is already empty
            # after failover — this guards the shard-restart DAG itself).
            self.stats.miss("recovery")
            return
        signature = dag_signature(dag)
        template = self.cache.get(signature)
        if template is None:
            self._template = ExecutionTemplate(signature)
            self._mode = "record"
            self._begin_placement_recording()
            self.stats.miss("cold")
        else:
            self._template = template
            self._mode = "replay"
            self._count_patched_params(dag, template)
            self._check_placement_fingerprint(template)
        self._share_route_caches()

    def finish_dag(self, status) -> None:
        if not self.enabled or self._mode is None:
            return
        mode, template = self._mode, self._template
        self._mode = None
        self._template = None
        self._replay_managers = []
        if template is None:
            return
        succeeded = getattr(getattr(status, "state", None), "name", "") \
            == "SUCCEEDED"
        if mode == "record":
            if self._record_aborted or not succeeded:
                return
            if template.placement is not None \
                    and not template.placement.eligible:
                template.placement = None
            template.vm_plans = {
                name: plan for name, plan in template.vm_plans.items()
                if plan.eligible
            }
            self.cache[template.signature] = template
            self.stats.recorded += 1
        elif mode == "replay" and not self._demoted and succeeded:
            self.stats.hits += 1

    def _count_patched_params(self, dag, template: ExecutionTemplate
                              ) -> None:
        for name, vertex in dag.vertices.items():
            key = _payload_key(getattr(vertex.processor, "payload", None))
            if template.processor_payloads.get(name) != key:
                self.stats.params_patched += 1

    # ------------------------------------------------------ fallback
    def demote(self, reason: str) -> None:
        """Fall back to full scheduling for the rest of this DAG and
        drop the cached template. Safe at any point: every replay part
        is individually exact up to the moment it is abandoned."""
        if self._mode == "record":
            self._record_aborted = True
            return
        if self._mode != "replay" or self._demoted:
            return
        self._demoted = True
        self.stats.fallback(reason)
        if self._template is not None:
            self.cache.pop(self._template.signature, None)
        for manager in list(self._replay_managers):
            manager_vr = manager._vr
            if manager_vr.manager is manager:
                self._rebuild_manager(manager_vr, manager._history)
        self._replay_managers = []
        self._journal_event("fallback", reason)

    def invalidate_all(self, reason: str) -> None:
        if not self.enabled or not self.cache:
            if self.enabled and self._mode == "record":
                self._record_aborted = True
            return
        self.cache.clear()
        self.stats.invalidate(reason)
        self._journal_event("invalidate", reason)
        if self._mode == "record":
            self._record_aborted = True

    def on_disturbance(self, reason: str) -> None:
        """Cluster-state divergence (fault, node loss, blacklist):
        demote any replay in flight and drop every cached template."""
        if not self.enabled:
            return
        self.demote(reason)
        self.invalidate_all(reason)

    def _on_membership(self, node_id: str, change: str) -> None:
        # RM validity watch: node LOST/recovered changes split locality
        # and slot viability even when this AM held nothing there.
        self.on_disturbance(f"node_{change}")

    def _journal_event(self, kind: str, reason: str) -> None:
        from .am.dispatcher import TemplateEvent
        dispatcher = self.am.dispatcher
        if dispatcher is not None and not dispatcher.halted:
            dispatcher.dispatch(TemplateEvent(kind=kind, reason=reason))

    # ------------------------------------------------------ init plans
    def initializer_process(self, vr, input_name: str, source,
                            ictx, initializer) -> Generator:
        """The generator the vertex lifecycle runs in place of a bare
        ``initializer.initialize()``. Record and replay both drive the
        *real* initializer through its waiting phase, so the kernel
        event sequence is identical in every mode; only the host-side
        block scan is skipped on a valid replay."""
        payload = initializer.payload or {}
        eligible = (
            self._mode is not None
            and type(initializer) is HdfsInputInitializer
            and not payload.get("wait_for_pruning_events")
            and isinstance(payload.get("paths", []), (list, tuple))
        )
        if not eligible:
            return initializer.initialize()
        key = (vr.name, input_name, _payload_key(payload))
        return self._driven_init(key, list(payload.get("paths", [])),
                                 initializer)

    def _driven_init(self, key: tuple, paths: list[str],
                     initializer) -> Generator:
        hdfs = self.am.services.hdfs
        cluster = self.am.services.cluster
        gen = initializer.initialize()
        try:
            event = gen.send(None)
        except StopIteration as stop:
            return stop.value
        yield event
        yields = 1
        if yields == 1 and self._mode == "replay" and not self._demoted:
            template = self._template
            plan = template.init_plans.get(key) if template else None
            if plan is not None and plan.valid(hdfs, cluster):
                gen.close()
                return list(plan.splits)
        # Live computation (recording, cache miss, or stale plan).
        snapshot_alive = frozenset(
            n.node_id for n in cluster.live_nodes()
        )
        snapshot_versions = {p: hdfs.version(p) for p in paths}
        result = None
        while True:
            try:
                event = gen.send(None)
            except StopIteration as stop:
                result = stop.value
                break
            yields += 1
            yield event
        if yields == 1 and self._mode == "record" \
                and not self._record_aborted and self._template is not None:
            self._template.init_plans[key] = _InitPlan(
                list(result), paths, snapshot_versions, snapshot_alive
            )
        return result

    # ------------------------------------------------------ VM plans
    def wrap_manager(self, vr, factory):
        """Called by the vertex lifecycle in place of a direct
        ``create_vertex_manager``: installs the recorder or replayer."""
        if self._mode == "record" and not self._record_aborted \
                and _manager_plan_eligible(vr):
            manager = factory(vr)
            plan = _VertexPlan()
            self._template.vm_plans[vr.name] = plan
            recorder = _VertexRecorder(plan)
            manager.ctx = _RecordingVMContext(manager.ctx, recorder)
            self._template.processor_payloads[vr.name] = _payload_key(
                getattr(vr.vertex.processor, "payload", None)
            )
            return _RecordingManager(manager, recorder)
        if self._mode == "replay" and not self._demoted:
            plan = self._template.vm_plans.get(vr.name) \
                if self._template else None
            if plan is not None:
                from .am.vm_context import _VMContext
                replayer = _ReplayManager(
                    vr, plan, _VMContext(self.am, vr),
                    self._on_vm_divergence,
                )
                self._replay_managers.append(replayer)
                return replayer
        return factory(vr)

    def _on_vm_divergence(self, vr, history) -> None:
        # Rebuild this vertex's real manager first (the diverging
        # callback must reach it), then demote everything else.
        self._rebuild_manager(vr, history)
        self.demote("vm_divergence")

    def _rebuild_manager(self, vr, history) -> None:
        manager = self.am.lifecycle.create_vertex_manager(vr)
        vr.manager = manager
        for method, args in history:
            getattr(manager, method)(*args)

    # ------------------------------------------------------ placements
    def _scheduler_fingerprint(self) -> tuple:
        scheduler = self.am.scheduler
        slots = tuple(sorted(
            (slot.seq, slot.container.node_id,
             slot.container.node.alive, slot.current is None,
             slot.container.resource.memory_mb,
             slot.container.resource.vcores)
            for slot in scheduler.slots.values()
        ))
        return (slots, tuple(sorted(scheduler.blacklisted)))

    def _begin_placement_recording(self) -> None:
        self._template.placement = _PlacementPlan(
            self._scheduler_fingerprint()
        )

    def _check_placement_fingerprint(self, template: ExecutionTemplate
                                     ) -> None:
        plan = template.placement
        if plan is None:
            return
        if self._scheduler_fingerprint() != plan.fingerprint:
            # The slot population changed between runs (reaped idles,
            # new prewarms): placements alone are stale. The other
            # parts remain valid, so only this one is disarmed.
            template.placement = None
            self.stats.fallback("placement_fingerprint")

    # -- scheduler bridge (duck interface used by TaskSchedulerService) --
    def try_assign(self, scheduler, request):
        """Replay path of ``schedule()``: return the recorded slot iff
        it passes the exact usability predicate the live matcher
        applies; anything else demotes and returns None (the caller
        falls through to full matching)."""
        if self._mode != "replay" or self._demoted \
                or self._template is None:
            return None
        plan = self._template.placement
        if plan is None:
            return None
        attempt = request.attempt
        key = (attempt.task.vertex.name, attempt.task.index,
               attempt.number)
        recorded = plan.assignments.get(key)
        if recorded is None:
            self.demote("unrecorded_assignment")
            return None
        seq, node_id = recorded
        slot = scheduler._idle_slots.get(seq)
        if (
            slot is None
            or slot.container.node_id != node_id
            or slot.current is not None
            or slot.releasing
            or not slot.container.node.alive
            or slot.container.node_id in scheduler.blacklisted
            or not request.capability.fits_in(slot.container.resource)
        ):
            self.demote("slot_unusable")
            return None
        return slot

    def on_assign(self, request, slot, schedule_time: bool) -> None:
        if self._mode != "record" or self._template is None:
            return
        plan = self._template.placement
        if plan is None or not plan.eligible:
            return
        attempt = request.attempt
        if not schedule_time or attempt.number != 0:
            # A queue-drain assignment or a retry means this recording
            # depends on allocation timing / failure handling: not
            # replayable.
            plan.eligible = False
            return
        plan.assignments[
            (attempt.task.vertex.name, attempt.task.index, attempt.number)
        ] = (slot.seq, slot.container.node_id)

    def on_slot_churn(self, kind: str) -> None:
        if self._mode == "record" and self._template is not None:
            plan = self._template.placement
            if plan is not None:
                plan.eligible = False
        elif self._mode == "replay" and not self._demoted \
                and self._template is not None \
                and self._template.placement is not None:
            self.demote(f"slot_churn:{kind}")

    # ------------------------------------------------------ route tables
    def _share_route_caches(self) -> None:
        if self._template is None:
            return
        from .edge_manager import ScatterGatherEdgeManager
        for key, manager in self.am._edge_managers.items():
            if type(manager) is ScatterGatherEdgeManager:
                manager._route_cache = \
                    self._template.route_caches.setdefault(key, {})
