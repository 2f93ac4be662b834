"""Unit tests for Tez components: registry, config, vertex managers,
committers, events."""

import pytest

from repro.tez import (
    ObjectRegistry,
    Scope,
    ShuffleVertexManager,
    ShuffleVertexManagerConfig,
    TezConfig,
)
from repro.tez.events import (
    CompositeDataMovementEvent,
    DataMovementEvent,
    VertexManagerEvent,
)
from repro.tez.vertex_manager import VertexManagerContext


class TestObjectRegistry:
    def test_put_get(self):
        reg = ObjectRegistry()
        reg.put(Scope.DAG, "dag1", "table", {"a": 1})
        assert reg.get("table") == {"a": 1}
        assert "table" in reg
        assert reg.hits == 1

    def test_miss_counts(self):
        reg = ObjectRegistry()
        assert reg.get("nope") is None
        assert reg.misses == 1

    def test_scope_cleanup(self):
        reg = ObjectRegistry()
        reg.put(Scope.VERTEX, "d/v1", "a", 1)
        reg.put(Scope.DAG, "d", "b", 2)
        reg.put(Scope.SESSION, "s", "c", 3)
        reg.clear_scope(Scope.VERTEX, "d/v1")
        assert reg.get("a") is None
        assert reg.get("b") == 2
        reg.clear_scope(Scope.DAG, "d")
        assert reg.get("b") is None
        assert reg.get("c") == 3

    def test_dag_level_cleanup_keeps_only_session_entries(self):
        reg = ObjectRegistry()
        reg.put(Scope.VERTEX, "d1/v1", "a", 1)
        reg.put(Scope.DAG, "d1", "b", 2)
        reg.put(Scope.DAG, "d0", "late", 0)     # an earlier DAG's
        reg.put(Scope.SESSION, "s", "c", 3)
        reg.clear_scope(Scope.DAG)
        assert len(reg) == 1
        assert reg.get("c") == 3

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            ObjectRegistry().put("GALAXY", "x", "k", 1)

    def test_overwrite(self):
        reg = ObjectRegistry()
        reg.put(Scope.DAG, "d", "k", 1)
        reg.put(Scope.SESSION, "s", "k", 2)
        assert reg.get("k") == 2
        reg.clear_scope(Scope.SESSION, "s")
        assert reg.get("k") is None


class TestConfigs:
    def test_tez_config_validation(self):
        with pytest.raises(ValueError):
            TezConfig(max_task_attempts=0)
        with pytest.raises(ValueError):
            TezConfig(speculation_slowdown_factor=1.0)

    def test_svm_config_validation(self):
        with pytest.raises(ValueError):
            ShuffleVertexManagerConfig(slowstart_min_fraction=-0.1)
        with pytest.raises(ValueError):
            ShuffleVertexManagerConfig(
                slowstart_min_fraction=0.8, slowstart_max_fraction=0.5
            )
        with pytest.raises(ValueError):
            ShuffleVertexManagerConfig(min_task_parallelism=0)


class _FakeVMContext(VertexManagerContext):
    """Minimal VertexManagerContext for unit-testing managers."""

    def __init__(self, parallelism, sources):
        self._parallelism = parallelism
        self._sources = dict(sources)   # name -> total tasks
        self._completed = {s: 0 for s in sources}
        self.scheduled: set[int] = set()
        self.parallelism_calls: list[int] = []
        self.locked = {s: True for s in sources}

    @property
    def vertex_name(self):
        return "v"

    @property
    def vertex_parallelism(self):
        return self._parallelism

    def source_vertices(self):
        return list(self._sources)

    def source_parallelism(self, name):
        return self._sources[name]

    def completed_source_tasks(self, name):
        return self._completed[name]

    def set_parallelism(self, p):
        self.parallelism_calls.append(p)
        self._parallelism = p

    def schedule_tasks(self, indices):
        self.scheduled.update(indices)

    def scheduled_tasks(self):
        return set(self.scheduled)

    def user_payload(self):
        return None

    def source_locked(self, name):
        return self.locked[name]

    def complete(self, manager, source, count):
        for i in range(count):
            idx = self._completed[source]
            self._completed[source] += 1
            manager.on_source_task_completed(source, idx)


class TestShuffleVertexManager:
    def make(self, parallelism=10, sources=None, **cfg):
        if sources is None:
            sources = {"src": 8}
        ctx = _FakeVMContext(parallelism, sources)
        manager = ShuffleVertexManager(
            ctx, ShuffleVertexManagerConfig(**cfg)
        )
        manager.initialize()
        return ctx, manager

    def test_slow_start_window(self):
        ctx, m = self.make(parallelism=10,
                           slowstart_min_fraction=0.25,
                           slowstart_max_fraction=0.75)
        m.on_vertex_started()
        ctx.complete(m, "src", 1)      # 12.5% — below min
        assert not ctx.scheduled
        ctx.complete(m, "src", 1)      # 25%
        assert 0 < len(ctx.scheduled) < 10
        ctx.complete(m, "src", 4)      # 75%
        assert len(ctx.scheduled) == 10

    def test_all_sources_done_schedules_all(self):
        ctx, m = self.make(parallelism=4)
        m.on_vertex_started()
        ctx.complete(m, "src", 8)
        assert ctx.scheduled == {0, 1, 2, 3}

    def test_auto_parallelism_shrinks(self):
        ctx, m = self.make(parallelism=10, auto_parallelism=True,
                           desired_task_input_bytes=1000,
                           slowstart_min_fraction=0.25)
        m.on_vertex_started()
        # Producers report ~125 bytes each; 8 producers -> ~1000 total.
        for i in range(2):
            m.on_vertex_manager_event(VertexManagerEvent(
                target_vertex="v",
                payload={"output_bytes": 125, "producer_vertex": "src"},
                producer_task_index=i,
            ))
            ctx.complete(m, "src", 1)
        assert ctx.parallelism_calls == [1]

    def test_auto_parallelism_never_grows(self):
        ctx, m = self.make(parallelism=2, auto_parallelism=True,
                           desired_task_input_bytes=10,
                           slowstart_min_fraction=0.0)
        m.on_vertex_started()
        m.on_vertex_manager_event(VertexManagerEvent(
            target_vertex="v",
            payload={"output_bytes": 10_000, "producer_vertex": "src"},
            producer_task_index=0,
        ))
        ctx.complete(m, "src", 8)
        assert ctx.parallelism_calls == []   # would need growth: refused

    def test_waits_for_unlocked_source(self):
        ctx, m = self.make(parallelism=4)
        ctx.locked["src"] = False
        m.on_vertex_started()
        ctx.complete(m, "src", 8)
        assert not ctx.scheduled              # gated on configuration
        ctx.locked["src"] = True
        m.on_source_task_completed("src", 0)  # re-trigger
        assert ctx.scheduled == {0, 1, 2, 3}

    def test_no_sources_schedules_immediately(self):
        ctx, m = self.make(parallelism=3, sources={})
        m.on_vertex_started()
        assert ctx.scheduled == {0, 1, 2}


class TestEvents:
    def test_composite_expansion(self):
        ev = CompositeDataMovementEvent(
            source_vertex="v", source_task_index=2,
            source_output_start=4, count=3, payloads=("p4", "p5", "p6"),
            version=1,
        )
        expanded = ev.expand()
        assert [e.source_output_index for e in expanded] == [4, 5, 6]
        assert [e.payload for e in expanded] == ["p4", "p5", "p6"]
        assert all(e.source_task_index == 2 for e in expanded)
        assert all(e.version == 1 for e in expanded)

    def test_event_ids_unique(self):
        a = DataMovementEvent("v", 0, 0, None)
        b = DataMovementEvent("v", 0, 0, None)
        assert a.event_id != b.event_id
