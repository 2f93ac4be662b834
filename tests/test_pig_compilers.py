"""Structural tests for the Pig compilers (DAG/job shapes)."""

import pytest

from repro.engines.pig import (
    PartitionerDefinedVertexManager,
    PigMRCompiler,
    PigScript,
    PigTezCompiler,
)
from repro.tez import DataMovementType
from repro.tez.events import VertexManagerEvent
from repro.workloads import ETL_SCRIPTS, build_script


def etl_script():
    s = PigScript("shape")
    logs = s.load("/logs", ["user", "ms"])
    ok = logs.filter(lambda r: r["ms"] > 0)
    agg = ok.aggregate(["user"], {"n": ("count", None)})
    agg.store("/out/a")
    return s


class TestTezCompiler:
    def test_local_ops_fuse(self):
        dag, _ = PigTezCompiler().compile(etl_script())
        # load+filter fuse into one vertex; aggregate adds one more.
        assert len(dag.vertices) == 2
        assert len(dag.edges) == 1

    def test_shared_relation_becomes_multi_output_vertex(self):
        s = PigScript("multi")
        logs = s.load("/logs", ["user", "ms"])
        ok = logs.filter(lambda r: r["ms"] > 0)
        ok.aggregate(["user"], {"n": ("count", None)}).store("/out/a")
        ok.distinct().store("/out/b")
        dag, _ = PigTezCompiler().compile(s)
        out_degree = {}
        for edge in dag.edges:
            out_degree[edge.source.name] = \
                out_degree.get(edge.source.name, 0) + 1
        # The shared filter vertex fans out to several consumers.
        assert max(out_degree.values()) >= 2

    def test_order_by_builds_histogram_pipeline(self):
        s = PigScript("ord")
        s.load("/logs", ["user", "ms"]) \
            .order_by(["ms"], parallel=3).store("/out/o")
        dag, _ = PigTezCompiler().compile(s)
        names = set(dag.vertices)
        assert any(n.startswith("histogram") for n in names)
        assert any(n.startswith("partition") for n in names)
        assert any(n.startswith("order") for n in names)
        movements = {e.prop.data_movement for e in dag.edges}
        # Sample (SG) + boundaries (BROADCAST) + rows (1-1) + ranges.
        assert DataMovementType.BROADCAST in movements
        assert DataMovementType.ONE_TO_ONE in movements
        assert DataMovementType.SCATTER_GATHER in movements

    def test_dead_relations_not_compiled(self):
        s = PigScript("dead")
        logs = s.load("/logs", ["user", "ms"])
        logs.filter(lambda r: True).store("/out/live")
        logs.distinct()          # never stored: dead code
        dag, _ = PigTezCompiler().compile(s)
        assert not any(n.startswith("distinct") for n in dag.vertices)


class TestMRCompiler:
    def test_boundary_per_job(self):
        steps = PigMRCompiler().compile(etl_script())
        # aggregate job + final store job.
        assert len(steps) == 2

    def test_order_by_is_three_steps(self):
        s = PigScript("ord")
        s.load("/logs", ["user", "ms"]) \
            .order_by(["ms"], parallel=2).store("/out/o")
        steps = PigMRCompiler().compile(s)
        # sample job, (deferred) sort job, store job.
        assert len(steps) == 3

    def test_shared_relation_materialized_once(self):
        s = PigScript("multi")
        logs = s.load("/logs", ["user", "ms"])
        ok = logs.filter(lambda r: r["ms"] > 0)
        ok.aggregate(["user"], {"n": ("count", None)}).store("/out/a")
        ok.aggregate(["user"], {"m": ("max", "ms")}).store("/out/b")
        steps = PigMRCompiler().compile(s)
        # shared materialization + 2 agg jobs + 2 store jobs.
        assert len(steps) == 5

    @pytest.mark.parametrize("name", sorted(ETL_SCRIPTS))
    def test_job_names_do_not_depend_on_the_process(self, name):
        # Both scripts stay alive, so their relations differ in id():
        # a name drawn from a memory address would differ here too.
        first, second = build_script(name), build_script(name)
        names = [[step(_SampleHdfs()).name
                  for step in PigMRCompiler().compile(script)]
                 for script in (first, second)]
        assert names[0] == names[1]
        # Every ETL script orders, and the ORDER BY defers its sort job.
        assert any(n.startswith("ordersort_") for n in names[0])


class _SampleHdfs:
    """The client-side HDFS a deferred order-by step reads its key
    sample from."""

    def read_file(self, path):
        return [{"sample": [(float(i),) for i in range(20)]}]


class _FakePDVMContext:
    def __init__(self, parallelism, sources):
        self._p = parallelism
        self._sources = sources
        self.scheduled = set()
        self.set_calls = []
        self._completed = {s: 0 for s in sources}

    @property
    def vertex_parallelism(self):
        return self._p

    def source_vertices(self):
        return list(self._sources)

    def source_parallelism(self, s):
        return self._sources[s]

    def schedule_tasks(self, idx):
        self.scheduled.update(idx)

    def scheduled_tasks(self):
        return set(self.scheduled)

    def set_parallelism(self, p):
        self.set_calls.append(p)
        self._p = p

    def user_payload(self):
        return None

    def source_locked(self, s):
        return True


class TestPartitionerDefinedVertexManager:
    def test_waits_for_histogram_then_schedules(self):
        ctx = _FakePDVMContext(6, {"part": 2})
        vm = PartitionerDefinedVertexManager(ctx)
        vm.initialize()
        vm.on_vertex_started()
        vm.on_source_task_completed("part", 0)
        vm.on_source_task_completed("part", 1)
        assert not ctx.scheduled            # histogram not seen yet
        vm.on_vertex_manager_event(VertexManagerEvent(
            target_vertex="v", payload={"num_partitions": 4},
        ))
        assert ctx.set_calls == [4]         # shrank 6 -> 4
        assert ctx.scheduled == {0, 1, 2, 3}

    def test_does_not_grow_parallelism(self):
        ctx = _FakePDVMContext(2, {"part": 1})
        vm = PartitionerDefinedVertexManager(ctx)
        vm.initialize()
        vm.on_vertex_started()
        vm.on_vertex_manager_event(VertexManagerEvent(
            target_vertex="v", payload={"num_partitions": 10},
        ))
        vm.on_source_task_completed("part", 0)
        assert ctx.set_calls == []          # 10 > 2: keep 2
        assert ctx.scheduled == {0, 1}
