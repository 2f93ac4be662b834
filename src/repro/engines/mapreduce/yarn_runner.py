"""Native MapReduce on YARN: the paper's baseline engine.

Faithful to MRv2's cost profile, which is exactly what Tez improves on:

* one YARN application (and AM) per job — pipelines pay AM launch per
  stage;
* one fresh container per task attempt — no reuse, every task pays
  allocation, process launch and cold-JVM JIT;
* reducers started after a slow-start fraction of maps, fetching
  eagerly as maps finish;
* every job materializes its output to replicated HDFS — multi-job
  workflows pay a write+read between stages.

Fault tolerance is task re-execution, as in Hadoop: failed/killed
attempts retry up to 4 times; a reducer's fetch failure re-runs the
offending map.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ...hdfs import Hdfs
from ...shuffle import FetchFailure, Fetcher, HashPartitioner, ShuffleServices
from ...shuffle import group_by_key, merge_and_group
from ...sim import Environment, Interrupt, Store
from ...yarn import (
    AMContext,
    Container,
    FinalApplicationStatus,
    Priority,
    Resource,
    ResourceManager,
)
from .model import JobResult, MRJob

__all__ = ["MapReduceYarnRunner", "JobHandle"]

MAP_PRIORITY = Priority(10)
REDUCE_PRIORITY = Priority(20)
MAX_ATTEMPTS = 4
TASK_RESOURCE = Resource(1024, 1)


class JobHandle:
    def __init__(self, env: Environment, job: MRJob):
        self.env = env
        self.job = job
        self.completion = env.event()
        self.result: Optional[JobResult] = None

    def _finish(self, result: JobResult) -> None:
        self.result = result
        if not self.completion.triggered:
            self.completion.succeed(result)


class _MapTask:
    def __init__(self, index: int, blocks: list):
        self.index = index
        self.blocks = blocks
        self.attempts = 0
        self.done = False
        self.refs: dict[int, Any] = {}   # partition -> SpillRef
        self.staged: Optional[str] = None


class _ReduceTask:
    def __init__(self, index: int):
        self.index = index
        self.attempts = 0
        self.done = False
        self.inbox: Optional[Store] = None
        self.staged: Optional[str] = None


class MapReduceYarnRunner:
    """Submits MRJobs as YARN applications on the simulated cluster."""

    def __init__(self, env: Environment, rm: ResourceManager, hdfs: Hdfs,
                 shuffle: ShuffleServices, queue: str = "default"):
        self.env = env
        self.rm = rm
        self.hdfs = hdfs
        self.shuffle = shuffle
        self.queue = queue

    def submit(self, job: MRJob) -> JobHandle:
        handle = JobHandle(self.env, job)
        self.rm.submit_application(
            f"mr:{job.name}",
            lambda ctx, h=handle: _MRAppMaster(self, ctx, h).run(),
            queue=self.queue,
        )
        return handle

    def run_job(self, job: MRJob) -> Generator:
        """Process: run one job; returns its JobResult."""
        handle = self.submit(job)
        result = yield handle.completion
        return result

    def run_pipeline(self, jobs: list[MRJob]) -> Generator:
        """Process: run jobs sequentially (a classic MR workflow);
        returns list[JobResult], stopping at the first failure."""
        results = []
        for job in jobs:
            result = yield from self.run_job(job)
            results.append(result)
            if not result.succeeded:
                break
        return results


class _MRAppMaster:
    """One application attempt executing one MRJob."""

    def __init__(self, runner: MapReduceYarnRunner, ctx: AMContext,
                 handle: JobHandle):
        self.runner = runner
        self.ctx = ctx
        self.env = runner.env
        self.hdfs = runner.hdfs
        self.shuffle = runner.shuffle
        self.spec = runner.rm.spec
        self.handle = handle
        self.job = handle.job
        self.job_token = runner.rm.security.issue(
            "JOB", str(ctx.app_id)
        )
        self.partitioner = handle.job.partitioner or HashPartitioner()
        self.maps: list[_MapTask] = []
        self.reduces: list[_ReduceTask] = []
        self.completed_maps = 0
        self.reduces_requested = False
        self.failed: Optional[str] = None
        self.done_event = self.env.event()
        self._task_seq = itertools.count()
        self._pending_maps: list[_MapTask] = []
        self._pending_reduces: list[_ReduceTask] = []

    # ------------------------------------------------------------- lifecycle
    def run(self) -> Generator:
        start = self.env.now
        ctx = self.ctx
        ctx.register()
        try:
            splits = self.hdfs.splits_for(self.job.input_paths)
        except Exception as exc:
            self._fail(f"split calculation failed: {exc}")
            splits = []
        yield self.env.timeout(0.1)  # split computation RPCs
        if self.failed is None:
            self.maps = [_MapTask(i, blocks)
                         for i, blocks in enumerate(splits)]
            self.reduces = [_ReduceTask(i)
                            for i in range(self.job.num_reducers)]
            for reduce_task in self.reduces:
                reduce_task.inbox = Store(self.env)
            if not self.maps:
                self._fail("no input splits")
        if self.failed is None:
            self.env.process(self._allocation_pump(), name="mr-alloc")
            self.env.process(self._completion_pump(), name="mr-complete")
            for map_task in self.maps:
                self._request_map(map_task)
            yield self.done_event
        succeeded = self.failed is None
        if succeeded:
            yield from self._commit()
        self.shuffle.delete_app(str(ctx.app_id))
        result = JobResult(
            name=self.job.name,
            succeeded=succeeded,
            start_time=start,
            finish_time=self.env.now,
            diagnostics=self.failed or "",
            metrics={
                "maps": len(self.maps),
                "reduces": len(self.reduces),
            },
        )
        self.handle._finish(result)
        ctx.unregister(
            FinalApplicationStatus.SUCCEEDED if succeeded
            else FinalApplicationStatus.FAILED,
            diagnostics=self.failed or "",
            result=result,
        )

    def _fail(self, diagnostics: str) -> None:
        if self.failed is None:
            self.failed = diagnostics
        if not self.done_event.triggered:
            self.done_event.succeed()

    def _check_done(self) -> None:
        if self.done_event.triggered:
            return
        maps_done = all(m.done for m in self.maps)
        reduces_done = all(r.done for r in self.reduces)
        if maps_done and reduces_done:
            self.done_event.succeed()

    # ------------------------------------------------------------ containers
    def _request_map(self, map_task: _MapTask) -> None:
        nodes = sorted({
            replica
            for block in map_task.blocks
            for replica in self.hdfs.live_replicas(block)
        })
        self._pending_maps.append(map_task)
        self.ctx.request_containers(
            MAP_PRIORITY, TASK_RESOURCE, nodes=nodes
        )

    def _allocation_pump(self) -> Generator:
        while not self.done_event.triggered:
            container = yield self.ctx.allocated.get()
            if self.done_event.triggered:
                self.ctx.release_container(container.container_id)
                return
            priority = getattr(container, "priority", MAP_PRIORITY)
            if priority == MAP_PRIORITY and self._pending_maps:
                task = self._pick_map(container)
                self.ctx.launch_container(
                    container,
                    lambda c, t=task: self._map_attempt(c, t),
                )
            elif priority == REDUCE_PRIORITY and self._pending_reduces:
                task = self._pending_reduces.pop(0)
                self.ctx.launch_container(
                    container,
                    lambda c, t=task: self._reduce_attempt(c, t),
                )
            else:
                self.ctx.release_container(container.container_id)

    def _pick_map(self, container: Container) -> _MapTask:
        node = container.node_id
        for task in self._pending_maps:
            for block in task.blocks:
                if node in block.replica_nodes:
                    self._pending_maps.remove(task)
                    return task
        return self._pending_maps.pop(0)

    def _completion_pump(self) -> Generator:
        while not self.done_event.triggered:
            status = yield self.ctx.completed.get()
            # Container losses for in-flight tasks surface as attempt
            # exceptions inside the task body (Interrupt), handled there.

    # ------------------------------------------------------------- map side
    def _map_attempt(self, container: Container,
                     task: _MapTask) -> Generator:
        task.attempts += 1
        try:
            yield from self._run_map(container, task)
        except Interrupt:
            self._retry_map(task, "container lost")
            return
        except Exception as exc:
            self._retry_map(task, f"{type(exc).__name__}: {exc}")
            return

    def _retry_map(self, task: _MapTask, why: str) -> None:
        if task.done:
            return
        if task.attempts >= MAX_ATTEMPTS:
            self._fail(f"map {task.index} failed {task.attempts}x: {why}")
        else:
            self._request_map(task)

    def _run_map(self, container: Container,
                 task: _MapTask) -> Generator:
        job = self.job
        path_mappers = job.path_mappers
        out: list[tuple] = []
        n_records = 0
        for block in task.blocks:
            yield self.env.timeout(container.io_delay(
                self.hdfs.read_time(block, container.node_id)
            ))
            records = self.hdfs.read_block(block, container.node_id)
            n_records += len(records)
            mapper = job.mapper
            if path_mappers is not None:
                mapper = path_mappers.get(block.path, job.mapper)
            if getattr(mapper, "batch", False):
                out.extend(mapper(records))
            else:
                for record in records:
                    out.extend(mapper(record))
        yield self.env.timeout(container.compute_delay(
            (n_records + len(out)) * job.map_cpu_per_record
        ))
        if job.reducer is None:
            staged = f"{job.output_path}/_tmp/map_{task.index}_{task.attempts}"
            dfile = self.hdfs.write(
                staged, out, writer_node=container.node_id,
                record_bytes=job.output_record_bytes, overwrite=True,
            )
            yield self.env.timeout(container.io_delay(
                self.hdfs.write_time(dfile.size_bytes)
            ))
            task.staged = staged
        else:
            yield self.env.timeout(container.compute_delay(
                self.spec.sort_time(len(out))
            ))
            combiner = None
            if job.combiner is not None:
                def combiner(kvs, _c=job.combiner):
                    # One key-sorted partition.
                    return [kv for key, values in group_by_key(kvs)
                            for kv in _c(key, values)]
            service = self.shuffle.on_node(container.node_id)
            refs = service.spill(
                str(self.ctx.app_id), f"map_{task.index}_a{task.attempts}",
                out, job.num_reducers, self.partitioner, ordered=True,
                combiner=combiner, token=self.job_token,
            )
            total = sum(r.nbytes for r in refs)
            yield self.env.timeout(container.io_delay(
                total / self.spec.disk_write_bw
            ))
            task.refs = {r.partition: r for r in refs}
        # Heartbeat latency before the AM learns of completion.
        yield self.env.timeout(self.spec.heartbeat_interval / 2)
        if not task.done:
            task.done = True
            self.completed_maps += 1
            for reduce_task in self.reduces:
                ref = task.refs.get(reduce_task.index)
                if ref is not None:
                    reduce_task.inbox.put((task.index, ref))
            self._maybe_start_reduces()
            self._check_done()

    def _maybe_start_reduces(self) -> None:
        if self.reduces_requested or not self.reduces:
            return
        fraction = self.completed_maps / max(1, len(self.maps))
        if fraction >= self.job.reduce_slowstart:
            self.reduces_requested = True
            for reduce_task in self.reduces:
                self._pending_reduces.append(reduce_task)
                self.ctx.request_containers(
                    REDUCE_PRIORITY, TASK_RESOURCE
                )

    # ---------------------------------------------------------- reduce side
    def _reduce_attempt(self, container: Container,
                        task: _ReduceTask) -> Generator:
        task.attempts += 1
        try:
            yield from self._run_reduce(container, task)
        except Interrupt:
            self._retry_reduce(task, "container lost")
            return
        except Exception as exc:
            self._retry_reduce(task, f"{type(exc).__name__}: {exc}")
            return

    def _retry_reduce(self, task: _ReduceTask, why: str) -> None:
        if task.done:
            return
        if task.attempts >= MAX_ATTEMPTS:
            self._fail(
                f"reduce {task.index} failed {task.attempts}x: {why}"
            )
        else:
            self._pending_reduces.append(task)
            self.ctx.request_containers(REDUCE_PRIORITY, TASK_RESOURCE)

    def _run_reduce(self, container: Container,
                    task: _ReduceTask) -> Generator:
        job = self.job
        fetcher = Fetcher(
            self.env, self.runner.rm.cluster, self.shuffle,
            app_id=str(self.ctx.app_id),
            reader_node=container.node_id,
            job_token=self.job_token,
        )
        fetched: dict[int, list] = {}
        kinds: list = []    # the fetched refs' key kinds
        # Snapshot already-completed maps, then consume the inbox.
        pending = [
            (m.index, m.refs[task.index])
            for m in self.maps
            if m.done and task.index in m.refs and m.index not in fetched
        ]
        while len(fetched) < len(self.maps):
            if pending:
                map_index, ref = pending.pop(0)
            else:
                map_index, ref = yield task.inbox.get()
            if map_index in fetched:
                continue
            try:
                records = yield self.env.process(
                    fetcher.fetch(ref), name=f"mr-fetch:r{task.index}"
                )
            except FetchFailure:
                # Lost map output: tell the AM to re-run the map, then
                # wait for the regenerated ref on the inbox.
                source = self.maps[map_index]
                if source.done:
                    source.done = False
                    self.completed_maps -= 1
                    self._request_map(source)
                continue
            fetched[map_index] = records
            kinds.append(ref.key_kind)
        total = sum(len(run) for run in fetched.values())
        yield self.env.timeout(container.compute_delay(
            self.spec.sort_time(total)
        ))
        groups = merge_and_group(fetched.values(), kinds)
        if job.descending_sort:
            groups.reverse()
        out: list = []
        for key, values in groups:
            out.extend(job.reducer(key, values))
        yield self.env.timeout(container.compute_delay(
            (total + len(out)) * job.reduce_cpu_per_record
        ))
        staged = f"{job.output_path}/_tmp/r_{task.index}_{task.attempts}"
        dfile = self.hdfs.write(
            staged, out, writer_node=container.node_id,
            record_bytes=job.output_record_bytes, overwrite=True,
        )
        yield self.env.timeout(container.io_delay(
            self.hdfs.write_time(dfile.size_bytes)
        ))
        task.staged = staged
        yield self.env.timeout(self.spec.heartbeat_interval / 2)
        if not task.done:
            task.done = True
            self._check_done()

    # ------------------------------------------------------------- commit
    def _commit(self) -> Generator:
        records: list = []
        tasks = self.reduces if self.reduces else self.maps
        for task in tasks:
            if task.staged and self.hdfs.exists(task.staged):
                records.extend(self.hdfs.read_file(task.staged))
        self.hdfs.write(
            self.job.output_path, records,
            record_bytes=self.job.output_record_bytes,
            overwrite=True,
        )
        for path in self.hdfs.list_files(f"{self.job.output_path}/_tmp/"):
            self.hdfs.delete(path)
        yield self.env.timeout(0.05)
