"""Spark service backend: the paper's baseline for Figures 12/13.

Models Spark's own engine-as-a-service on YARN: the application
acquires a fixed fleet of long-lived executors up front and *holds
them for the application's lifetime*, multiplexing stage tasks onto
executor cores. Idle executors still occupy their containers — the
resource-hoarding behaviour section 4.3 contrasts with Tez's
ephemeral, finer-grained task containers.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from ...shuffle import Fetcher, HashPartitioner
from ...shuffle.sorter import sort_key
from ...sim import Store
from ...yarn import FinalApplicationStatus, Priority, Resource
from .rdd import Stage

__all__ = ["SparkServiceBackend"]

_STOP = object()
EXECUTOR_PRIORITY = Priority(5)


class SparkServiceBackend:
    def __init__(self, sim, num_executors: int = 4,
                 executor_cores: int = 2, executor_mb: int = 2048,
                 queue: str = "default"):
        self.sim = sim
        self.env = sim.env
        self.num_executors = num_executors
        self.executor_cores = executor_cores
        self.executor_mb = executor_mb
        self.queue = queue
        self.name = "service"
        self._requests: Optional[Store] = None
        self._started = False
        self._app_handle = None
        self._seq = itertools.count(1)
        self.partitioner = HashPartitioner()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._requests = Store(self.env)
        self._app_handle = self.sim.rm.submit_application(
            "spark-service", self._driver, queue=self.queue,
        )

    def stop(self) -> None:
        if self._started and self._requests is not None:
            self._requests.put(_STOP)

    def run_job(self, stages: list[Stage], result: Stage,
                action: tuple, name: str) -> Generator:
        self.start()
        done = self.env.event()
        self._requests.put((stages, result, action, name, done))
        outcome = yield done
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # --------------------------------------------------------------- driver
    def _driver(self, ctx) -> Generator:
        ctx.register()
        job_token = self.sim.rm.security.issue("JOB", str(ctx.app_id))
        # Acquire the executor fleet up front and hold it.
        ctx.request_containers(
            EXECUTOR_PRIORITY,
            Resource(self.executor_mb, self.executor_cores),
            count=self.num_executors,
        )
        executors = []
        slots = Store(self.env)
        for _ in range(self.num_executors):
            container = yield ctx.allocated.get()
            mailbox = Store(self.env)
            ctx.launch_container(
                container, lambda c, mb=mailbox: self._executor(c, mb)
            )
            executors.append((container, mailbox))
            for _slot in range(self.executor_cores):
                slots.put((container, mailbox))
        try:
            while True:
                msg = yield self._requests.get()
                if msg is _STOP:
                    break
                stages, result, action, name, done = msg
                try:
                    outcome = yield self.env.process(self._run_stages(
                        ctx, job_token, slots, stages, result, action,
                        name,
                    ))
                except Exception as exc:
                    outcome = exc
                if not done.triggered:
                    done.succeed(outcome)
        finally:
            for _container, mailbox in executors:
                mailbox.put(_STOP)
            self.sim.shuffle.delete_app(str(ctx.app_id))
        ctx.unregister(FinalApplicationStatus.SUCCEEDED)

    def _executor(self, container, mailbox: Store) -> Generator:
        """Long-lived executor process: runs queued task bodies."""
        while True:
            item = yield mailbox.get()
            if item is _STOP:
                return
            body, finished = item
            try:
                value = yield self.env.process(body(container))
                finished.succeed(value)
            except Exception as exc:
                if not finished.triggered:
                    finished.fail(exc)

    # ---------------------------------------------------------------- stages
    def _run_stages(self, ctx, job_token, slots: Store,
                    stages: list[Stage], result: Stage, action: tuple,
                    name: str) -> Generator:
        job_id = next(self._seq)
        # (stage_id, task) -> {partition: SpillRef}
        spill_refs: dict[int, list[dict]] = {}
        outputs: list = []
        consumers: dict[int, list[Stage]] = {}
        for stage in stages:
            for parent, _tag in stage.parents:
                consumers.setdefault(parent.stage_id, []).append(stage)
        for stage in stages:
            tasks = self._plan_tasks(stage)
            finish_events = []
            refs_per_task: list[dict] = [dict() for _ in tasks]
            for index, task_input in enumerate(tasks):
                body = self._task_body(
                    ctx, job_token, stage, index, task_input,
                    consumers.get(stage.stage_id, []), spill_refs,
                    refs_per_task, stage is result, action, job_id,
                )
                finished = self.env.event()
                finish_events.append(finished)
                self.env.process(
                    self._dispatch(slots, body, finished),
                    name=f"spark-task:{stage.stage_id}:{index}",
                )
            results = yield self.env.all_of(finish_events)
            spill_refs[stage.stage_id] = refs_per_task
            if stage is result:
                for event in finish_events:
                    outputs.extend(event.value or [])
        kind, arg = action
        if kind == "count":
            return len(outputs)
        if kind == "collect":
            return outputs
        if kind == "save":
            self.sim.hdfs.write(arg, outputs, overwrite=True)
            yield self.env.timeout(
                self.sim.hdfs.write_time(len(outputs) * 32)
            )
            return arg
        raise ValueError(f"unknown action {kind!r}")

    def _dispatch(self, slots: Store, body, finished) -> Generator:
        slot = yield slots.get()
        container, mailbox = slot
        mailbox.put((body, finished))
        try:
            yield finished
        except Exception:
            pass  # surfaced to the waiter via the event itself
        slots.put(slot)

    def _plan_tasks(self, stage: Stage) -> list:
        if stage.sources:
            paths = list(dict.fromkeys(p for p, _t in stage.sources))
            splits = self.sim.hdfs.splits_for(paths)
            return splits  # one task per split
        return list(range(stage.num_partitions))

    def _task_body(self, ctx, job_token, stage: Stage, index: int,
                   task_input, consumer_stages, spill_refs,
                   refs_per_task, is_result: bool, action,
                   job_id: int) -> Callable:
        def body(container) -> Generator:
            hdfs = self.sim.hdfs
            inputs: dict[str, list] = {}
            if stage.sources:
                blocks = task_input
                by_path: dict[str, list] = {}
                for block in blocks:
                    yield self.env.timeout(container.io_delay(
                        hdfs.read_time(block, container.node_id)
                    ))
                    by_path.setdefault(block.path, []).extend(
                        hdfs.read_block(block, container.node_id)
                    )
                for path, tag in stage.sources:
                    inputs[tag] = [
                        r for p, rows in by_path.items()
                        if p == path or p.startswith(f"{path}/")
                        for r in rows
                    ]
            for parent, tag in stage.parents:
                fetcher = Fetcher(
                    self.env, self.sim.cluster, self.sim.shuffle,
                    app_id=str(ctx.app_id),
                    reader_node=container.node_id,
                    job_token=job_token,
                )
                records: list = []
                for task_refs in spill_refs.get(parent.stage_id, []):
                    ref = task_refs.get(index)
                    if ref is None:
                        continue
                    fetched = yield self.env.process(
                        fetcher.fetch(ref)
                    )
                    records.extend(fetched)
                inputs[tag] = records
            records = stage.compute(inputs)
            n = sum(len(v) for v in inputs.values()) + len(records)
            yield self.env.timeout(container.compute_delay(
                n * self.sim.spec.cpu_cost_per_record
            ))
            if consumer_stages:
                emitted = (
                    stage.shuffle_emit(records)
                    if stage.shuffle_emit else records
                )
                service = self.sim.shuffle.on_node(container.node_id)
                refs = service.spill(
                    str(ctx.app_id),
                    f"spark_{job_id}_{stage.stage_id}_{index}",
                    emitted, consumer_stages[0].num_partitions,
                    self.partitioner, ordered=False, token=job_token,
                )
                total = sum(r.nbytes for r in refs)
                yield self.env.timeout(container.io_delay(
                    total / self.sim.spec.disk_write_bw
                ))
                refs_per_task[index] = {r.partition: r for r in refs}
            if is_result:
                kind, _arg = action
                return list(records)
            return []

        return body
