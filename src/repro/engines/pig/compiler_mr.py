"""Pig → MapReduce compiler: the pre-Tez baseline (paper 5.3 / 6.3).

Reproduces the classic Pig-on-MR execution shape:

* one MR job per distributed boundary, HDFS materialization between;
* relations consumed by several operators are materialized to a temp
  file once and re-read (the multi-query workaround);
* ORDER BY is the paper's three-step workaround: a sampling job, a
  client-side histogram, and a final partition/sort job whose range
  partitioner is built **on the client machine** from the sample;
* no broadcast joins, no runtime re-configuration.

Because the order-by partitioner depends on the sample produced by an
earlier job, compilation emits *job steps*: callables that build the
next MRJob after the previous ones ran (the client-side part of the
workflow).
"""

from __future__ import annotations

import itertools
from itertools import repeat
from typing import Any, Callable, Generator, Optional

from ...shuffle import RangePartitioner
from ...shuffle.sorter import sort_key
from ..mapreduce.model import MRJob, map_side_job
from ..mapreduce.yarn_runner import MapReduceYarnRunner
from ..relational import join_reducer, order_rows, rows_of
from .model import DEFAULT_PARALLEL, SAMPLE_RATE, PigScript, Relation
from .reference import aggregation, key_tuples, tuple_fields

__all__ = ["PigMRCompiler", "run_pig_on_mr"]


class _Pending:
    """Map-side work for the next job: inputs + a row pipeline."""

    def __init__(self, inputs: list[tuple[str, Callable]],
                 ops: list[Callable]):
        self.inputs = inputs          # (path, decoder records->rows)
        self.ops = ops                # rows -> rows


# A step builds one MRJob given the HDFS handle (so late steps can read
# artifacts, e.g. the order-by sample, "on the client machine").
JobStep = Callable[[Any], MRJob]


class PigMRCompiler:
    def __init__(self):
        self._seq = itertools.count(1)

    def compile(self, script: PigScript) -> list[JobStep]:
        script.validate()
        self._steps: list[JobStep] = []
        self._done: dict[int, _Pending] = {}
        self._consumer_counts = script.consumer_counts()
        self._script_tag = f"{script.name}_{next(self._seq)}"
        for rel, path in script.stores:
            pending = self._build(rel)
            self._emit_store(pending, rel, path)
        return self._steps

    # ------------------------------------------------------------ helpers
    def _tmp(self, label: str, seq: Optional[int] = None) -> str:
        seq = next(self._seq) if seq is None else seq
        return f"/tmp/pig_mr/{self._script_tag}/{label}_{seq}"

    def _job(self, label: str, feeds: list[tuple[_Pending, Callable]],
             out: str, **fields) -> None:
        """One MR job step that needs no earlier job's output: each
        ``(pending, emit)`` feed's inputs run its ops, then ``emit``."""
        sides = [([path], _pipeline(decoder, pending.ops), emit)
                 for pending, emit in feeds
                 for path, decoder in pending.inputs]
        job = map_side_job(f"{label}_{next(self._seq)}", sides, out,
                           **fields)
        self._steps.append(lambda hdfs, _j=job: _j)

    # -------------------------------------------------------- compilation
    def _build(self, rel: Relation) -> _Pending:
        cached = self._done.get(id(rel))
        if cached is not None:
            return cached
        pending = getattr(self, f"_build_{rel.op}")(rel)
        if self._consumer_counts.get(id(rel), 0) > 1:
            pending = self._materialize(pending, rel)
        self._done[id(rel)] = pending
        return pending

    def _materialize(self, pending: _Pending, rel: Relation) -> _Pending:
        """Shared relation: write it to a temp file once (map-only)."""
        if not pending.ops and len(pending.inputs) == 1:
            return pending   # already a plain file
        out = self._tmp(f"shared_{rel.op}")
        self._job(f"shared_{rel.op}", [(pending, _identity_rows)], out)
        return _Pending([(out, _identity_rows)], [])

    def _build_load(self, rel: Relation) -> _Pending:
        fields = tuple_fields(rel.schema)

        def decoder(records, _f=fields):
            return rows_of(records, _f)

        return _Pending([(rel.params["path"], decoder)], [])

    def _build_filter(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        pred = rel.params["predicate"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _p=pred: [r for r in rows if _p(r)]
        ])

    def _build_foreach(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        fn = rel.params["fn"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _f=fn: [_f(r) for r in rows]
        ])

    def _build_flatten(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        fn = rel.params["fn"]
        return _Pending(pending.inputs, pending.ops + [
            lambda rows, _f=fn: [o for r in rows for o in _f(r)]
        ])

    def _build_union(self, rel: Relation) -> _Pending:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        if left.ops or right.ops:
            # Normalize both sides to plain files so a single job can
            # read the union.
            out_l = self._tmp("union_l")
            out_r = self._tmp("union_r")
            if left.ops:
                self._job("union_side", [(left, _identity_rows)], out_l)
                left = _Pending([(out_l, _identity_rows)], [])
            if right.ops:
                self._job("union_side", [(right, _identity_rows)], out_r)
                right = _Pending([(out_r, _identity_rows)], [])
        return _Pending(left.inputs + right.inputs, [])

    def _build_group(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        keys = rel.params["keys"]
        out = self._tmp("group")

        def emit(rows, _k=keys):
            return list(zip(key_tuples(rows, _k), rows))

        def reducer(key, rows, _k=keys):
            return [{
                "group": key if len(_k) > 1 else key[0],
                "bag": list(rows),
            }]

        self._job("group", [(pending, emit)], out, reducer=reducer,
                  num_reducers=DEFAULT_PARALLEL)
        return _Pending([(out, _identity_rows)], [])

    def _build_aggregate(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        keys = rel.params["keys"]
        out = self._tmp("agg")
        agg = aggregation(keys, rel.params["aggs"])
        reducers = DEFAULT_PARALLEL if keys else 1
        self._job("agg", [(pending, agg.partial)], out, reducer=agg.reducer,
                  num_reducers=reducers, combiner=agg.combiner)
        return _Pending([(out, _identity_rows)], [])

    def _build_distinct(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        schema = list(rel.schema)
        out = self._tmp("distinct")

        def emit(rows, _s=schema):
            return list(zip(key_tuples(rows, _s), repeat(None)))

        def reducer(key, _values, _s=schema):
            return [dict(zip(_s, key))]

        self._job("distinct", [(pending, emit)], out, reducer=reducer,
                  num_reducers=DEFAULT_PARALLEL)
        return _Pending([(out, _identity_rows)], [])

    def _build_join(self, rel: Relation) -> _Pending:
        left = self._build(rel.parents[0])
        right = self._build(rel.parents[1])
        lk, rk = rel.params["left_keys"], rel.params["right_keys"]
        how = rel.params["how"]
        right_only = [c for c in rel.parents[1].schema
                      if c not in rel.parents[0].schema]
        out = self._tmp("join")

        def emit_side(tag, keys):
            def emit(rows, _t=tag, _k=keys):
                return list(zip(key_tuples(rows, _k), zip(repeat(_t), rows)))
            return emit

        reducer = join_reducer(
            dict.fromkeys(right_only) if how == "left" else None,
            project=right_only)
        self._job(
            "join",
            [(left, emit_side("L", lk)), (right, emit_side("R", rk))],
            out, reducer=reducer, num_reducers=DEFAULT_PARALLEL,
        )
        return _Pending([(out, _identity_rows)], [])

    def _build_order(self, rel: Relation) -> _Pending:
        """The 3-step MR order-by the paper describes: sample job →
        client-side histogram → range-partitioned sort job."""
        pending = self._build(rel.parents[0])
        if pending.ops or len(pending.inputs) > 1:
            staged = self._tmp("presort")
            self._job("presort", [(pending, _identity_rows)], staged)
            pending = _Pending([(staged, _identity_rows)], [])
        keys = rel.params["keys"]
        ascending = rel.params["ascending"]
        parallel = rel.params["parallel"]
        rate = SAMPLE_RATE
        sample_out = self._tmp("sample")

        def sample_emit(rows, _k=keys, _r=rate):
            return list(zip(repeat(0), key_tuples(rows[::_r], _k)))

        def sample_reducer(_key, samples):
            return [{"sample": list(samples)}]

        self._job("sample", [(pending, sample_emit)], sample_out,
                  reducer=sample_reducer)

        # The sort job is built later but named now, from the counter
        # value its output path draws: the same name in every process,
        # and no later name shifts.
        sort_seq = next(self._seq)
        sort_out = self._tmp("sorted", sort_seq)
        [(src_path, src_decoder)] = pending.inputs

        def build_sort_job(hdfs, _sample=sample_out, _src=src_path,
                           _dec=src_decoder, _k=keys, _asc=ascending,
                           _p=parallel, _out=sort_out,
                           _name=f"ordersort_{sort_seq}"):
            # Client-side histogram from the sample artifact.
            sample_rows = hdfs.read_file(_sample)
            sample = sample_rows[0]["sample"] if sample_rows else []
            partitioner = RangePartitioner.from_sample(
                sorted(sample, key=sort_key), _p
            )

            def emit(rows, _kk=_k):
                return list(zip(key_tuples(rows, _kk), rows))

            order = [(k, _asc) for k in _k]

            def reducer(key, rows):
                return order_rows(rows, order)

            class _Oriented(RangePartitioner):
                def __init__(self, base, asc):
                    super().__init__(base.boundaries)
                    self._asc = asc

                def partition(self, key, num_partitions):
                    idx = super().partition(key, num_partitions)
                    if not self._asc:
                        idx = num_partitions - 1 - idx
                    return idx

            return map_side_job(
                _name, [([_src], _dec, emit)], _out, reducer=reducer,
                num_reducers=_p, partitioner=_Oriented(partitioner, _asc),
                descending_sort=not _asc,
            )

        self._steps.append(build_sort_job)
        return _Pending([(sort_out, _identity_rows)], [])

    def _build_limit(self, rel: Relation) -> _Pending:
        pending = self._build(rel.parents[0])
        n = rel.params["n"]
        out = self._tmp("limit")

        def emit(rows, _n=n):
            return [(0, r) for r in rows[:_n]]

        def reducer(_key, rows, _n=n):
            return list(rows)[:_n]

        self._job("limit", [(pending, emit)], out, reducer=reducer)
        return _Pending([(out, _identity_rows)], [])

    # ------------------------------------------------------------- stores
    def _emit_store(self, pending: _Pending, rel: Relation,
                    path: str) -> None:
        schema = list(rel.schema)

        def emit(rows, _s=schema):
            return key_tuples(rows, _s)

        self._job("store", [(pending, emit)], path)


def _identity_rows(records):
    return list(records)


def _pipeline(decoder: Callable, ops: list[Callable]) -> Callable:
    """records -> rows: decode a split, then run the fused ops."""
    def to_rows(records):
        rows = decoder(records)
        for op in ops:
            rows = op(rows)
        return rows
    return to_rows


def run_pig_on_mr(script: PigScript,
                  runner: MapReduceYarnRunner) -> Generator:
    """Process: compile and run a script on MapReduce.

    Returns {store path: rows-as-tuples} plus per-job results on the
    generator's return value: (outputs, job_results).
    """
    compiler = PigMRCompiler()
    steps = compiler.compile(script)
    results = []
    for step in steps:
        job = step(runner.hdfs)
        result = yield from runner.run_job(job)
        results.append(result)
        if not result.succeeded:
            raise RuntimeError(
                f"pig-on-mr job {job.name} failed: {result.diagnostics}"
            )
    outputs = {
        path: runner.hdfs.read_file(path)
        for _rel, path in script.stores
    }
    return outputs, results
