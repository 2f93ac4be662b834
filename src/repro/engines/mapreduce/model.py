"""The MapReduce job model (paper 5.1).

``MRJob`` captures the classic contract: a mapper over input records, a
sorted & partitioned shuffle, and a reducer over grouped keys. Jobs can
be chained into pipelines (each stage writing HDFS) — exactly the shape
Hive/Pig emitted before Tez.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterable, Optional

from ...shuffle import group_by_key

__all__ = ["MRJob", "JobResult", "map_side_job", "DistributedCache"]

# mapper(record) -> iterable[(k, v)]
Mapper = Callable[[Any], Iterable[tuple]]
# reducer(key, [values]) -> iterable[record]
Reducer = Callable[[Any, list], Iterable[Any]]


@dataclass
class MRJob:
    name: str
    input_paths: list[str]
    output_path: str
    mapper: Mapper
    reducer: Optional[Reducer] = None          # None -> map-only job
    combiner: Optional[Reducer] = None
    num_reducers: int = 1
    output_record_bytes: Optional[int] = None
    partitioner: Optional[Any] = None          # default: stable hash
    descending_sort: bool = False              # custom key comparator
    # input path -> its own mapper; set only by ``map_side_job``.
    path_mappers: Optional[dict[str, Mapper]] = None
    # Hadoop's distributed cache: files every map task reads whole
    # before its split; a batch mapper then gets ``(records, cached)``,
    # ``cached`` a DistributedCache mapping each of these paths to its
    # records.
    cache_paths: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.reducer is None:
            self.num_reducers = 0
        elif self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1 with a reducer")
        if not self.input_paths:
            raise ValueError("input_paths must be non-empty")

    def map_split(self, records: list, path: Optional[str] = None,
                  cached: tuple = ()) -> Iterable:
        """What the map side emits for one split of ``path``: the
        path's mapper (``path_mappers``, else ``mapper``) over the
        split's records - all of them in one call if it is a batch
        mapper (``mapper.batch``; ``cached`` is passed on to it), else
        one call per record."""
        mapper = self.mapper
        if self.path_mappers is not None:
            mapper = self.path_mappers.get(path, mapper)
        if getattr(mapper, "batch", False):
            return mapper(records, *cached)
        return chain.from_iterable(map(mapper, records))

    def spill_combiner(self) -> Optional[Callable]:
        """The job's combiner as a spill takes it, ``records ->
        records`` over one key-sorted partition, or None."""
        if self.combiner is None:
            return None
        combine = self.combiner
        return lambda records: [
            kv for key, values in group_by_key(records)
            for kv in combine(key, values)]


def map_side_job(name: str, sides: list[tuple[list[str], Callable,
                                                Callable]],
                 output_path: str, **fields) -> MRJob:
    """An MRJob whose map side runs each input through its own side.

    A side is ``(paths, to_rows, emit)``: a split of any of its paths
    is turned into rows (``to_rows(records)``) and mapped to output
    records (``emit(rows)``) a split at a time, like Hive's and Pig's
    map-side operator pipelines. The first side's mapper is the job's
    ``mapper``; every path names its side's in ``path_mappers``.
    ``fields`` are the rest of the job (reducer, combiner, ...); with
    ``cache_paths`` among them every side is handed the cached rows
    too, ``to_rows(records, cached)``.
    """
    path_mappers: dict[str, Mapper] = {}
    input_paths: list[str] = []
    for paths, to_rows, emit in sides:
        def mapper(records, *cached, _rows=to_rows, _emit=emit):
            return _emit(_rows(records, *cached))
        mapper.batch = True
        for path in paths:
            path_mappers[path] = mapper
            input_paths.append(path)
    return MRJob(name=name, input_paths=input_paths,
                 output_path=output_path,
                 mapper=next(iter(path_mappers.values())),
                 path_mappers=path_mappers, **fields)


class DistributedCache(dict):
    """What a map task of a job with ``cache_paths`` gets beside its
    split: each cache path -> its records, as the task read them. Its
    ``objects`` belong to the job run, shared by every map task of it:
    what the tasks derive from the files is built once per run (a map
    join's hash table, through ``cache_get`` / ``cache_put`` as on a
    Tez task context) and dropped when the job ends."""

    __slots__ = ("objects",)

    def __init__(self, objects: dict):
        super().__init__()
        self.objects = objects

    def cache_get(self, key: str) -> Any:
        return self.objects.get(key)

    def cache_put(self, _scope, key: str, value: Any) -> None:
        self.objects[key] = value


@dataclass
class JobResult:
    name: str
    succeeded: bool
    start_time: float
    finish_time: float
    diagnostics: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.finish_time - self.start_time
