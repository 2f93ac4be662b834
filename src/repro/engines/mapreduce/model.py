"""The MapReduce job model (paper 5.1).

``MRJob`` captures the classic contract: a mapper over input records, a
sorted & partitioned shuffle, and a reducer over grouped keys. Jobs can
be chained into pipelines (each stage writing HDFS) — exactly the shape
Hive/Pig emitted before Tez.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["MRJob", "JobResult", "map_side_job"]

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
    map_cpu_per_record: float = 1.0e-6
    reduce_cpu_per_record: float = 1.0e-6
    output_record_bytes: Optional[int] = None
    reduce_slowstart: float = 0.05             # Hadoop default
    partitioner: Optional[Any] = None          # default: stable hash
    descending_sort: bool = False              # custom key comparator
    # input path -> its own mapper; set only by ``map_side_job``.
    path_mappers: Optional[dict[str, Mapper]] = None

    def __post_init__(self):
        if self.reducer is None:
            self.num_reducers = 0
        elif self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1 with a reducer")
        if not self.input_paths:
            raise ValueError("input_paths must be non-empty")


def map_side_job(name: str, sides: list[tuple[list[str], Callable,
                                                Callable]],
                 output_path: str, **fields) -> MRJob:
    """An MRJob whose map side runs each input through its own side.

    A side is ``(paths, to_rows, emit)``: a split of any of its paths
    is turned into rows (``to_rows(records)``) and mapped to output
    records (``emit(rows)``) a split at a time, like Hive's and Pig's
    map-side operator pipelines. The first side's mapper is the job's
    ``mapper``; every path names its side's in ``path_mappers``.
    ``fields`` are the rest of the job (reducer, combiner, ...).
    """
    path_mappers: dict[str, Mapper] = {}
    input_paths: list[str] = []
    for paths, to_rows, emit in sides:
        def mapper(records, _rows=to_rows, _emit=emit):
            return _emit(_rows(records))
        mapper.batch = True
        for path in paths:
            path_mappers[path] = mapper
            input_paths.append(path)
    return MRJob(name=name, input_paths=input_paths,
                 output_path=output_path,
                 mapper=next(iter(path_mappers.values())),
                 path_mappers=path_mappers, **fields)


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
