"""Simulated YARN shuffle service and shuffle data-plane primitives."""

from .fetch_loop import gather
from .fetcher import FetchFailure, Fetcher
from .partitioner import HashPartitioner, Partitioner, RangePartitioner
from .service import (
    ShuffleError,
    ShuffleService,
    ShuffleServices,
    Spill,
    SpillLost,
    SpillRef,
)
from .sorter import (
    group_by_key,
    key_kind,
    merge_and_group,
    merge_sorted_runs,
    native,
    sort_key,
    sort_keys,
    sort_records,
)

__all__ = [
    "FetchFailure",
    "Fetcher",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ShuffleError",
    "ShuffleService",
    "ShuffleServices",
    "Spill",
    "SpillLost",
    "SpillRef",
    "gather",
    "group_by_key",
    "key_kind",
    "merge_and_group",
    "merge_sorted_runs",
    "native",
    "sort_key",
    "sort_keys",
    "sort_records",
]
