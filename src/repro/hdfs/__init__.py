"""In-memory simulated HDFS with rack-aware placement and locality."""

from .blocks import (
    DataBlock,
    DfsFile,
    estimate_record_bytes,
    estimate_records_bytes,
    record_width,
)
from .namenode import BlockUnavailable, FileNotFound, Hdfs, HdfsError

__all__ = [
    "BlockUnavailable",
    "DataBlock",
    "DfsFile",
    "FileNotFound",
    "Hdfs",
    "HdfsError",
    "estimate_record_bytes",
    "estimate_records_bytes",
    "record_width",
]
