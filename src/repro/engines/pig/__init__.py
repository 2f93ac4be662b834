"""Mini-Pig (paper 5.3): ETL dataflows on Tez and MapReduce."""

from .compiler_mr import PigMRCompiler, run_pig_on_mr
from .compiler_tez import (
    IndexPartitioner,
    PartitionerDefinedVertexManager,
    PigTezCompiler,
    PigTezConfig,
)
from .model import PigScript, Relation
from .reference import execute_script
from .runner import PigResult, PigRunner

__all__ = [
    "IndexPartitioner",
    "PartitionerDefinedVertexManager",
    "PigMRCompiler",
    "PigResult",
    "PigRunner",
    "PigScript",
    "PigTezCompiler",
    "PigTezConfig",
    "Relation",
    "execute_script",
    "run_pig_on_mr",
]
