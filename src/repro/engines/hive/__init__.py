"""Mini-Hive (paper 5.2): SQL subset, CBO, Tez and MapReduce backends."""

from .catalog import Catalog, TableMeta
from .compiler_mr import MRCompiler
from .compiler_tez import TezCompiler
from .optimizer import Optimizer, OptimizerConfig
from .parser import ParseError, parse
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanError,
    PlanNode,
    Project,
    Scan,
    Sort,
    build_plan,
)
from .reference import execute_plan
from .session import HiveSession, QueryResult

__all__ = [
    "Aggregate",
    "Catalog",
    "Filter",
    "HiveSession",
    "Join",
    "Limit",
    "MRCompiler",
    "Optimizer",
    "OptimizerConfig",
    "ParseError",
    "PlanError",
    "PlanNode",
    "Project",
    "QueryResult",
    "Scan",
    "Sort",
    "TableMeta",
    "TezCompiler",
    "build_plan",
    "execute_plan",
    "parse",
]
