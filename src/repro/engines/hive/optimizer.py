"""Rule + cost based optimizer (the Hive 0.14 CBO analogue, §6.1).

Rules applied, in order:

1. predicate pushdown — WHERE conjuncts sink below joins to the side
   they reference, and onto scans;
2. static partition pruning — literal predicates on a partition column
   restrict the scanned partitions at plan time;
3. column pruning — scans read only the columns the query touches;
4. statistics annotation — bottom-up row/byte estimates from catalog
   stats and textbook selectivities;
5. join strategy selection — a side estimated under the broadcast
   threshold becomes the build side of a broadcast (map) join,
   otherwise a shuffle join; inner joins swap sides so the smaller
   side builds;
6. dynamic partition pruning detection — a partitioned fact joined on
   its partition column against a *filtered* dimension is annotated so
   the Tez compiler wires runtime pruning events (paper 3.5/5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ast_nodes import (
    Between,
    BinaryOp,
    Column,
    Expr,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from .plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
)

__all__ = ["Optimizer", "OptimizerConfig"]


@dataclass
class OptimizerConfig:
    broadcast_threshold_bytes: int = 32 * 1024 * 1024
    enable_broadcast_join: bool = True
    enable_partition_pruning: bool = True
    enable_dynamic_partition_pruning: bool = True
    enable_predicate_pushdown: bool = True


def _split_conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _and_all(exprs: list[Expr]) -> Optional[Expr]:
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = BinaryOp("and", out, e)
    return out


def _aliases_of(expr: Expr) -> set[str]:
    return {c.table for c in expr.columns() if c.table}


def _subtree_aliases(node: PlanNode) -> set[str]:
    return {n.alias for n in node.walk() if isinstance(n, Scan)}


def _selectivity(expr: Expr) -> float:
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return _selectivity(expr.left) * _selectivity(expr.right)
        if expr.op == "or":
            return min(1.0, _selectivity(expr.left) + _selectivity(expr.right))
        if expr.op == "=":
            return 0.1
        if expr.op in ("!=", "<>"):
            return 0.9
        return 0.3   # range comparison
    if isinstance(expr, UnaryOp) and expr.op == "not":
        return max(0.0, 1.0 - _selectivity(expr.operand))
    if isinstance(expr, InList):
        s = min(1.0, 0.1 * len(expr.values))
        return (1 - s) if expr.negated else s
    if isinstance(expr, Between):
        return 0.7 if expr.negated else 0.3
    if isinstance(expr, Like):
        return 0.75 if expr.negated else 0.25
    return 0.5


class Optimizer:
    def __init__(self, config: Optional[OptimizerConfig] = None):
        self.config = config or OptimizerConfig()

    def optimize(self, plan: PlanNode) -> PlanNode:
        if self.config.enable_predicate_pushdown:
            plan = self._push_predicates(plan)
        if self.config.enable_partition_pruning:
            self._prune_partitions(plan)
        self._prune_columns(plan)
        self._annotate_stats(plan)
        self._choose_join_strategies(plan)
        if self.config.enable_dynamic_partition_pruning:
            self._mark_dynamic_pruning(plan)
        return plan

    # ------------------------------------------------- predicate pushdown
    def _push_predicates(self, node: PlanNode) -> PlanNode:
        for i, child in enumerate(node.children):
            node.children[i] = self._push_predicates(child)
        if not isinstance(node, Filter):
            return node
        child = node.child
        conjuncts = _split_conjuncts(node.predicate)
        remaining: list[Expr] = []
        if isinstance(child, Join):
            left_aliases = _subtree_aliases(child.left)
            right_aliases = _subtree_aliases(child.right)
            for pred in conjuncts:
                refs = _aliases_of(pred)
                if refs and refs <= left_aliases:
                    child.children[0] = self._push_predicates(
                        Filter(child.left, pred)
                    )
                elif refs and refs <= right_aliases \
                        and child.how == "inner":
                    child.children[1] = self._push_predicates(
                        Filter(child.right, pred)
                    )
                else:
                    remaining.append(pred)
        elif isinstance(child, Filter):
            merged = _and_all(conjuncts + _split_conjuncts(child.predicate))
            return self._push_predicates(Filter(child.child, merged))
        else:
            remaining = conjuncts
        rest = _and_all(remaining)
        if rest is None:
            return child
        if rest is node.predicate:
            return node
        return Filter(child, rest)

    # ------------------------------------------------- partition pruning
    def _prune_partitions(self, plan: PlanNode) -> None:
        for node in list(plan.walk()):
            if not isinstance(node, Filter):
                continue
            child = node.child
            if not isinstance(child, Scan) or not child.table.partitions:
                continue
            pc_key = f"{child.alias}.{child.table.partition_column}"
            surviving = None
            for pred in _split_conjuncts(node.predicate):
                values = self._literal_values(pred, pc_key)
                if values is not None:
                    surviving = values if surviving is None \
                        else [v for v in surviving if v in values]
            if surviving is not None:
                known = [
                    v for v in surviving if v in child.table.partitions
                ]
                child.partition_values = sorted(known)

    @staticmethod
    def _literal_values(pred: Expr, column_key: str) -> Optional[list]:
        if (
            isinstance(pred, BinaryOp) and pred.op == "="
            and isinstance(pred.left, Column)
            and pred.left.key == column_key
            and isinstance(pred.right, Literal)
        ):
            return [pred.right.value]
        if (
            isinstance(pred, BinaryOp) and pred.op == "="
            and isinstance(pred.right, Column)
            and pred.right.key == column_key
            and isinstance(pred.left, Literal)
        ):
            return [pred.left.value]
        if (
            isinstance(pred, InList) and not pred.negated
            and isinstance(pred.expr, Column)
            and pred.expr.key == column_key
            and all(isinstance(v, Literal) for v in pred.values)
        ):
            return [v.value for v in pred.values]
        return None

    # --------------------------------------------------- column pruning
    def _prune_columns(self, plan: PlanNode) -> None:
        needed: dict[str, set[str]] = {}

        def note(expr: Expr) -> None:
            for column in expr.columns():
                if column.key and "." in column.key:
                    alias, col = column.key.split(".", 1)
                    needed.setdefault(alias, set()).add(col)

        for node in plan.walk():
            if isinstance(node, Filter):
                note(node.predicate)
            elif isinstance(node, Project):
                for _name, expr in node.items:
                    note(expr)
            elif isinstance(node, Join):
                note(node.left_key)
                note(node.right_key)
            elif isinstance(node, Aggregate):
                for _name, expr in node.group_items:
                    note(expr)
                for agg in node.aggs:
                    for arg in agg.args:
                        note(arg)
        for node in plan.walk():
            if isinstance(node, Scan):
                used = needed.get(node.alias, set())
                node.needed_columns = [
                    c for c in node.table.columns if c in used
                ]
                # Keep at least one column so rows exist.
                if not node.needed_columns:
                    node.needed_columns = node.table.columns[:1]

    # -------------------------------------------------------- statistics
    def _annotate_stats(self, node: PlanNode) -> None:
        for child in node.children:
            self._annotate_stats(child)
        if isinstance(node, Scan):
            fraction = 1.0
            if node.partition_values is not None and node.table.partitions:
                fraction = len(node.partition_values) / max(
                    1, len(node.table.partitions)
                )
            ncols = len(node.needed_columns or node.table.columns)
            width = node.table.row_bytes * max(
                0.1, ncols / max(1, len(node.table.columns))
            )
            node.estimated_rows = node.table.row_count * fraction
            node.estimated_row_bytes = width
        elif isinstance(node, Filter):
            child = node.child
            node.estimated_rows = child.estimated_rows * _selectivity(
                node.predicate
            )
            node.estimated_row_bytes = child.estimated_row_bytes
        elif isinstance(node, Project):
            child = node.child
            node.estimated_rows = child.estimated_rows
            node.estimated_row_bytes = 16.0 * max(1, len(node.items))
        elif isinstance(node, Join):
            left, right = node.left, node.right
            node.estimated_rows = max(left.estimated_rows,
                                      right.estimated_rows)
            node.estimated_row_bytes = (
                left.estimated_row_bytes + right.estimated_row_bytes
            )
        elif isinstance(node, Aggregate):
            child = node.child
            if node.group_items:
                # A grouping is assumed to keep one row in ten.
                node.estimated_rows = max(1.0, child.estimated_rows / 10.0)
            else:
                node.estimated_rows = 1.0
            node.estimated_row_bytes = 16.0 * max(
                1, len(node.output_columns())
            )
        elif isinstance(node, (Sort,)):
            child = node.child
            node.estimated_rows = child.estimated_rows
            node.estimated_row_bytes = child.estimated_row_bytes
        elif isinstance(node, Limit):
            child = node.child
            node.estimated_rows = min(float(node.n), child.estimated_rows)
            node.estimated_row_bytes = child.estimated_row_bytes

    # ----------------------------------------------------- join strategy
    def _choose_join_strategies(self, plan: PlanNode) -> None:
        for node in plan.walk():
            if not isinstance(node, Join):
                continue
            if not self.config.enable_broadcast_join:
                node.strategy = Join.SHUFFLE
                continue
            left_bytes = node.left.estimated_bytes
            right_bytes = node.right.estimated_bytes
            threshold = self.config.broadcast_threshold_bytes
            if node.how == "inner" and left_bytes < right_bytes \
                    and left_bytes <= threshold:
                # Swap so the small side is on the right (build side).
                node.children = [node.right, node.left]
                node.left_key, node.right_key = (
                    node.right_key, node.left_key
                )
                node.strategy = Join.BROADCAST
            elif right_bytes <= threshold:
                node.strategy = Join.BROADCAST
            else:
                node.strategy = Join.SHUFFLE

    # ------------------------------------------- dynamic partition pruning
    def _mark_dynamic_pruning(self, plan: PlanNode) -> None:
        for node in plan.walk():
            if not isinstance(node, Join) or node.how != "inner":
                continue
            fact_scan = self._partitioned_scan_for_key(
                node.left, node.left_key
            )
            if fact_scan is None:
                continue
            # Only worthwhile when the dim side is filtered.
            dim_filtered = any(
                isinstance(n, Filter) for n in node.right.walk()
            )
            if not dim_filtered:
                continue
            if fact_scan.partition_values is not None and \
                    len(fact_scan.partition_values) <= 1:
                continue  # static pruning already nailed it
            fact_scan.dpp = {
                "dim_plan": node.right,
                "dim_key": node.right_key,
                "join_id": node.node_id,
            }

    @staticmethod
    def _partitioned_scan_for_key(side: PlanNode,
                                  key: Expr) -> Optional[Scan]:
        if not isinstance(key, Column) or key.key is None:
            return None
        alias, col = key.key.split(".", 1)
        for n in side.walk():
            if isinstance(n, Scan) and n.alias == alias \
                    and n.table.partition_column == col:
                return n
        return None
