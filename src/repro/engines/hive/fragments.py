"""Local plan-fragment execution inside distributed tasks.

Compilers cut the logical plan at distributed boundaries (shuffle
joins, aggregations, global sorts) and ship the in-between operator
pipelines into tasks. A fragment is a plan subtree whose leaves are
:class:`InputLeaf` nodes fed by the task's logical inputs; it runs
through the same operators as the reference executor
(``reference.run_operators``), with the task context for the
broadcast-join hash-table cache.
"""

from __future__ import annotations

from .plan import PlanNode
from .reference import run_operators

__all__ = ["InputLeaf", "execute_fragment"]


class InputLeaf(PlanNode):
    """Fragment leaf: rows delivered through a task input."""

    def __init__(self, name: str, broadcast: bool = False):
        super().__init__([])
        self.name = name
        self.broadcast = broadcast

    def output_columns(self) -> list[str]:
        return []

    def __repr__(self):
        return f"InputLeaf({self.name})"


def execute_fragment(node: PlanNode, inputs: dict[str, list[dict]],
                     ctx=None) -> list[dict]:
    """Run a plan fragment over the task's decoded inputs."""
    return run_operators(node, lambda leaf: inputs[leaf.name], ctx)
