"""Shared object registry (paper section 4.2).

A per-container in-memory cache surviving across the tasks that reuse
the container. Entries are scoped to a vertex, a DAG, or the session.
When a DAG ends, its AM clears every DAG- and VERTEX-scoped entry
(``clear_scope(Scope.DAG)``) in every container it still holds: a
session AM runs one DAG at a time, so all of them are dead, a late one
a straggler of an earlier DAG put included. A VERTEX entry of
another vertex of the running DAG is dropped when a task of a different
vertex is launched in the container; SESSION entries live as long as
the container. Hive uses this to build a broadcast-join hash table once
per container.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["ObjectRegistry", "Scope"]


class Scope:
    VERTEX = "VERTEX"
    DAG = "DAG"
    SESSION = "SESSION"


# Innermost first: each scope nests inside the next.
_LEVELS = (Scope.VERTEX, Scope.DAG, Scope.SESSION)


class ObjectRegistry:
    def __init__(self):
        # key -> (scope, scope_id, value)
        self._entries: dict[str, tuple[str, str, Any]] = {}
        self.hits = 0
        self.misses = 0

    def put(self, scope: str, scope_id: str, key: str, value: Any) -> None:
        if scope not in (Scope.VERTEX, Scope.DAG, Scope.SESSION):
            raise ValueError(f"unknown scope {scope!r}")
        self._entries[key] = (scope, scope_id, value)

    def get(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[2]

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear_scope(self, scope: str,
                    scope_id: Optional[str] = None) -> None:
        """Drop all entries registered under (scope, scope_id). With no
        ``scope_id`` a whole level ends: every entry of ``scope`` and of
        the scopes inside it (a DAG's end ends its vertices too)."""
        if scope_id is None:
            ended = _LEVELS[:_LEVELS.index(scope) + 1]
            self._entries = {k: v for k, v in self._entries.items()
                             if v[0] not in ended}
            return
        self._entries = {
            k: v
            for k, v in self._entries.items()
            if not (v[0] == scope and v[1] == scope_id)
        }

    def __len__(self) -> int:
        return len(self._entries)
