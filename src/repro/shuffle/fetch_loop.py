"""The one loop every shuffle consumer fetches through (paper 4.1,
4.3): Tez fetching inputs, the MapReduce reducer and the Spark service
stage supply only their arrivals and their hook for a lost spill."""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from ..sim import Store
from .fetcher import FetchFailure, Fetcher

__all__ = ["gather"]


def gather(fetcher: Fetcher, expected: int, ready: Iterable = (),
           inbox: Optional[Store] = None, *, inline: bool = False,
           name: str = "", on_failure: Optional[Callable] = None,
           ) -> Generator:
    """Process body: fetch ``(key, version, ref)`` arrivals - ``ready``
    in order, then ``inbox`` - until ``expected`` keys are held; returns
    each key's records and key kind, in first-held order. A key held at
    the same or a newer version is skipped, a newer one replaced in
    place. ``inline`` fetches in this frame (and drains ``inbox``
    without a getter), else in a child process ``name``. A
    :class:`FetchFailure` drops the key and calls ``on_failure(key,
    version, ref)``, or propagates with no hook."""
    held: dict = {}     # key -> (version, records, key kind)
    ready = iter(ready)
    while len(held) < expected:
        arrival = next(ready, None)
        if arrival is None:
            if inline and inbox.items:
                arrival = inbox.items.popleft()
            else:
                arrival = yield inbox.get()
        key, version, ref = arrival
        prev = held.get(key)
        if prev is not None and prev[0] >= version:
            continue  # a stale duplicate
        fetch = fetcher.fetch(ref)
        try:
            if inline:
                records = yield from fetch
            else:
                records = yield fetcher.env.process(fetch, name=name)
        except FetchFailure:
            held.pop(key, None)
            if on_failure is None:
                raise
            on_failure(key, version, ref)
            continue
        held[key] = (version, records, ref.key_kind)
    return ([records for _version, records, _kind in held.values()],
            [kind for _version, _records, kind in held.values()])
