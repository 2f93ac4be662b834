"""Shared-resource primitives built on the DES kernel.

``Resource`` is a counted semaphore (e.g. shuffle-service connection
slots); ``Store`` is an unbounded-or-bounded FIFO queue of items (e.g. a
mailbox between simulated components).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, Event

__all__ = ["Resource", "ResourceRequest", "Store"]


class ResourceRequest(Event):
    """Event that triggers when the requested capacity is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:
                pass


class Resource:
    """Counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed()  # capacity transfers to the waiter
        else:
            self._in_use -= 1


class Store:
    """FIFO item store. ``get`` blocks when empty; ``put`` when full."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def _pop_getter(self) -> Optional[Event]:
        """Oldest *live* pending getter. Cancelled getters (a consumer
        that died while blocked on ``get()`` — e.g. a crashed session
        AM's mailbox read) are skipped lazily, mirroring the kernel
        heap's lazy deletion: without this, a put would hand the item
        to the dead consumer and the next live one would starve."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter._cancelled:
                return getter
        return None

    def abandon(self) -> None:
        """Nobody will put to this store again: forget every parked
        getter and whoever waits on it, scheduling nothing. A process
        blocked on ``get()`` is then referenced by nothing the store
        holds and is freed (its generator closed) with its last other
        reference."""
        for getter in self._getters:
            getter.callbacks = []
        self._getters.clear()

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        getter = self._pop_getter()
        if getter is not None:
            getter.succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> None:
        """Fire-and-forget put for unbounded stores: no ack event, so
        callers that ignore the ack (mailbox fan-in) skip one kernel
        heap entry per item."""
        getter = self._pop_getter()
        if getter is not None:
            getter.succeed(item)
            return
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise RuntimeError("put_nowait on a full bounded store")
        self.items.append(item)

    def offer(self, item: Any) -> Optional[Event]:
        """Like :meth:`put_nowait`, but when a getter is waiting it is
        triggered *without scheduling* and returned, so a caller
        delivering a batch can wake every consumer with a single heap
        entry via ``env.schedule_many``. Returns None when the item was
        buffered (nobody waiting)."""
        getter = self._pop_getter()
        if getter is not None:
            getter._stage(item)
            return getter
        if self.capacity is not None and len(self.items) >= self.capacity:
            raise RuntimeError("offer on a full bounded store")
        self.items.append(item)
        return None

    def get(self) -> Event:
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()
        else:
            self._getters.append(ev)
        return ev
