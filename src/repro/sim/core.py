"""Discrete-event simulation kernel.

A small, deterministic, SimPy-like engine. Processes are generator
coroutines that yield :class:`Event` objects; the :class:`Environment`
advances simulated time and resumes processes when the events they wait
on trigger.

The kernel is intentionally minimal but complete enough to model a
distributed cluster: one-shot events, timeouts, processes, composite
wait conditions, and interruption.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, running a dead env...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with either a value (`succeed`) or an
    exception (`fail`). Once triggered it is scheduled on the event
    queue and its callbacks run when the simulation reaches it.

    Events are ``__slots__`` records: simulations at the 10k-task scale
    allocate millions of them, and the per-instance ``__dict__`` was a
    measurable share of kernel time and memory.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_exc",
                 "_defused", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # Set True when some process waits on the event; failures on
        # events nobody waits on are surfaced by Environment.run().
        self._defused = False
        # Lazy deletion: a cancelled event stays in the heap but is
        # skipped at pop time, so cancellation is O(1) instead of an
        # O(n) heap rebuild.
        self._cancelled = False

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        # Environment._schedule(self), in this frame.
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, 1, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._state = _TRIGGERED
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(event._value)

    def cancel(self) -> None:
        """Lazily cancel this event: any heap entry already holding it
        is skipped at pop time and its callbacks never run."""
        self._cancelled = True

    def _stage(self, value: Any = None) -> "Event":
        """Trigger without scheduling (for ``Environment.schedule_many``,
        which pushes one heap entry for a whole batch of events)."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        return self

    def _run_callbacks(self) -> None:
        """Fire one member of a ``schedule_many`` batch (a single entry
        is fired by ``Environment.run`` in its own frame)."""
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at t={self.env.now}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Environment._schedule, in this frame: one
        # call per timer instead of three.
        self.env = env
        self.callbacks = []
        self._state = _TRIGGERED
        self._value = value
        self._exc = None
        self._defused = False
        self._cancelled = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, 1, seq, self))


class _PooledEvent(Event):
    """Kernel-internal recyclable hop event.

    Used for the zero-payload wake-ups the kernel schedules constantly
    (process bootstrap, interrupt hits, processed-target proxies,
    pooled ``call_later`` hops). Released back to the environment's
    pool when popped off the queue — *only* at pop time, so a
    lazily-cancelled entry still lingering in the heap can never be
    recycled out from under the queue. ``_gen`` bumps on every reuse:
    a holder that kept ``(event, gen)`` can cancel through
    :meth:`Environment.cancel_call` without ever killing the next
    tenant of the recycled object. Pooled events are never handed to
    user code as waitable events.
    """

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._gen = 0


class Process(Event):
    """A generator coroutine driven by the events it yields.

    The process itself is an event that triggers when the generator
    returns (value = return value) or raises (failure).
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("process requires a generator")
        # Event.__init__ and Environment._schedule, in this frame.
        self.env = env
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exc = None
        self._defused = False
        self._cancelled = False
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None  # event currently waited on
        # Bootstrap: resume on the next tick.
        init = env._hop()
        init.callbacks.append(self._resume)
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, 1, seq, init))
        env.processes_started += 1

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the next tick."""
        if not self.is_alive:
            return
        hit = self.env._hop()
        hit._exc = Interrupt(cause)
        hit._defused = True
        hit.callbacks.append(self._resume)
        self.env._schedule(hit, priority=0)

    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:
            # The process already terminated (e.g. a second interrupt
            # landed after death); late wake-ups are ignored.
            event._defused = True
            return
        # Detach from the event we were waiting on (relevant for
        # interrupts arriving while waiting on something else).
        target = self._target
        if target is not None and target is not event:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        env = self.env
        generator = self._generator
        exc = event._exc
        if exc is not None:
            event._defused = True
        env._active = self
        while True:
            try:
                if exc is not None:
                    history = exc.__traceback__
                    next_ev = generator.throw(exc)
                    # Caught: the catcher's frames are not part of the
                    # failure's history, and one that lives on (a loop
                    # that holds the failed process) would close a cycle.
                    exc.__traceback__ = history
                else:
                    next_ev = generator.send(event._value)
            except StopIteration as stop:
                env._active = None
                self.succeed(stop.value)
                return
            except BaseException as error:
                env._active = None
                # Without this frame in the traceback: it holds ``self``,
                # which is about to hold ``error`` - a cycle per failure.
                self.fail(error.with_traceback(error.__traceback__.tb_next))
                return
            if isinstance(next_ev, Event):
                break
            # Thrown back in; what the generator does with it (catch and
            # yield again, return, let it escape) is a resume like any
            # other.
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {next_ev!r}"
            )
        env._active = None

        if next_ev.env is not env:
            raise SimulationError("yielded event belongs to another environment")
        self._target = next_ev
        if next_ev._state == _PROCESSED:
            # Already processed: resume immediately on the next tick.
            proxy = env._hop()
            proxy._value = next_ev._value
            failure = next_ev._exc
            if failure is not None:
                proxy._exc = failure
                proxy._defused = True
            proxy.callbacks.append(self._resume)
            env._seq = seq = env._seq + 1
            heappush(env._queue, (env._now, 1, seq, proxy))
        else:
            next_ev._defused = True
            next_ev.callbacks.append(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name} alive={self.is_alive}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all events must share one environment")
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev._defused = True
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self.events if ev._state != _PENDING and ev.ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as one component event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed(self._collect())


class Environment:
    """Owns the clock and the event queue; executes the simulation.

    The queue is one ``heapq`` over every entry, totally ordered by
    ``(time, priority, seq)``.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active: Optional[Process] = None
        # Recyclable kernel hop events (see _PooledEvent).
        self._event_pool: list[_PooledEvent] = []
        self._pool_reuse = 0
        # Every Process ever created, counted where it is created: no
        # call out of the kernel per process (telemetry reads it as
        # ``sim.processes_started``).
        self.processes_started = 0
        # Observability: ambient telemetry handle (set by
        # repro.telemetry.Telemetry.install).
        self.telemetry = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def heap_pushes(self) -> int:
        """Total entries ever scheduled.

        Counter semantics: ``_seq`` is bumped exactly once per
        scheduled entry — timeouts, event triggers, pooled hops and
        ``schedule_many`` batches (one bump per batch) — at insert
        time. Entries that are later lazily cancelled and skipped at
        pop **stay counted**: the push happened and its cost was paid.
        """
        return self._seq

    @property
    def timer_wheel_hits(self) -> int:
        """Always 0: there is no timer wheel. Read by
        ``benchmarks/ledger/run.py``; goes when the ledger stops
        reading it."""
        return 0

    @property
    def pool_reuse(self) -> int:
        """Kernel hop events served from the recycle pool instead of
        being freshly allocated."""
        return self._pool_reuse

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._seq += 1
        heappush(self._queue,
                 (self._now + delay, priority, self._seq, event))

    def _hop(self) -> "_PooledEvent":
        """A triggered, callback-less hop event — recycled when
        available. Internal: pooled events must never escape to user
        code (release at pop assumes no outstanding references)."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._state = _TRIGGERED
            ev._value = None
            ev._exc = None
            ev._defused = False
            ev._cancelled = False
            ev._gen += 1
            self._pool_reuse += 1
            return ev
        ev = _PooledEvent(self)
        ev._state = _TRIGGERED
        return ev

    def schedule_many(self, events: Iterable[Event], delay: float = 0.0,
                      priority: int = 1) -> None:
        """Schedule a batch of already-triggered events as ONE heap entry.

        All events land on the same (time, priority) bucket and their
        callbacks run back-to-back in list order — the batched fast
        path for fan-out deliveries that would otherwise each pay a
        heap push/pop. Events must already be triggered (``succeed``
        schedules individually; use :meth:`Event._stage`).
        """
        batch = [ev for ev in events]
        for ev in batch:
            if ev._state == _PENDING:
                raise SimulationError("schedule_many requires triggered events")
        if not batch:
            return
        if len(batch) == 1:
            self._schedule(batch[0], delay, priority)
            return
        self._seq += 1
        heappush(self._queue,
                 (self._now + delay, priority, self._seq, batch))

    def call_later(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` sim seconds: one heap entry, no
        generator machinery. Returns the event (cancellable)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Event(self)
        ev._state = _TRIGGERED
        ev.callbacks.append(lambda _e: fn())
        self._schedule(ev, delay)
        return ev

    def call_later_pooled(self, delay: float,
                          fn: Callable[[], None]) -> tuple[Event, int]:
        """:meth:`call_later` on a recycled hop event: returns
        ``(event, generation)``. The event object is reused after it
        fires, so holders must cancel through
        :meth:`cancel_call` with the returned generation — a plain
        ``event.cancel()`` on a recycled hop would kill its next
        tenant."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = self._hop()
        ev.callbacks.append(lambda _e: fn())
        self._schedule(ev, delay)
        return ev, ev._gen

    def cancel_call(self, ev: Event, gen: int) -> None:
        """Generation-guarded lazy cancel of a pooled hop: a no-op when
        the hop already fired and was re-issued to someone else."""
        if getattr(ev, "_gen", None) == gen:
            ev._cancelled = True

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf.

        Pops lazily-cancelled entries off the head so the reported
        time is that of a live event.
        """
        queue = self._queue
        while queue:
            entry = queue[0][3]
            if entry.__class__ is not list and entry._cancelled:
                heappop(queue)
                if entry.__class__ is _PooledEvent:
                    self._event_pool.append(entry)
                continue
            return queue[0][0]
        return float("inf")

    def run(self, until: Any = None) -> Any:
        """Run until the given time, event, or queue exhaustion.

        ``until`` may be ``None`` (run to exhaustion), a number (run to
        that simulated time: every entry due at or before it fires, the
        clock ends on it), or an :class:`Event` (run until it is
        processed and return its value, or raise its failure).

        This is the kernel's one dispatch loop: dropping cancelled
        heads, the ``until`` checks, the pop, the clock, the callbacks
        and the recycling of a pooled hop all happen in this frame
        (DESIGN.md "Hot paths & event coalescing"). A lazily-cancelled
        entry is dropped, and a pooled hop goes back to the pool, only
        when popped off the head. A queue left holding nothing but
        cancelled entries is an "empty schedule" error, unless a finite
        ``until`` gives the run somewhere to stop.

        CPython's cyclic collector is held for as long as the loop runs
        and put back as it was found on every way out (DESIGN.md "The
        host collector"): a simulation allocates millions of long-lived
        container objects, so allocation-count thresholds keep
        triggering heap scans that find nothing to free. Nothing is
        collected on exit; the next allocation threshold outside the
        loop does that.
        """
        stop_event: Optional[Event] = None
        stop_time = never = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("cannot run into the past")

        queue, pool, pop = self._queue, self._event_pool, heappop
        collecting = gc.isenabled()
        gc.disable()
        try:
            while queue:
                if stop_event is not None and stop_event._state == _PROCESSED:
                    return stop_event.value
                when, _prio, _seq, entry = queue[0]
                kind = entry.__class__
                if kind is not list and entry._cancelled:
                    pop(queue)
                    if kind is _PooledEvent:
                        pool.append(entry)
                    if queue:
                        continue
                    if stop_time == never:
                        raise SimulationError("empty schedule")
                    break
                if when > stop_time:
                    break
                pop(queue)
                if when < self._now:
                    raise SimulationError("time went backwards")
                self._now = when
                if kind is list:
                    # Batch from schedule_many: run every (uncancelled)
                    # member's callbacks back-to-back on this tick.
                    for event in entry:
                        if event._cancelled:
                            continue
                        event._run_callbacks()
                        if event._exc is not None and not event._defused:
                            raise event._exc
                    continue
                entry._state = _PROCESSED
                callbacks = entry.callbacks
                entry.callbacks = []
                for callback in callbacks:
                    callback(entry)
                if kind is _PooledEvent:
                    pool.append(entry)
                if entry._exc is not None and not entry._defused:
                    raise entry._exc
        finally:
            if collecting:
                gc.enable()

        if stop_event is not None:
            if stop_event._state == _PROCESSED:
                return stop_event.value
            raise SimulationError(
                "simulation ran out of events before `until` event triggered"
            )
        if stop_time != never:
            self._now = stop_time
        return None
