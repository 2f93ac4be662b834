"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
    Store,
)


def test_timeout_advances_clock():
    env = Environment()
    done = []
    def proc():
        yield env.timeout(5)
        done.append(env.now)
        yield env.timeout(2.5)
        done.append(env.now)
    env.process(proc())
    env.run()
    assert done == [5, 7.5]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []
    def proc():
        v = yield env.timeout(1, value="hello")
        seen.append(v)
    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []
    def waiter():
        got.append((yield ev))
    def firer():
        yield env.timeout(3)
        ev.succeed(42)
    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [42]
    assert env.now == 3


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []
    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))
    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))
    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_process_return_value():
    env = Environment()
    def child():
        yield env.timeout(2)
        return "result"
    def parent(results):
        value = yield env.process(child())
        results.append(value)
    results = []
    env.process(parent(results))
    env.run()
    assert results == ["result"]


def test_process_exception_propagates_to_parent():
    env = Environment()
    def child():
        yield env.timeout(1)
        raise RuntimeError("child died")
    def parent(caught):
        try:
            yield env.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))
    caught = []
    env.process(parent(caught))
    env.run()
    assert caught == ["child died"]


def test_unhandled_process_failure_surfaces_in_run():
    env = Environment()
    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")
    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_running_process():
    env = Environment()
    log = []
    def victim():
        try:
            yield env.timeout(100)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))
    v = env.process(victim())
    def killer():
        yield env.timeout(4)
        v.interrupt("reason")
    env.process(killer())
    env.run()
    assert log == [("interrupted", "reason", 4)]


def test_interrupt_dead_process_is_noop():
    env = Environment()
    def quick():
        yield env.timeout(1)
    p = env.process(quick())
    env.run()
    p.interrupt()  # must not raise
    env.run()


def test_run_until_time_stops_midway():
    env = Environment()
    marks = []
    def proc():
        for _ in range(10):
            yield env.timeout(1)
            marks.append(env.now)
    env.process(proc())
    env.run(until=4.5)
    assert marks == [1, 2, 3, 4]
    assert env.now == 4.5


def test_run_until_event():
    env = Environment()
    ev = env.event()
    def firer():
        yield env.timeout(7)
        ev.succeed("val")
    env.process(firer())
    assert env.run(until=ev) == "val"
    assert env.now == 7


def test_run_until_event_never_fires_raises():
    env = Environment()
    ev = env.event()
    def other():
        yield env.timeout(1)
    env.process(other())
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []
    def proc():
        t1 = env.timeout(3)
        t2 = env.timeout(5)
        yield AllOf(env, [t1, t2])
        times.append(env.now)
    env.process(proc())
    env.run()
    assert times == [5]


def test_any_of_fires_on_first():
    env = Environment()
    times = []
    def proc():
        t1 = env.timeout(3)
        t2 = env.timeout(5)
        yield AnyOf(env, [t1, t2])
        times.append(env.now)
    env.process(proc())
    env.run()
    assert times == [3]


def test_all_of_empty_is_immediate():
    env = Environment()
    done = []
    def proc():
        yield env.all_of([])
        done.append(env.now)
    env.process(proc())
    env.run()
    assert done == [0]


def test_event_ordering_fifo_at_same_time():
    env = Environment()
    order = []
    def make(i):
        def proc():
            yield env.timeout(1)
            order.append(i)
        return proc
    for i in range(5):
        env.process(make(i)())
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_yield_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    got = []
    def late():
        yield env.timeout(5)
        got.append((yield ev))
    env.process(late())
    env.run()
    assert got == ["x"]


class TestResource:
    def test_fifo_granting(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        def worker(name, hold):
            req = res.request()
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(hold)
            res.release()
            log.append((name, "end", env.now))
        env.process(worker("a", 3))
        env.process(worker("b", 2))
        env.run()
        assert log == [
            ("a", "start", 0), ("a", "end", 3),
            ("b", "start", 3), ("b", "end", 5),
        ]

    def test_capacity_parallelism(self):
        env = Environment()
        res = Resource(env, capacity=2)
        ends = []
        def worker():
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release()
            ends.append(env.now)
        for _ in range(4):
            env.process(worker())
        env.run()
        assert ends == [10, 10, 20, 20]

    def test_cancel_pending_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert r1.triggered and not r2.triggered
        r2.cancel()
        res.release()
        assert res.available == 1

    def test_release_without_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()


class TestStore:
    def test_put_get_order(self):
        env = Environment()
        store = Store(env)
        got = []
        def consumer():
            for _ in range(3):
                got.append((yield store.get()))
        def producer():
            for i in range(3):
                yield env.timeout(1)
                store.put(i)
        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [0, 1, 2]

    def test_bounded_capacity_blocks_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []
        def producer():
            yield store.put("a")
            yield store.put("b")
            times.append(env.now)
        def consumer():
            yield env.timeout(5)
            yield store.get()
        env.process(producer())
        env.process(consumer())
        env.run()
        assert times == [5]

    def test_get_before_put(self):
        env = Environment()
        store = Store(env)
        got = []
        def consumer():
            got.append((yield store.get()))
        env.process(consumer())
        def producer():
            yield env.timeout(2)
            store.put("late")
        env.process(producer())
        env.run()
        assert got == ["late"]

    def test_abandon_frees_the_parked_reader_and_schedules_nothing(self):
        env = Environment()
        store = Store(env)
        closed = []
        def reader():
            try:
                yield store.get()
            finally:
                closed.append(env.now)
        env.process(reader())       # not kept: only the getter holds it
        env.run()
        pushes = env.heap_pushes
        gc.disable()
        try:
            store.abandon()
            assert closed == [0.0]      # freed by reference count
        finally:
            gc.enable()
        assert env.heap_pushes == pushes
        store.put("late")               # nobody is handed the item
        env.run()
        assert list(store.items) == ["late"]


class TestFastPath:
    """The hot-path kernel surface: lazy cancellation, staged batch
    scheduling, callback-only timers and ack-free store puts."""

    def test_cancelled_event_callbacks_never_run(self):
        env = Environment()
        fired = []
        ev = env.call_later(5, lambda: fired.append("a"))
        env.call_later(7, lambda: fired.append("b"))
        ev.cancel()
        env.run()
        assert fired == ["b"]
        assert env.now == 7

    def test_peek_skips_cancelled_head(self):
        env = Environment()
        ev = env.call_later(1, lambda: None)
        env.call_later(4, lambda: None)
        ev.cancel()
        assert env.peek() == 4

    def test_call_later_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.call_later(-1, lambda: None)

    def test_schedule_many_is_one_heap_push(self):
        env = Environment()
        woken = []
        events = []
        for i in range(5):
            ev = Event(env)
            ev.callbacks.append(lambda e, i=i: woken.append(i))
            events.append(ev._stage(i))
        before = env.heap_pushes
        env.schedule_many(events, delay=2.0)
        assert env.heap_pushes == before + 1
        env.run()
        assert woken == [0, 1, 2, 3, 4]   # list order, back-to-back
        assert env.now == 2.0
        assert [e.value for e in events] == [0, 1, 2, 3, 4]

    def test_schedule_many_rejects_pending_events(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule_many([Event(env)])

    def test_schedule_many_interleaves_with_ordinary_events(self):
        env = Environment()
        order = []
        env.call_later(1, lambda: order.append("t1"))
        batch = [Event(env)._stage() for _ in range(2)]
        for i, ev in enumerate(batch):
            ev.callbacks.append(lambda e, i=i: order.append(f"b{i}"))
        env.schedule_many(batch, delay=1.0)
        env.call_later(0.5, lambda: order.append("t0"))
        env.run()
        assert order == ["t0", "t1", "b0", "b1"]

    def test_store_put_nowait_buffers_and_hands_off(self):
        env = Environment()
        store = Store(env)
        store.put_nowait("x")
        assert list(store.items) == ["x"]
        got = []

        def consumer():
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        store.put_nowait("y")       # getter waiting: direct hand-off
        env.run()
        assert got == ["x", "y"]

    def test_store_put_nowait_full_bounded_raises(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put_nowait("a")
        with pytest.raises(RuntimeError):
            store.put_nowait("b")

    def test_store_offer_stages_waiting_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        staged = store.offer("item")
        assert staged is not None and staged.triggered
        assert got == []            # staged, not yet scheduled
        env.schedule_many([staged])
        env.run()
        assert got == ["item"]

    def test_store_offer_buffers_when_nobody_waits(self):
        env = Environment()
        store = Store(env)
        assert store.offer("solo") is None
        assert list(store.items) == ["solo"]

    def test_heap_pushes_counts_every_push(self):
        env = Environment()
        before = env.heap_pushes
        env.call_later(1, lambda: None)
        env.call_later(2, lambda: None)
        assert env.heap_pushes == before + 2


# ------------------- the kernel's firing order vs a sorted-list reference

from bisect import insort

from hypothesis import example, given, settings, strategies as st

# A small delay pool makes exact-time ties (the insertion-order
# tiebreaker) overwhelmingly likely, next to near and far timers.
_TIE_DELAYS = [0.0, 0.001, 1.0 / 64, 1.0 / 64, 0.02, 0.5, 0.5,
               1.0, 1.5, 1.5, 3.7]

_timer_scripts = st.lists(
    st.tuples(
        st.sampled_from(_TIE_DELAYS),                         # delay
        st.one_of(st.none(), st.sampled_from(_TIE_DELAYS)),   # chained
        st.booleans(),                                        # pooled
        st.sampled_from(["keep", "cancel_now", "cancel_next"]),
    ),
    min_size=1, max_size=30,
)


class TestCollectorHold:
    """``run()`` holds CPython's cyclic collector while the loop runs
    and leaves it as it found it on every way out."""

    @staticmethod
    def _env(seen):
        env = Environment()
        def proc():
            for _ in range(3):
                yield env.timeout(1)
                seen.append(gc.isenabled())
        env.process(proc())
        return env

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("how", [
        "exhaustion", "until_time", "until_event", "ran_out_of_events",
        "escaping_exception"])
    def test_state_after_run_is_state_before(self, how, enabled):
        seen = []
        env = self._env(seen)
        (gc.enable if enabled else gc.disable)()
        try:
            if how == "exhaustion":
                env.run()
            elif how == "until_time":
                env.run(until=1.5)
            elif how == "until_event":
                env.run(until=env.timeout(2))
            elif how == "ran_out_of_events":
                with pytest.raises(SimulationError, match="ran out"):
                    env.run(until=env.event())
            else:
                def bad():
                    yield env.timeout(2)
                    raise RuntimeError("escapes")
                env.process(bad())
                with pytest.raises(RuntimeError, match="escapes"):
                    env.run()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen and not any(seen)   # held inside every callback

    def test_nested_run_does_not_release_the_hold_early(self):
        outer, inner = Environment(), Environment()
        seen = []
        def nested():
            yield outer.timeout(1)
            inner.timeout(1)
            inner.run()
            seen.append(gc.isenabled())
            yield outer.timeout(1)
            seen.append(gc.isenabled())
        outer.process(nested())
        assert gc.isenabled()
        outer.run()
        assert seen == [False, False] and gc.isenabled()

    def test_a_stored_failure_does_not_hold_its_process_in_a_cycle(self):
        """A failed process keeps its exception; the traceback must not
        lead back to a frame that holds the process."""
        env = Environment()
        def bad():
            yield env.timeout(1)
            raise RuntimeError("kept")
        def catcher():
            while True:
                child = env.process(bad())
                try:
                    yield child
                except RuntimeError as exc:
                    failures.append(exc)
                yield env.timeout(1)
        failures = []
        env.process(catcher())
        env.run(until=5)
        frames, tb = [], failures[0].__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        # Not the kernel's frame (it holds the process that stores the
        # exception) and not the catcher's (it lives on, holding
        # ``child``): the failing generator's own frames are all there.
        assert frames == ["bad"]


class _Timer:
    cancelled = False

    def cancel(self):
        self.cancelled = True


class _SortedListScheduler:
    """What the kernel's timer surface means, with none of its
    machinery: one list sorted by (time, insertion order); cancelled
    timers never fire, whenever they were cancelled; a timer is its own
    handle, so cancelling a fired one can never hit a later timer (what
    the kernel's pooled hops need generations for); a run left holding
    only cancelled timers ends in "empty schedule"."""

    def __init__(self):
        self.now, self._seq, self._timers = 0.0, 0, []

    def call_later(self, delay, fn):
        self._seq += 1
        timer = _Timer()
        insort(self._timers, (self.now + delay, self._seq, timer, fn))
        return timer

    def call_later_pooled(self, delay, fn):
        return self.call_later(delay, fn), None

    def run(self):
        while self._timers:
            while self._timers and self._timers[0][2].cancelled:
                del self._timers[0]
            if not self._timers:
                raise SimulationError("empty schedule")
            self.now, _seq, _timer, fn = self._timers.pop(0)
            fn()


def _run_timer_script(ops, env):
    """Execute a randomized schedule/cancel interleaving and return the
    (time, label) firing order."""
    order = []
    handles = []   # index -> (event, generation | None)

    def cancel(handle):
        ev, gen = handle
        if gen is None:
            ev.cancel()
        else:
            env.cancel_call(ev, gen)

    def make_fire(i, chain, action):
        def fire():
            order.append((env.now, i))
            if action == "cancel_next" and i + 1 < len(handles):
                cancel(handles[i + 1])
            if chain is not None:
                # Nested scheduling from inside a callback.
                env.call_later(
                    chain, lambda: order.append((env.now, i, "chain")))
        return fire

    for i, (delay, chain, pooled, action) in enumerate(ops):
        fire = make_fire(i, chain, action)
        if pooled:
            handles.append(env.call_later_pooled(delay, fire))
        else:
            handles.append((env.call_later(delay, fire), None))
    for (_d, _c, _p, action), handle in zip(ops, handles):
        if action == "cancel_now":
            cancel(handle)
    try:
        env.run()
    except SimulationError as exc:
        # A schedule left holding only cancelled entries raises "empty
        # schedule"; that contract is part of the compared trace.
        order.append(("error", str(exc)))
    return order


@given(_timer_scripts)
@settings(max_examples=200, deadline=None)
def test_kernel_fires_in_the_reference_schedulers_order(ops):
    """Same times, same same-time tiebreaking, same lazy-cancel and
    pooled-generation outcomes, same "empty schedule" contract, under
    random schedule/cancel/chain interleavings."""
    assert _run_timer_script(ops, Environment()) == \
        _run_timer_script(ops, _SortedListScheduler())


# ------------------------------- a process that yields what cannot be waited on

class TestUnwaitableYield:
    """A non-event yield is thrown back into the generator as a
    ``SimulationError``; whatever the generator does with it is a resume
    like any other."""

    def test_a_catcher_that_yields_again_is_waited_on(self):
        env = Environment()
        seen = []
        def sloppy():
            try:
                yield 42
            except SimulationError as exc:
                seen.append(str(exc))
            yield env.timeout(3)
            seen.append(env.now)
            return "done"
        proc = env.process(sloppy(), name="sloppy")
        assert env.run(until=proc) == "done"
        assert seen == ["process 'sloppy' yielded non-event 42", 3]

    def test_a_catcher_that_returns_completes_the_process(self):
        env = Environment()
        def sloppy():
            try:
                yield "not an event"
            except SimulationError:
                return "recovered"
        proc = env.process(sloppy())
        assert env.run(until=proc) == "recovered"
        assert proc.processed and proc.ok

    def test_a_catcher_that_yields_a_second_non_event_is_told_again(self):
        env = Environment()
        told = []
        def sloppy():
            for junk in (1, 2):
                try:
                    yield junk
                except SimulationError as exc:
                    told.append(str(exc))
        env.process(sloppy(), name="s")
        env.run()
        assert told == ["process 's' yielded non-event 1",
                        "process 's' yielded non-event 2"]

    def test_uncaught_it_fails_the_process_and_run_raises_it(self):
        env = Environment()
        def sloppy():
            yield env.timeout(1)
            yield None
        proc = env.process(sloppy(), name="sloppy")
        with pytest.raises(
                SimulationError,
                match="process 'sloppy' yielded non-event None"):
            env.run()
        assert env.now == 1 and not proc.is_alive and not proc.ok

    def test_uncaught_it_reaches_a_waiting_parent_like_any_failure(self):
        env = Environment()
        def sloppy():
            yield object
        def parent():
            try:
                yield env.process(sloppy(), name="child")
            except SimulationError as exc:
                return str(exc)
        proc = env.process(parent())
        assert env.run(until=proc) == \
            f"process 'child' yielded non-event {object!r}"

    def test_an_event_of_another_environment_stops_the_run(self):
        env, other = Environment(), Environment()
        def confused():
            yield other.timeout(1)
        env.process(confused())
        with pytest.raises(SimulationError,
                           match="belongs to another environment"):
            env.run()


# --------------------------- the dispatch loop vs the kernel it was folded from

import heapq

from repro.sim.core import (
    _PENDING,
    _PROCESSED,
    _TRIGGERED,
    _PooledEvent,
    Process,
    Timeout,
)


class _FrozenKernel(Environment):
    """The kernel as it stood before ``Environment.run`` became the one
    dispatch loop, kept verbatim as the reference: ``run`` asks
    ``peek()`` then calls ``step()``, ``step()`` calls
    ``_run_callbacks()``, and every push goes through ``_schedule``.
    The push side lives on classes the environment does not create
    alone (``Store`` builds its own ``Event``), so the frozen
    ``Timeout.__init__``, ``Process.__init__`` / ``_resume`` and
    ``Event.succeed`` / ``fail`` (``_FROZEN_PUSH_SIDE``) are patched in
    for the length of a frozen run; they are verbatim too, except that
    ``super().__init__`` is spelled ``Event.__init__`` (no class cell
    outside a class body) and that ``Process.__init__`` bumps
    ``processes_started`` where it called the process hooks that
    counter replaced.

    ``test_the_dispatch_loop_is_the_frozen_kernel`` runs generated
    kernel programs on both and compares everything either can show.
    Each of these hand mutations of ``core.py`` fails it on its own
    (three fresh-database runs each): a queue emptied by dropping
    cancelled heads falls out of the loop quietly instead of raising
    "empty schedule", or returns without putting the clock on a finite
    ``until``; a pooled hop goes back to the pool before its callbacks
    ran; ``_seq`` is bumped twice in ``Timeout.__init__`` or in
    ``Process.__init__``; ``until=<number>`` is compared with the
    head's time before cancelled heads are dropped, so the next live
    entry fires unchecked; ``>`` against ``until`` becomes ``>=``; an
    undefused failure is raised before its hop is pooled; the batch
    loop does not skip a cancelled member; ``succeed`` pushes at
    priority 0; the ``until=<event>`` check leaves the loop; "time went
    backwards" is not checked.
    """

    def _schedule(self, event, delay=0.0, priority=1):
        self._seq += 1
        heapq.heappush(self._queue,
                       (self._now + delay, priority, self._seq, event))

    def peek(self):
        queue = self._queue
        while queue:
            entry = queue[0][3]
            if entry.__class__ is not list and entry._cancelled:
                heapq.heappop(queue)
                if entry.__class__ is _PooledEvent:
                    self._event_pool.append(entry)
                continue
            return queue[0][0]
        return float("inf")

    def step(self):
        queue = self._queue
        if not queue:
            raise SimulationError("empty schedule")
        pool = self._event_pool
        while queue:
            when, _prio, _seq, entry = heapq.heappop(queue)
            if when < self._now:
                raise SimulationError("time went backwards")
            if entry.__class__ is list:
                # Batch from schedule_many: run every (uncancelled)
                # member's callbacks back-to-back on this tick.
                self._now = when
                for event in entry:
                    if event._cancelled:
                        continue
                    event._run_callbacks()
                    if event._exc is not None and not event._defused:
                        raise event._exc
                return
            if entry._cancelled:
                # Lazy deletion: skip dead timers (pop-time reclaim is
                # the only safe point to recycle a pooled hop).
                if entry.__class__ is _PooledEvent:
                    pool.append(entry)
                continue
            self._now = when
            entry._run_callbacks()
            if entry.__class__ is _PooledEvent:
                pool.append(entry)
            if entry._exc is not None and not entry._defused:
                raise entry._exc
            return

    def run(self, until=None):
        stop_event = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("cannot run into the past")

        collecting = gc.isenabled()
        gc.disable()
        try:
            while self._queue:
                if stop_event is not None and stop_event.processed:
                    return stop_event.value
                if self.peek() > stop_time:
                    self._now = stop_time
                    return None
                self.step()
        finally:
            if collecting:
                gc.enable()

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise SimulationError(
                "simulation ran out of events before `until` event triggered"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None


def _frozen_succeed(self, value=None):
    if self._state != _PENDING:
        raise SimulationError(f"{self!r} already triggered")
    self._value = value
    self._state = _TRIGGERED
    self.env._schedule(self)
    return self


def _frozen_fail(self, exc):
    if self._state != _PENDING:
        raise SimulationError(f"{self!r} already triggered")
    if not isinstance(exc, BaseException):
        raise TypeError("fail() requires an exception instance")
    self._exc = exc
    self._state = _TRIGGERED
    self.env._schedule(self)
    return self


def _frozen_timeout_init(self, env, delay, value=None):
    if delay < 0:
        raise ValueError(f"negative delay {delay}")
    Event.__init__(self, env)
    self.delay = delay
    self._value = value
    self._state = _TRIGGERED
    env._schedule(self, delay)


def _frozen_process_init(self, env, generator, name=""):
    if not hasattr(generator, "send"):
        raise TypeError("process requires a generator")
    Event.__init__(self, env)
    self.name = name or getattr(generator, "__name__", "process")
    self._generator = generator
    self._target = None  # event currently waited on
    # Bootstrap: resume on the next tick.
    init = env._hop()
    init.callbacks.append(self._resume)
    env._schedule(init)
    env.processes_started += 1


def _frozen_resume(self, event):
    if self.triggered:
        # The process already terminated (e.g. a second interrupt
        # landed after death); late wake-ups are ignored.
        event._defused = True
        return
    # Detach from the event we were waiting on (relevant for
    # interrupts arriving while waiting on something else).
    if self._target is not None and self._target is not event:
        try:
            self._target.callbacks.remove(self._resume)
        except ValueError:
            pass
    self._target = None
    self.env._active = self
    try:
        if event._exc is not None:
            event._defused = True
            exc = event._exc
            history = exc.__traceback__
            next_ev = self._generator.throw(exc)
            # Caught: the catcher's frames are not part of the
            # failure's history, and one that lives on (a loop that
            # holds the failed process) would close a cycle.
            exc.__traceback__ = history
        else:
            next_ev = self._generator.send(event._value)
    except StopIteration as stop:
        self.env._active = None
        self.succeed(stop.value)
        return
    except BaseException as exc:
        self.env._active = None
        # Without this frame in the traceback: it holds ``self``,
        # which is about to hold ``exc`` - a cycle per failure.
        self.fail(exc.with_traceback(exc.__traceback__.tb_next))
        return
    self.env._active = None

    if not isinstance(next_ev, Event):
        error = SimulationError(
            f"process {self.name!r} yielded non-event {next_ev!r}"
        )
        self._generator.throw(error)
        return
    if next_ev.env is not self.env:
        raise SimulationError("yielded event belongs to another environment")
    self._target = next_ev
    if next_ev._state == _PROCESSED:
        # Already processed: resume immediately on the next tick.
        proxy = self.env._hop()
        proxy._value = next_ev._value
        proxy._exc = next_ev._exc
        if next_ev._exc is not None:
            proxy._defused = True
        proxy.callbacks.append(self._resume)
        self.env._schedule(proxy)
    else:
        next_ev._defused = True
        next_ev.callbacks.append(self._resume)


_FROZEN_PUSH_SIDE = [
    (Event, "succeed", _frozen_succeed), (Event, "fail", _frozen_fail),
    (Timeout, "__init__", _frozen_timeout_init),
    (Process, "__init__", _frozen_process_init),
    (Process, "_resume", _frozen_resume)]


class _Boom(Exception):
    pass


# Repeated and zero delays: same-time ties and same-tick chains.
_DELAYS = [0.0, 0.0, 0.5, 0.5, 1.0, 1.5, 2.25]
_delay = st.sampled_from(_DELAYS)
_small = st.integers(0, 3)

_leaf_ops = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("rewait")),                 # already processed
    st.tuples(st.just("wait"), _small),           # a shared event
    st.tuples(st.sampled_from(["succeed", "fail"]), _small),
    st.tuples(st.just("interrupt"), _small),      # live or dead sibling
    st.tuples(st.just("timer"), _delay, st.booleans(),          # pooled
              st.sampled_from([None, None, "dead", "fails", "nests"])),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("batch"), st.sampled_from(_DELAYS + [-0.5]),
              st.integers(1, 4),
              st.one_of(st.none(), _small),       # cancelled member
              st.one_of(st.none(), _small),       # failing member ...
              st.booleans()),                     # ... defused?
    st.tuples(st.sampled_from(["put", "get", "offer", "put_nowait"]),
              st.integers(0, 1)),
)
_process = st.tuples(st.booleans(),               # catches what is thrown in
                     st.lists(_leaf_ops, max_size=6))
_ops = st.one_of(
    _leaf_ops,
    st.tuples(st.just("spawn"), _process, st.booleans()))      # joined?
_until = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("time"), _delay),
    st.tuples(st.just("shared"), _small),
    st.tuples(st.just("process"), _small),
    st.tuples(st.just("timeout"), _delay))
_kernel_programs = st.tuples(
    st.lists(st.tuples(st.booleans(), st.lists(_ops, max_size=7)),
             min_size=1, max_size=4),
    st.lists(_until, min_size=1, max_size=3),
    st.booleans())                                # collector on before?


class _ProgramRun:
    """One generated kernel program on one environment."""

    def __init__(self, env):
        self.env = env
        self.trace = []
        self.shared = [env.event() for _ in range(4)]
        self.stores = [Store(env), Store(env, capacity=1)]
        self.processes = []
        self.handles = []     # (event, generation | None)

    def note(self, label):
        self.trace.append((self.env.now, label))

    def spawn(self, name, catches, ops):
        self.note(("spawned", name))
        proc = self.env.process(self.body(name, catches, ops), name=name)
        self.processes.append(proc)
        return proc

    def body(self, me, catches, ops):
        last = None
        for i, op in enumerate(ops):
            tag = f"{me}.{i}"
            try:
                last = yield from self.perform(tag, op, last)
            except (Interrupt, _Boom) as thrown:
                if not catches:
                    raise
                self.note((tag, type(thrown).__name__, str(thrown)))
        return me

    def perform(self, tag, op, last):
        env, kind = self.env, op[0]
        if kind == "timeout":
            last = env.timeout(op[1], value=tag)
            self.handles.append((last, None))
            self.note((tag, (yield last)))
        elif kind == "rewait":
            if last is not None:
                self.note((tag, "again", (yield last)))
        elif kind == "wait":
            last = self.shared[op[1]]
            self.note((tag, (yield last)))
        elif kind in ("succeed", "fail"):
            event = self.shared[op[1]]
            if not event.triggered:
                if kind == "succeed":
                    event.succeed(tag)
                else:
                    event.fail(_Boom(tag))
        elif kind == "interrupt":
            self.processes[op[1] % len(self.processes)].interrupt(tag)
        elif kind == "timer":
            self.timer(tag, *op[1:])
        elif kind == "cancel":
            if self.handles:
                event, gen = self.handles[op[1] % len(self.handles)]
                if gen is None:
                    event.cancel()
                else:
                    env.cancel_call(event, gen)
        elif kind == "batch":
            self.batch(tag, *op[1:])
        elif kind == "spawn":
            child = self.spawn(f"{tag}/child", *op[1])
            if op[2]:
                last = child
                self.note((tag, "joined", (yield child)))
        else:
            store = self.stores[op[1]]
            if kind == "put":
                yield store.put(tag)
                self.note((tag, "put"))
            elif kind == "get":
                self.note((tag, "got", (yield store.get())))
            else:
                try:
                    if kind == "put_nowait":
                        store.put_nowait(tag)
                    else:
                        staged = store.offer(tag)
                        if staged is not None:
                            env.schedule_many([staged])
                except RuntimeError as full:
                    self.note((tag, str(full)))
        return last

    def timer(self, tag, delay, pooled, twist):
        env = self.env

        def fire():
            self.note((tag, "fired"))
            if twist == "nests":
                env.run(until=env.now + 0.5)
                self.note((tag, "nested run over"))

        if pooled:
            handle = env.call_later_pooled(delay, fire)
        else:
            handle = (env.call_later(delay, fire), None)
        if twist == "fails":
            handle[0]._exc = _Boom(tag)     # undefused: run() raises it
        elif twist == "dead":
            handle[0].cancel()
        self.handles.append(handle)

    def batch(self, tag, delay, size, cancelled, failing, defused):
        members = []
        for m in range(size):
            member = Event(self.env)._stage(m)
            member.callbacks.append(
                lambda _e, m=m: self.note((tag, "member", m)))
            members.append(member)
        if cancelled is not None:
            members[cancelled % size].cancel()
        if failing is not None:
            member = members[failing % size]
            member._exc, member._defused = _Boom(f"{tag} member"), defused
        self.env.schedule_many(members, delay=delay)

    def until(self, spec):
        kind = spec[0]
        if kind == "none":
            return None
        if kind == "time":
            return self.env.now + spec[1]
        if kind == "shared":
            return self.shared[spec[1]]
        if kind == "process":
            return self.processes[spec[1] % len(self.processes)]
        return self.env.timeout(spec[1], value="until")


def _run_kernel_program(program, env):
    """Everything a run can show: per ``run()`` call its outcome, the
    clock, both counters, what is left queued and pooled, and the
    collector's state; then the firing trace. A stage that raised is
    followed by the next one, so what an escaping exception leaves
    behind is part of the comparison."""
    processes, stages, collecting = program
    run = _ProgramRun(env)
    for p, (catches, ops) in enumerate(processes):
        run.spawn(f"p{p}", catches, ops)
    shown = []
    was_enabled = gc.isenabled()
    try:
        for spec in stages:
            (gc.enable if collecting else gc.disable)()
            try:
                outcome = ("returned", env.run(until=run.until(spec)))
            except (SimulationError, Interrupt, _Boom) as exc:
                outcome = ("raised", type(exc).__name__, str(exc))
            shown.append((outcome, env.now, env.heap_pushes, env.pool_reuse,
                          env.processes_started, len(env._queue),
                          len(env._event_pool), gc.isenabled()))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    return shown, run.trace


@given(_kernel_programs)
# A dead head due before `until`, a live timer due after it.
@example(([(True, [("timer", 0.5, False, "dead"),
                   ("timer", 1.5, False, None)])],
          [("time", 1.0), ("none",)], True))
# Nothing but a dead hop: "empty schedule", or the clock on `until`.
@example(([(True, [("timer", 0.5, True, "dead")])], [("none",)], True))
@example(([(True, [("timer", 0.5, True, "dead")])],
          [("time", 1.0), ("none",)], False))
# A pooled hop that fails undefused, and hops wanted after it.
@example(([(True, [("timer", 0.5, True, "fails"), ("timeout", 1.0),
                   ("interrupt", 0), ("timeout", 0.0)])],
          [("none",), ("none",)], True))
@settings(max_examples=400, deadline=None)
def test_the_dispatch_loop_is_the_frozen_kernel(program):
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, fn in _FROZEN_PUSH_SIDE:
            patch.setattr(cls, name, fn)
        frozen = _run_kernel_program(program, _FrozenKernel())
    assert _run_kernel_program(program, Environment()) == frozen
