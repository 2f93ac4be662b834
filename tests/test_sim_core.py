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

from hypothesis import given, settings, strategies as st

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
