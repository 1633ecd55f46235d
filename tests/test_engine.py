"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.netsim.engine import EventLoop, Timer


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.call_at(2.0, lambda: fired.append("b"))
    loop.call_at(1.0, lambda: fired.append("a"))
    loop.call_at(3.0, lambda: fired.append("c"))
    loop.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for i in range(5):
        loop.call_at(1.0, lambda i=i: fired.append(i))
    loop.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_advances_clock_even_with_no_events():
    loop = EventLoop()
    loop.run_until(5.0)
    assert loop.now == 5.0


def test_run_until_does_not_fire_future_events():
    loop = EventLoop()
    fired = []
    loop.call_at(2.0, lambda: fired.append("x"))
    loop.run_until(1.0)
    assert fired == []
    loop.run_until(2.0)
    assert fired == ["x"]


def test_call_later_is_relative_to_now():
    loop = EventLoop()
    times = []
    loop.call_at(1.0, lambda: loop.call_later(0.5, lambda: times.append(loop.now)))
    loop.run_until(3.0)
    assert times == [pytest.approx(1.5)]


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    handle = loop.call_at(1.0, lambda: fired.append("x"))
    handle.cancel()
    loop.run_until(2.0)
    assert fired == []


def test_cancel_one_of_several_at_same_time():
    loop = EventLoop()
    fired = []
    h1 = loop.call_at(1.0, lambda: fired.append(1))
    loop.call_at(1.0, lambda: fired.append(2))
    h1.cancel()
    loop.run_until(1.0)
    assert fired == [2]


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.call_at(4.0, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_later(-1.0, lambda: None)


def test_events_scheduled_during_run_fire_in_same_run():
    loop = EventLoop()
    fired = []

    def chain():
        fired.append(loop.now)
        if loop.now < 0.5:
            loop.call_later(0.1, chain)

    loop.call_at(0.1, chain)
    loop.run_until(1.0)
    assert len(fired) >= 5


def test_pending_counts_only_live_events():
    loop = EventLoop()
    h1 = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    h1.cancel()
    assert loop.pending() == 1


def test_peek_time_skips_cancelled():
    loop = EventLoop()
    h1 = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    h1.cancel()
    assert loop.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventLoop().peek_time() is None


def test_run_all_drains_everything():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, lambda: loop.call_later(1.0, lambda: fired.append("deep")))
    loop.run_all()
    assert fired == ["deep"]


def test_now_monotone_across_runs():
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.run_until(2.0)
    t1 = loop.now
    loop.run_until(3.0)
    assert loop.now >= t1


def test_run_all_keeps_the_first_event_past_the_hard_limit():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, lambda: fired.append("in"))
    loop.call_at(5.0, lambda: fired.append("past"))
    loop.run_all(hard_limit=2.0)
    assert fired == ["in"]
    assert loop.pending() == 1
    loop.run_until(6.0)
    assert fired == ["in", "past"]


def test_post_dispatches_fn_of_arg_in_key_order():
    loop = EventLoop()
    fired = []
    loop.post(2.0, fired.append, "b")
    loop.post(1.0, fired.append, "a")
    loop.call_at(2.0, lambda: fired.append("c"))
    loop.post(1.0, fired.append, "a2")
    loop.run_until(2.0)
    assert fired == ["a", "a2", "b", "c"]
    with pytest.raises(ValueError):
        loop.post(-0.1, fired.append, "x")


# -- Timer -------------------------------------------------------------------


class _CancelPushTimer:
    """The reference: what ``TcpSender`` did before — cancel + ``call_later``."""

    def __init__(self, loop, callback):
        self.loop = loop
        self.callback = callback
        self.handle = None

    def arm(self, delay):
        self.cancel()
        self.handle = self.loop.call_later(delay, self._fire)

    def cancel(self):
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def _fire(self):
        self.handle = None
        self.callback()


def _play(timer_cls, seed):
    """Run one seeded script of arm / re-arm / cancel / plain events.

    Every time is a multiple of 1/4 s and every delay comes from a small
    set, so deadlines tie with plain events and with each other all the
    time; a firing timer sometimes re-arms itself, as the RTO does.
    """
    rng = random.Random(seed)
    loop = EventLoop()
    log = []
    rearm = [rng.choice((None, 0.25, 0.5, 1.0, 3.0)) for _ in range(400)]
    timers = []

    def fire(i):
        log.append(("timer", i, loop.now))
        delay = rearm.pop() if rearm else None
        if delay is not None:
            timers[i].arm(delay)

    for i in range(3):
        timers.append(timer_cls(loop, lambda i=i: fire(i)))

    def driver(step):
        op = rng.random()
        timer = timers[rng.randrange(3)]
        if op < 0.55:
            # later and earlier deadlines than the one pending, and equal ones
            timer.arm(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0)))
        elif op < 0.70:
            timer.cancel()
        else:
            delay = rng.choice((0.0, 0.25, 0.5, 1.0, 2.0))
            if op < 0.85:
                loop.call_later(delay, lambda: log.append(("plain", step, loop.now)))
            else:
                loop.post(delay, log.append, ("post", step, loop.now + delay))

    for step in range(300):
        loop.call_at(0.25 * rng.randrange(0, 200), lambda s=step: driver(s))

    clocks = []
    t = 0.0
    while t < 60.0:
        t += rng.choice((0.1, 0.25, 1.0, 2.5))
        loop.run_until(t)
        clocks.append((loop.now, loop.pending(), loop.peek_time(), len(log)))
    loop.run_all()
    return log, clocks, loop.now, next(loop._seq)


@pytest.mark.parametrize("seed", range(25))
def test_timer_fires_exactly_like_cancel_plus_call_later(seed):
    expected = _play(_CancelPushTimer, seed)
    assert any(kind == "timer" for kind, _, _ in expected[0])
    assert _play(Timer, seed) == expected


def test_timer_takes_its_tie_break_at_arm_time():
    loop = EventLoop()
    fired = []
    timer = Timer(loop, lambda: fired.append("timer"))
    timer.arm(1.0)  # entry pushed under this early key ...
    loop.call_at(2.0, lambda: fired.append("before"))
    timer.arm(2.0)  # ... but the deadline that counts was armed here
    loop.call_at(2.0, lambda: fired.append("after"))
    loop.run_until(2.0)
    assert fired == ["before", "timer", "after"]


def test_pending_counts_an_armed_timer_once_and_a_cancelled_one_never():
    loop = EventLoop()
    timer = Timer(loop, lambda: None)
    assert loop.pending() == 0
    timer.arm(1.0)
    timer.arm(3.0)  # later: no second entry
    timer.arm(0.5)  # earlier: the old entry is dead weight now
    assert loop.pending() == 1
    timer.cancel()
    assert loop.pending() == 0
    loop.run_until(5.0)
    timer.arm(1.0)
    assert loop.pending() == 1


def test_peek_time_skips_stale_timer_entries():
    loop = EventLoop()
    fired = []
    timer = Timer(loop, lambda: fired.append(loop.now))
    timer.arm(1.0)
    timer.arm(4.0)  # the heap still holds the 1.0 wake-up
    loop.call_at(2.0, lambda: None)
    assert loop.peek_time() == 2.0
    loop.run_until(3.0)
    assert loop.peek_time() == 4.0
    assert fired == []
    loop.run_all()
    assert fired == [4.0]


def test_rearming_later_does_not_grow_the_heap():
    loop = EventLoop()
    timer = Timer(loop, lambda: None)

    def ack():
        timer.arm(1.0)
        loop.call_later(0.001, ack)

    ack()
    loop.run_until(5.0)
    assert len(loop._heap) <= 3
