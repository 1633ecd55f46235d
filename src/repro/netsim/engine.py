"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, fn, arg)`` entries
kept in a binary heap and dispatched as ``fn(arg)``; a cancellable entry has
``fn`` = ``None`` and an :class:`EventHandle` as ``arg``. The ``sequence``
counter breaks ties deterministically so that two events scheduled for the
same instant fire in scheduling order, which keeps every simulation fully
reproducible.

Three ways to schedule, all in the one heap and the one loop:

- :meth:`EventLoop.post` — fire-and-forget ``fn(arg)``; nothing is allocated
  but the heap entry. The per-packet path (serialization, propagation, ACK
  return, pacing) uses this.
- :meth:`EventLoop.call_at` / :meth:`EventLoop.call_later` — a zero-argument
  callback behind a cancellable :class:`EventHandle`.
- :class:`Timer` — one callback that is re-armed over and over (TCP's
  retransmission timer): re-arming moves the deadline instead of leaving a
  cancelled entry behind for every ACK.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class EventHandle:
    """Handle returned by :meth:`EventLoop.call_at`; allows cancellation.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped — the standard O(1)-cancel trick.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        #: when the callback is due (for a :class:`Timer`'s entry: the
        #: timer's current deadline, which may lie past the entry's own key)
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it."""
        self.cancelled = True
        # the entry may sit in the heap long after: let it pin nothing
        self.callback = None


class EventLoop:
    """The simulation clock and event queue.

    Typical usage::

        loop = EventLoop()
        loop.call_at(1.0, lambda: print("one second"))
        loop.run_until(10.0)
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self.now: float = 0.0

    def post(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` after ``delay`` seconds; cannot be cancelled."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, arg))

    def call_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now:.6f}, when={when:.6f}"
            )
        handle = EventHandle(when, callback)
        heapq.heappush(self._heap, (when, next(self._seq), None, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # call_at's body rather than a call to it: one frame less per event
        when = self.now + delay
        handle = EventHandle(when, callback)
        heapq.heappush(self._heap, (when, next(self._seq), None, handle))
        return handle

    def run_until(self, t_end: float) -> None:
        """Run events with time <= ``t_end``; leaves ``now`` at ``t_end``."""
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            when, _, fn, arg = pop(heap)
            if fn is not None:
                self.now = when
                fn(arg)
            elif not arg.cancelled:
                self.now = when
                arg.callback()
        if t_end > self.now:
            self.now = t_end

    def run_all(self, hard_limit: float = 1e9) -> None:
        """Drain every pending event (bounded by ``hard_limit`` sim seconds)."""
        while True:
            when = self.peek_time()
            if when is None or when > hard_limit:
                break
            self.run_until(when)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(
            1 for _, _, fn, arg in self._heap if fn is not None or not arg.cancelled
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            when, _, fn, handle = heap[0]
            if fn is not None or not (handle.cancelled or handle.time > when):
                return when
            heapq.heappop(heap)
            if not handle.cancelled:
                # a re-armed Timer's early wake-up: running it fires
                # nothing, it only re-queues the timer at its deadline
                handle.callback()
        return None


class Timer:
    """A re-armable one-shot timer: cancel + ``call_later``, without the litter.

    ``arm(delay)`` behaves exactly like cancelling the previous
    ``call_later(delay, callback)`` and issuing a new one — it draws a
    sequence number from the loop *at arm time* and the callback fires at
    the position ``(deadline, sequence)`` has in the heap, ties with other
    events included. What differs is the heap traffic: the timer keeps at
    most one live entry, pushes only when it has none or the new deadline is
    earlier than that entry's, and otherwise just records ``(deadline,
    sequence)``; when the entry surfaces early it re-queues itself under the
    recorded key. Heap order depends on keys alone, so no event moves.

    The timer holds ``callback`` strongly. An owner that hands in its own
    bound method forms a cycle with it; set ``callback = None`` when done
    so that plain reference counting frees both.
    """

    __slots__ = ("_loop", "callback", "_seq", "_wake", "_wake_when", "_wake_seq")

    def __init__(self, loop: EventLoop, callback: Callable[[], None]) -> None:
        self._loop = loop
        self.callback = callback
        self._seq = -1  # tie-break drawn by the latest arm()
        #: the one live heap entry (None when idle); its ``time`` tracks the
        #: current deadline, ``(_wake_when, _wake_seq)`` is the key it has
        self._wake: Optional[EventHandle] = None
        self._wake_when = 0.0
        self._wake_seq = -1

    def arm(self, delay: float) -> None:
        """(Re)start the timer: fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        loop = self._loop
        deadline = loop.now + delay
        self._seq = next(loop._seq)
        wake = self._wake
        if wake is None:
            self._push(deadline)
        elif deadline < self._wake_when:
            wake.cancel()
            self._push(deadline)
        else:
            wake.time = deadline

    def cancel(self) -> None:
        """Stop the timer; a later :meth:`arm` starts it again."""
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    def _push(self, deadline: float) -> None:
        self._wake = wake = EventHandle(deadline, self._on_wake)
        self._wake_when = deadline
        self._wake_seq = seq = self._seq
        heapq.heappush(self._loop._heap, (deadline, seq, None, wake))

    def _on_wake(self) -> None:
        if self._wake_seq == self._seq:  # pushed by the latest arm(): due
            self._wake = None
            self.callback()
        else:  # re-armed since: move to the key that arm() recorded
            self._push(self._wake.time)
