"""The bottleneck link: a work-conserving serializer behind an AQM buffer.

The link drains its buffer one packet at a time; a packet of size ``S`` bytes
occupies the serializer for ``8*S / rate(t)`` seconds, where ``rate`` comes
from a :class:`~repro.netsim.traces.RateProcess`. This reproduces Mahimahi's
model of a single trace-driven bottleneck.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.aqm import AQM
from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.traces import RateProcess


class Link:
    """Work-conserving bottleneck with a pluggable buffer discipline.

    Parameters
    ----------
    loop:
        The simulation event loop.
    rate:
        Capacity process (bits/second over time).
    aqm:
        The buffer/queue discipline.
    on_deliver:
        Called with each packet the instant its serialization completes
        (propagation delay is added by the :class:`~repro.netsim.network.Network`).
    """

    def __init__(
        self,
        loop: EventLoop,
        rate: RateProcess,
        aqm: AQM,
        on_deliver: Callable[[Packet], None],
    ) -> None:
        self.loop = loop
        self.rate = rate
        self.aqm = aqm
        self.on_deliver = on_deliver
        self._busy = False
        self.delivered_packets = 0
        self.delivered_bytes = 0
        #: Optional :class:`~repro.netsim.telemetry.QueueTelemetryRecorder`;
        #: None keeps the fast path untouched (event streams bit-identical).
        self.telemetry = None
        self._stalled_until = 0.0
        self.stalls = 0

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet to the bottleneck; returns False if the AQM dropped it."""
        now = self.loop.now
        self.aqm.current_rate_bps = self.rate.rate_at(now)
        accepted = self.aqm.enqueue(pkt, now)
        if accepted and self.telemetry is not None:
            self.telemetry.on_enqueue(self.aqm, pkt, now)
        if accepted and not self._busy:
            self._serve_next()
        return accepted

    # ------------------------------------------------------------------
    def schedule_stall(self, at: float, duration: float) -> None:
        """Freeze the dequeue side for ``duration`` seconds starting at ``at``.

        The buffer keeps accepting (and AQM-policing) arrivals; only service
        stops — the chaos model of a head-of-line scheduler hiccup.
        """
        if duration <= 0:
            return
        self.loop.call_later(
            max(at - self.loop.now, 0.0), lambda d=duration: self._begin_stall(d)
        )

    def _begin_stall(self, duration: float) -> None:
        self._stalled_until = self.loop.now + duration
        self.stalls += 1
        self.loop.call_later(duration, self._end_stall)

    def _end_stall(self) -> None:
        if not self._busy and self.loop.now >= self._stalled_until:
            self._serve_next()

    # ------------------------------------------------------------------
    def _serve_next(self) -> None:
        now = self.loop.now
        if now < self._stalled_until:
            self._busy = False
            return
        rate = self.rate.rate_at(now)
        self.aqm.current_rate_bps = rate
        pkt = self.aqm.dequeue(now)
        if pkt is None:
            self._busy = False
            return
        if self.telemetry is not None:
            self.telemetry.on_dequeue(pkt, now)
        self._busy = True
        tx_time = pkt.size * 8.0 / (rate if rate > 1e3 else 1e3)
        self.loop.post(tx_time, self._finish, pkt)

    def _finish(self, pkt: Packet) -> None:
        self.delivered_packets += 1
        self.delivered_bytes += pkt.size
        self.on_deliver(pkt)
        self._serve_next()

    # ------------------------------------------------------------------
    @property
    def queue_bytes(self) -> int:
        """Current backlog in bytes (excludes the packet in the serializer)."""
        return self.aqm.bytes_queued

    def queue_delay(self) -> float:
        """Current standing queueing delay estimate in seconds."""
        self.aqm.current_rate_bps = self.rate.rate_at(self.loop.now)
        return self.aqm.queue_delay_estimate()

    drops = property(lambda self: self.aqm.drops)
    ecn_marks = property(lambda self: self.aqm.ecn_marks)
