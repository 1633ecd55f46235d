"""The TCP-like sender and receiver endpoints.

The sender implements the transport machinery every congestion-control
scheme in the paper relies on:

- sequence/cumulative-ACK reliability with a SACK-style "highest received"
  hint;
- RFC 6298 RTT estimation (srtt, rttvar, RTO) with Karn's algorithm;
- dupACK fast retransmit with NewReno partial-ACK recovery;
- RTO fallback with window collapse;
- delivery-rate sampling (the kernel's ``rate_sample``) for model-based
  schemes such as BBR2 and Westwood;
- optional pacing for rate-based schemes.

The congestion window lives on the socket (in packets, as a float) and is
mutated by the :class:`~repro.tcp.cc_base.CongestionControl` hooks, exactly
like a kernel module mutates ``tcp_sock``.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.engine import EventLoop, Timer
from repro.netsim.packet import ACK_BYTES, MSS_BYTES, Packet
from repro.netsim.topo import PathView
from repro.tcp.cc_base import CongestionControl

# Socket congestion-avoidance states (mirrors kernel TCP_CA_*).
CA_OPEN = 0
CA_RECOVERY = 1
CA_LOSS = 2

#: RTO bounds. The lower bound is well below RFC 6298's 1 s so that
#: short simulated experiments are not dominated by timer waits; the
#: qualitative behaviour (timeout >> RTT) is preserved.
RTO_MIN = 0.2
RTO_MAX = 60.0

DUPACK_THRESHOLD = 3


class TcpReceiver:
    """Receiver endpoint: reassembly cursor plus per-packet ACKs.

    With ``delayed_acks=True`` the receiver follows RFC 1122 delayed
    acknowledgments: in-order segments are ACKed every second packet or
    after ``delack_timeout`` (40 ms here, the common kernel value), while
    out-of-order segments still elicit an immediate (dup)ACK. Default off —
    per-packet ACKs give the GR unit and rate-based schemes the cleanest
    signal, and most experiments in the paper's lineage disable delacks.
    """

    __slots__ = (
        "flow_id",
        "network",
        "loop",
        "delayed_acks",
        "delack_timeout",
        "_received",
        "rcv_next",
        "max_seq_seen",
        "total_packets",
        "total_bytes",
        "owd_sum",
        "owd_count",
        "owd_max",
        "acks_sent",
        "_delack_pending",
        "_delack_timer",
    )

    def __init__(
        self,
        flow_id: int,
        network: PathView,
        delayed_acks: bool = False,
        delack_timeout: float = 0.040,
    ) -> None:
        self.flow_id = flow_id
        self.network = network
        self.loop: EventLoop = network.loop
        self.delayed_acks = delayed_acks
        self.delack_timeout = delack_timeout
        self._received = set()
        self.rcv_next = 0  # next expected sequence number
        self.max_seq_seen = -1
        self.total_packets = 0
        self.total_bytes = 0
        #: running sums for one-way delay statistics
        self.owd_sum = 0.0
        self.owd_count = 0
        self.owd_max = 0.0
        self.acks_sent = 0
        self._delack_pending: Optional[Packet] = None
        self._delack_timer = None

    def on_data(self, pkt: Packet) -> None:
        """Network callback: a data packet arrived; record it and ACK."""
        now = self.loop.now
        owd = now - pkt.sent_time
        self.owd_sum += owd
        self.owd_count += 1
        if owd > self.owd_max:
            self.owd_max = owd
        seq = pkt.seq
        received = self._received
        rcv_next = self.rcv_next
        if seq >= rcv_next and seq not in received:
            self.total_packets += 1
            self.total_bytes += pkt.size
            if seq > self.max_seq_seen:
                self.max_seq_seen = seq
            if seq == rcv_next and not received:
                rcv_next += 1  # in order, nothing buffered: the common case
            else:
                received.add(seq)
                while rcv_next in received:
                    received.discard(rcv_next)
                    rcv_next += 1
            self.rcv_next = rcv_next
        # SACK-style hole report: sequences missing below the highest seen.
        # The scan is bounded (first 128 holes within a 1024-seq horizon) so
        # a pathological overshoot cannot make ACK generation quadratic;
        # holes beyond the horizon are reported once earlier ones fill.
        max_seen = self.max_seq_seen
        if max_seen > rcv_next:
            horizon = rcv_next + 1024
            if max_seen < horizon:
                horizon = max_seen
            holes = tuple(islice(
                filterfalse(received.__contains__, range(rcv_next, horizon)), 128
            ))
        else:
            holes = ()
        # ``is_retx`` carries whether the *triggering data packet* was a
        # retransmission, so the sender can take exact per-packet RTT
        # samples while honouring Karn's algorithm.
        ack = Packet(
            self.flow_id, seq, ACK_BYTES, now, True, pkt.is_retx,
            rcv_next, max_seen, holes, pkt.sent_time,
        )
        # per-packet CE echo (DCTCP-style exact feedback)
        ack.ece = pkt.ce

        if not self.delayed_acks:
            self._emit(ack)
            return
        out_of_order = holes or seq != rcv_next - 1
        if out_of_order or pkt.ce:
            # dup/SACK/ECN information must not be delayed
            self._flush_pending()
            self._emit(ack)
            return
        if self._delack_pending is not None:
            # second in-order segment: ack both now
            self._cancel_timer()
            self._delack_pending = None
            self._emit(ack)
            return
        self._delack_pending = ack
        self._delack_timer = self.loop.call_later(
            self.delack_timeout, self._on_delack_timeout
        )

    # -- delayed-ack machinery -------------------------------------------
    def _emit(self, ack: Packet) -> None:
        self.acks_sent += 1
        self.network.send_ack(ack)

    def _cancel_timer(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _flush_pending(self) -> None:
        if self._delack_pending is not None:
            self._cancel_timer()
            pending, self._delack_pending = self._delack_pending, None
            self._emit(pending)

    def _on_delack_timeout(self) -> None:
        self._delack_timer = None
        self._flush_pending()

    @property
    def mean_owd(self) -> float:
        """Mean one-way delay of all packets seen so far (seconds)."""
        return self.owd_sum / self.owd_count if self.owd_count else 0.0


class TcpSender:
    """Sender endpoint with pluggable congestion control.

    The application model is an infinite backlog (bulk transfer), matching
    the paper's experiments.
    """

    __slots__ = (
        "flow_id",
        "network",
        "loop",
        "cc",
        "max_cwnd",
        "cwnd",
        "ssthresh",
        "ca_state",
        "snd_nxt",
        "snd_una",
        "_unacked",
        "_dup_acks",
        "_recovery_point",
        "_high_sacked",
        "_lost_set",
        "_sacked_est",
        "srtt",
        "rttvar",
        "rto",
        "min_rtt",
        "latest_rtt",
        "delivered",
        "delivered_bytes",
        "lost",
        "lost_bytes",
        "retransmits",
        "sent_packets",
        "delivery_rate",
        "max_delivery_rate",
        "_delivered_time",
        "ecn_ce_acks",
        "total_acks",
        "_rto_timer",
        "_pacing_blocked",
        "_started",
        "_stopped",
        "start_time",
        "external_cwnd_control",
        "size_pkts",
        "on_complete",
        "completed_at",
    )

    def __init__(
        self,
        flow_id: int,
        network: PathView,
        cc: CongestionControl,
        initial_cwnd: float = 10.0,
        max_cwnd: float = 4096.0,
        size_pkts: Optional[int] = None,
    ) -> None:
        if size_pkts is not None and size_pkts < 1:
            raise ValueError(f"size_pkts must be >= 1, got {size_pkts}")
        self.flow_id = flow_id
        self.network = network
        self.loop: EventLoop = network.loop
        self.cc = cc
        #: hard window cap, the analogue of the kernel's socket-buffer limit
        #: (tcp_wmem); keeps a runaway policy from flooding the simulator.
        self.max_cwnd = float(max_cwnd)

        # -- window state (packets) --
        self.cwnd = float(initial_cwnd)
        self.ssthresh = 1e9  # "infinite" until the first loss
        self.ca_state = CA_OPEN

        # -- sequence state --
        self.snd_nxt = 0  # next fresh sequence number to send
        self.snd_una = 0  # lowest unacknowledged sequence
        #: seq -> (sent_time, is_retx, delivered_snapshot, delivered_t_snapshot)
        self._unacked: Dict[int, Tuple[float, bool, int, float]] = {}
        self._dup_acks = 0
        self._recovery_point = -1
        self._high_sacked = -1
        #: sequences declared lost and not yet retransmitted (out of the pipe)
        self._lost_set: set = set()
        #: estimate of packets SACKed above snd_una (received, out of the pipe)
        self._sacked_est = 0

        # -- RTT estimation (RFC 6298) --
        self.srtt = 0.0
        self.rttvar = 0.0
        self.rto = 1.0
        self.min_rtt = float("inf")
        self.latest_rtt = 0.0

        # -- counters the GR unit samples --
        self.delivered = 0  # cumulatively acked packets
        self.delivered_bytes = 0
        self.lost = 0  # packets declared lost
        self.lost_bytes = 0
        self.retransmits = 0
        self.sent_packets = 0
        self.delivery_rate = 0.0  # latest per-ack rate sample, bits/s
        self.max_delivery_rate = 0.0
        self._delivered_time = 0.0
        self.ecn_ce_acks = 0  # ACKs carrying an ECE echo
        self.total_acks = 0

        # -- timers/pacing --
        self._rto_timer = Timer(self.loop, self._on_rto)
        self._pacing_blocked = False
        self._started = False
        self._stopped = False
        self.start_time = 0.0

        #: when set, the cwnd is frozen and driven externally (Sage's
        #: Execution block and the RL baselines use this).
        self.external_cwnd_control = False

        # -- finite flows (open-loop workloads) --
        #: total packets to send, or None for an unbounded flow
        self.size_pkts = size_pkts
        #: called with this sender once the final packet is cumulatively acked
        self.on_complete: Optional[Callable[["TcpSender"], None]] = None
        self.completed_at: Optional[float] = None

        self.cc.on_init(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at absolute simulation time ``at``."""
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True

        def _go() -> None:
            self.start_time = self.loop.now
            self._delivered_time = self.loop.now
            self._try_send()

        if at <= self.loop.now:
            _go()
        else:
            self.loop.call_at(at, _go)

    def stop(self) -> None:
        """Stop transmitting and cancel timers."""
        self._stopped = True
        self._rto_timer.cancel()
        # The timer holds our bound ``_on_rto`` and we hold the timer: drop
        # the callback, or every finished sender (with its scheme, sets and
        # network view) waits for the cyclic collector instead of being
        # freed with its flow.
        self._rto_timer.callback = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Packets actually in the network: sent minus lost minus SACKed.

        This is the kernel's ``pipe`` — declaring a packet lost or learning
        it was received out of order removes it from the pipe, otherwise a
        big drop burst would freeze the sender against its own window.
        """
        return max(len(self._unacked) - len(self._lost_set) - self._sacked_est, 0)

    @property
    def inflight_bytes(self) -> int:
        return self.inflight * MSS_BYTES

    def _try_send(self) -> None:
        unacked = self._unacked
        lost_set = self._lost_set
        size_pkts = self.size_pkts
        while not (self._stopped or self._pacing_blocked):
            # ``inflight < cwnd``, spelled out: this loop runs per packet
            pipe = len(unacked) - len(lost_set) - self._sacked_est
            if (pipe if pipe > 0 else 0) >= self.cwnd:
                break
            if size_pkts is not None and self.snd_nxt >= size_pkts:
                break
            self._transmit(self.snd_nxt, False)
            self.snd_nxt += 1
            rate = self.cc.pacing_rate(self)
            if rate is not None and rate > 0:
                self._pacing_blocked = True
                gap = MSS_BYTES * 8.0 / rate
                self.loop.post(gap, TcpSender._pacing_done, self)
                break

    def _pacing_done(self) -> None:
        self._pacing_blocked = False
        self._try_send()

    def _transmit(self, seq: int, is_retx: bool) -> None:
        now = self.loop.now
        pkt = Packet(self.flow_id, seq, MSS_BYTES, now, False, is_retx)
        pkt.ect = self.cc.ecn_capable
        self._unacked[seq] = (now, is_retx, self.delivered, self._delivered_time)
        self._lost_set.discard(seq)  # a retransmission re-enters the pipe
        self.sent_packets += 1
        if is_retx:
            self.retransmits += 1
        self.network.send_data(pkt)
        # only live senders transmit, and ``seq`` is now outstanding
        self._rto_timer.arm(self.rto)

    # ------------------------------------------------------------------
    # receiving ACKs
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet) -> None:
        """Network callback: an ACK returned from the receiver."""
        if self._stopped:
            return
        now = self.loop.now
        new_cum = ack.ack_seq
        if ack.sacked_seq > self._high_sacked:
            self._high_sacked = ack.sacked_seq

        # Exact per-packet RTT sample: every ACK echoes the send time of the
        # data packet that triggered it. Karn's algorithm: skip samples for
        # retransmitted packets.
        if not ack.is_retx and ack.ack_of_sent_time > 0:
            self._update_rtt(now - ack.ack_of_sent_time)

        if ack.ece:
            self.ecn_ce_acks += 1
            if not self.external_cwnd_control:
                self.cc.on_ecn_ack(self, now)
        self.total_acks += 1

        if new_cum > self.snd_una:
            self._process_cumulative_ack(new_cum, now)
        else:
            self._dup_acks += 1

        if self._high_sacked < self.snd_una:
            self._sacked_est = 0  # nothing received out of order
        else:
            self._update_sacked_estimate(ack)
        if ack.sack_holes or self._dup_acks >= DUPACK_THRESHOLD:
            self._sack_loss_detection(ack, now)
        self._try_send()
        if (
            self.size_pkts is not None
            and self.completed_at is None
            and self.snd_una >= self.size_pkts
        ):
            self.completed_at = now
            self.stop()
            if self.on_complete is not None:
                self.on_complete(self)

    def _update_sacked_estimate(self, ack: Packet) -> None:
        """Estimate how many packets above ``snd_una`` the receiver holds.

        Within ``[snd_una, high_sacked]`` every non-hole sequence has been
        received out of order; those packets are no longer in the network
        and must not count against the congestion window. The caller has
        checked that the range is not empty.
        """
        una = self.snd_una
        coverage_end = self._high_sacked
        # Only count SACKs inside the range the hole report actually covers.
        # The receiver's scan stops at 1024 sequences past its cumulative ack
        # or at 128 holes, whichever first — beyond that boundary we know
        # nothing, and assuming "received" there made the pipe estimate
        # collapse and the sender overrun the network.
        if ack.ack_seq + 1024 < coverage_end:
            coverage_end = ack.ack_seq + 1024
        holes = ack.sack_holes
        if len(holes) >= 128 and holes[-1] < coverage_end:
            coverage_end = holes[-1]
        if coverage_end < una:
            self._sacked_est = 0
            return
        est = coverage_end - una + 1
        if holes:
            est -= len([h for h in holes if una <= h <= coverage_end])
        self._sacked_est = est if est > 0 else 0

    def _process_cumulative_ack(self, new_cum: int, now: float) -> None:
        n_acked = 0
        newest_sent = -1.0  # most recent transmit time among non-retx acked
        newest_record = None
        newest_record_sent = -1.0
        pop_unacked = self._unacked.pop
        lost_set = self._lost_set
        for seq in range(self.snd_una, new_cum):
            rec = pop_unacked(seq, None)
            if rec is None:
                continue
            n_acked += 1
            if lost_set:
                lost_set.discard(seq)
            sent_time = rec[0]
            if sent_time > newest_record_sent:
                newest_record_sent = sent_time
                newest_record = rec
            if not rec[1] and sent_time > newest_sent:
                # Karn's algorithm: only never-retransmitted packets give RTT
                # samples, and only the most recently sent one — older packets
                # acked by the same cumulative jump sat behind a hole and
                # would inflate srtt with recovery time.
                newest_sent = sent_time

        # RTT is sampled per-ACK in on_ack; here we only report the freshest
        # cumulative sample to the CC hook (<= 0 means "no valid sample").
        best_sample = self.latest_rtt if newest_sent > 0 else -1.0
        self.snd_una = new_cum
        self._dup_acks = 0
        # Forward progress cancels any RTO exponential backoff (RFC 6298).
        if self.srtt > 0:
            rto = self.srtt + 4.0 * self.rttvar
            self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto

        if n_acked == 0:
            return

        self.delivered += n_acked
        self.delivered_bytes += n_acked * MSS_BYTES

        # Delivery-rate sample (kernel rate_sample): packets delivered since
        # the newest acked packet was sent, over the elapsed interval.
        if newest_record is not None:
            interval = now - newest_record[3]
            if interval > 1e-9:
                rate = (self.delivered - newest_record[2]) * MSS_BYTES * 8.0 / interval
                self.delivery_rate = rate
                if rate > self.max_delivery_rate:
                    self.max_delivery_rate = rate
        self._delivered_time = now

        if best_sample > 0:
            self._update_rtt(best_sample)

        if self.ca_state != CA_OPEN:
            if self.snd_una > self._recovery_point:
                # full ACK: recovery complete
                self.ca_state = CA_OPEN
                self._lost_set.clear()
                self._sacked_est = 0
            else:
                # partial ACK: retransmit the next hole (NewReno)
                self._mark_lost_and_retransmit(self.snd_una)

        if self.ca_state == CA_OPEN and not self.external_cwnd_control:
            self.cc.on_ack(self, n_acked, best_sample, now)
            cwnd = self.cwnd
            if cwnd < CongestionControl.MIN_CWND:
                cwnd = CongestionControl.MIN_CWND
            self.cwnd = self.max_cwnd if self.max_cwnd < cwnd else cwnd

        self._arm_rto()

    def _sack_loss_detection(self, ack: Packet, now: float) -> None:
        """Mark and repair holes the receiver reported (SACK scoreboard).

        A hole is declared lost once at least ``DUPACK_THRESHOLD`` packets
        above it have been received (the classic reordering guard). All lost
        holes are retransmitted in the same round, as a SACK-enabled kernel
        would, so a burst drop costs one recovery RTT instead of one RTT per
        hole. The caller skips ACKs that report no hole below the dupACK
        threshold: there is nothing to detect on those.
        """
        una = self.snd_una
        high = self._high_sacked
        holes = [
            h for h in ack.sack_holes
            if h >= una and high - h >= DUPACK_THRESHOLD
        ]
        if not holes and not (
            self._dup_acks >= DUPACK_THRESHOLD and self.ca_state == CA_OPEN
        ):
            return
        # A hole is repairable if never retransmitted, or if its last
        # retransmission is itself stale (presumed dropped as well) — without
        # the second clause a dropped retransmission deadlocks the connection
        # until an exponentially backed-off RTO.
        stale_after = max(2.0 * self.srtt, 4.0 * self.rttvar, 0.05)
        fresh = []
        for h in holes or [self.snd_una]:
            rec = self._unacked.get(h)
            if rec is None:
                continue
            if not rec[1] or (now - rec[0]) > stale_after:
                fresh.append(h)
        if not fresh:
            return
        if self.ca_state == CA_OPEN:
            self.ca_state = CA_RECOVERY
            self._recovery_point = self.snd_nxt - 1
            if not self.external_cwnd_control:
                self.cc.on_loss_event(self, now)
        # Mark every detected hole lost right away (it leaves the pipe), but
        # rate-limit actual repairs to a couple per ACK (PRR-style): a burst
        # of retransmissions would overflow the very queue that just dropped,
        # and every re-dropped retransmit stalls for a full RTO. Remaining
        # holes are re-reported by subsequent ACKs.
        for h in fresh:
            if h not in self._lost_set:
                self.lost += 1
                self.lost_bytes += MSS_BYTES
                self._lost_set.add(h)
        for h in fresh[:2]:
            self._transmit(h, True)

    def _mark_lost_and_retransmit(self, seq: int) -> None:
        rec = self._unacked.get(seq)
        if rec is not None and rec[1]:
            # Already retransmitted once in this recovery; wait for RTO.
            return
        if seq not in self._lost_set:
            self.lost += 1
            self.lost_bytes += MSS_BYTES
        self._transmit(seq, True)

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        self.latest_rtt = sample
        if sample < self.min_rtt:
            self.min_rtt = sample
        srtt = self.srtt
        if srtt == 0.0:
            srtt = sample
            rttvar = sample / 2.0
        else:
            rttvar = 0.75 * self.rttvar + 0.25 * abs(srtt - sample)
            srtt = 0.875 * srtt + 0.125 * sample
        self.srtt = srtt
        self.rttvar = rttvar
        rto = srtt + 4.0 * rttvar
        self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto

    def _arm_rto(self) -> None:
        if self._unacked and not self._stopped:
            self._rto_timer.arm(self.rto)
        else:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self._stopped or not self._unacked:
            return
        self.ca_state = CA_LOSS
        self._recovery_point = self.snd_nxt - 1
        self._dup_acks = 0
        self.lost += 1
        self.lost_bytes += MSS_BYTES
        if not self.external_cwnd_control:
            self.cc.on_rto(self, self.loop.now)
            self.cwnd = max(self.cwnd, 1.0)
        self.rto = min(self.rto * 2.0, RTO_MAX)  # exponential backoff
        # Everything outstanding is presumed lost (kernel behaviour): it
        # leaves the pipe and becomes eligible for fast retransmission, so
        # recovery restarts from a clean scoreboard.
        for seq, rec in list(self._unacked.items()):
            self._lost_set.add(seq)
            if rec[1]:
                # allow the walk of partial ACKs to retransmit it again
                self._unacked[seq] = (rec[0], False, rec[2], rec[3])
        self._transmit(self.snd_una, True)
        self._try_send()

    # ------------------------------------------------------------------
    # external cwnd control (Sage Execution block / RL baselines)
    # ------------------------------------------------------------------
    def set_cwnd(self, cwnd: float) -> None:
        """Directly set the congestion window (packets).

        Used by learned policies: the agent computes a cwnd ratio and the
        Execution block enforces it through this API (the repo's equivalent
        of the paper's TCP Pure socket option).
        """
        self.cwnd = min(max(cwnd, 1.0), self.max_cwnd)
        self._try_send()

    # -- GR-unit convenience views --------------------------------------
    @property
    def srtt_or_min(self) -> float:
        """srtt, falling back to min_rtt before the first sample."""
        if self.srtt > 0:
            return self.srtt
        return self.min_rtt if self.min_rtt != float("inf") else 0.0
