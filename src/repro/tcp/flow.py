"""A flow: sender + receiver bound to a network, plus measurement hooks.

Every experiment in the paper boils down to "run these flows over this
network and measure throughput/delay/loss over time"; :class:`Flow` is that
unit, and :class:`FlowStats` the measured outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.netsim.packet import MSS_BYTES
from repro.netsim.topo import PathConfig, PathView
from repro.tcp.cc_base import CongestionControl, make_scheme
from repro.tcp.socket import TcpReceiver, TcpSender


@dataclass
class FlowStats:
    """Aggregate and time-series measurements of one finished flow."""

    flow_id: int
    scheme: str
    duration: float
    #: average delivery rate at the receiver, bits/second
    avg_throughput_bps: float
    #: mean one-way delay, seconds
    avg_owd: float
    #: mean RTT observed at the sender, seconds
    avg_rtt: float
    #: 95th-percentile one-way delay proxy (max observed scaled), seconds
    p95_owd: float
    loss_rate: float
    retransmits: int
    #: per-sample time series (sampled on a fixed grid)
    times: List[float] = field(default_factory=list)
    throughput_series: List[float] = field(default_factory=list)
    cwnd_series: List[float] = field(default_factory=list)
    rtt_series: List[float] = field(default_factory=list)
    owd_series: List[float] = field(default_factory=list)


class Flow:
    """Sender/receiver pair attached to a shared :class:`~repro.netsim.topo.PathView`."""

    __slots__ = (
        "cc",
        "network",
        "flow_id",
        "start_at",
        "receiver",
        "sender",
        "_sample_times",
        "_thr_samples",
        "_cwnd_samples",
        "_rtt_samples",
        "_owd_samples",
        "_last_bytes",
        "_last_sample_t",
        "_last_owd_sum",
        "_last_owd_count",
    )

    def __init__(
        self,
        network: PathView,
        flow_id: int,
        scheme,
        min_rtt: float,
        start_at: float = 0.0,
        initial_cwnd: float = 10.0,
        size_bytes: Optional[int] = None,
    ) -> None:
        """
        Parameters
        ----------
        scheme:
            Either a scheme name (looked up in the registry) or a
            ready-made :class:`CongestionControl` instance.
        min_rtt:
            Propagation RTT of this flow's path, seconds.
        start_at:
            Absolute simulation time at which the flow begins sending.
        size_bytes:
            Total bytes to transfer, or None for an unbounded flow. Finite
            flows stop themselves once the final packet is acked; the
            completion time is on ``sender.completed_at``.
        """
        if isinstance(scheme, CongestionControl):
            self.cc = scheme
        else:
            self.cc = make_scheme(scheme)
        self.network = network
        self.flow_id = flow_id
        self.start_at = start_at
        self.receiver = TcpReceiver(flow_id, network)
        size_pkts = (
            None if size_bytes is None
            else max(int(-(-size_bytes // MSS_BYTES)), 1)
        )
        self.sender = TcpSender(
            flow_id, network, self.cc,
            initial_cwnd=initial_cwnd, size_pkts=size_pkts,
        )
        network.attach_flow(
            flow_id,
            PathConfig(min_rtt=min_rtt),
            data_sink=self.receiver.on_data,
            ack_sink=self.sender.on_ack,
        )
        # time-series sampling state
        self._sample_times: List[float] = []
        self._thr_samples: List[float] = []
        self._cwnd_samples: List[float] = []
        self._rtt_samples: List[float] = []
        self._owd_samples: List[float] = []
        self._last_bytes = 0
        self._last_sample_t = start_at
        self._last_owd_sum = 0.0
        self._last_owd_count = 0

    def start(self) -> None:
        self.sender.start(at=self.start_at)

    def stop(self) -> None:
        self.sender.stop()

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Record one point of the throughput/cwnd/RTT/owd time series.

        Call on a fixed grid (the experiment runner does this); throughput
        is computed over the inter-sample interval.
        """
        now = self.network.loop.now
        interval = now - self._last_sample_t
        if interval <= 0:
            return
        delta_bytes = self.receiver.total_bytes - self._last_bytes
        thr = delta_bytes * 8.0 / interval
        owd_cnt = self.receiver.owd_count - self._last_owd_count
        owd_sum = self.receiver.owd_sum - self._last_owd_sum
        owd = owd_sum / owd_cnt if owd_cnt > 0 else (
            self._owd_samples[-1] if self._owd_samples else 0.0
        )
        self._sample_times.append(now)
        self._thr_samples.append(thr)
        self._cwnd_samples.append(self.sender.cwnd)
        self._rtt_samples.append(self.sender.srtt_or_min)
        self._owd_samples.append(owd)
        self._last_bytes = self.receiver.total_bytes
        self._last_sample_t = now
        self._last_owd_sum = self.receiver.owd_sum
        self._last_owd_count = self.receiver.owd_count

    def stats(self) -> FlowStats:
        """Summarize the flow after the experiment."""
        now = self.network.loop.now
        duration = max(now - self.start_at, 1e-9)
        sent = max(self.sender.sent_packets, 1)
        owds = sorted(self._owd_samples) if self._owd_samples else [0.0]
        p95 = owds[min(int(0.95 * len(owds)), len(owds) - 1)]
        return FlowStats(
            flow_id=self.flow_id,
            scheme=self.cc.name,
            duration=duration,
            avg_throughput_bps=self.receiver.total_bytes * 8.0 / duration,
            avg_owd=self.receiver.mean_owd,
            avg_rtt=self._mean(self._rtt_samples),
            p95_owd=p95,
            loss_rate=self.sender.lost / sent,
            retransmits=self.sender.retransmits,
            times=list(self._sample_times),
            throughput_series=list(self._thr_samples),
            cwnd_series=list(self._cwnd_samples),
            rtt_series=list(self._rtt_samples),
            owd_series=list(self._owd_samples),
        )

    @staticmethod
    def _mean(xs: List[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0
