"""TCP Cubic (Ha, Rhee, Xu — SIGOPS OSR 2008; the Linux default).

The window grows as a cubic function of time since the last loss,
``W(t) = C (t - K)^3 + W_max``, concave up to the previous saturation point
``W_max`` and convex beyond it. A TCP-friendliness estimate keeps Cubic at
least as aggressive as Reno at small BDPs. Cubic plays a special role in the
paper: it is the "default scheme" whose flows populate Set II, and the
TCP-friendliness reward measures fairness against it.
"""

from __future__ import annotations

from repro.tcp.cc_base import CongestionControl, register_scheme


@register_scheme
class Cubic(CongestionControl):
    """CUBIC with fast convergence and the Reno-friendly region."""

    name = "cubic"

    #: cubic scaling constant (packets/sec^3), kernel default.
    C = 0.4
    #: multiplicative decrease factor: cwnd <- 0.7 cwnd on loss.
    BETA = 0.7

    def __init__(self) -> None:
        self.w_max = 0.0
        self.k = 0.0
        self.epoch_start = -1.0
        self.w_est_acked = 0.0

    def on_init(self, sock) -> None:
        self._reset_epoch()

    def _reset_epoch(self) -> None:
        self.epoch_start = -1.0
        self.w_est_acked = 0.0

    def on_ack(self, sock, n_acked: int, rtt: float, now: float) -> None:
        if self.in_slow_start(sock):
            self.slow_start(sock, n_acked)
            return
        if self.epoch_start < 0:
            self.epoch_start = now
            if sock.cwnd < self.w_max:
                self.k = ((self.w_max - sock.cwnd) / self.C) ** (1.0 / 3.0)
            else:
                self.k = 0.0
                self.w_max = sock.cwnd
            self.w_est_acked = sock.cwnd
        t = now - self.epoch_start
        target = self.C * (t - self.k) ** 3 + self.w_max

        # Reno-friendly estimate: what a Reno flow would have by now.
        cwnd = sock.cwnd
        cwnd_or_1 = 1.0 if 1.0 > cwnd else cwnd
        self.w_est_acked += n_acked * (
            3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)
        ) / cwnd_or_1
        if self.w_est_acked > target:
            target = self.w_est_acked

        if target > cwnd:
            # Approach the cubic target over roughly one RTT.
            sock.cwnd = cwnd + (target - cwnd) / cwnd_or_1 * n_acked
        else:
            sock.cwnd = cwnd + 0.01 * n_acked / cwnd_or_1

    def ssthresh(self, sock) -> float:
        # fast convergence: release bandwidth faster when W_max shrinks
        if sock.cwnd < self.w_max:
            self.w_max = sock.cwnd * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = sock.cwnd
        self._reset_epoch()
        return max(sock.cwnd * self.BETA, self.MIN_CWND)

    def on_rto(self, sock, now: float) -> None:
        super().on_rto(sock, now)
        self.w_max = 0.0
        self._reset_epoch()
