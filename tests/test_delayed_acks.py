"""Tests for RFC 1122 delayed acknowledgments."""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import PathConfig, dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.cc_base import make_scheme
from repro.tcp.socket import TcpReceiver, TcpSender


def wire(delayed, bw=12e6, rtt=0.04, buf=120_000):
    loop = EventLoop()
    net = dumbbell_topology(FlatRate(bw), TailDrop(buf), loop=loop).view(("snd", "rcv"))
    receiver = TcpReceiver(0, net, delayed_acks=delayed)
    sender = TcpSender(0, net, make_scheme("cubic"))
    net.attach_flow(0, PathConfig(min_rtt=rtt),
                    data_sink=receiver.on_data, ack_sink=sender.on_ack)
    return loop, sender, receiver


class TestDelayedAcks:
    def test_roughly_halves_ack_count(self):
        loop, s1, r1 = wire(delayed=False)
        s1.start()
        loop.run_until(4.0)
        s1.stop()
        loop2, s2, r2 = wire(delayed=True)
        s2.start()
        loop2.run_until(4.0)
        s2.stop()
        ratio = r2.acks_sent / max(r2.total_packets, 1)
        assert ratio < 0.7  # ~0.5 in steady state
        assert r1.acks_sent == r1.total_packets

    def test_transfer_still_completes(self):
        loop, sender, receiver = wire(delayed=True)
        sender.start()
        loop.run_until(4.0)
        thr = receiver.total_bytes * 8 / 4.0
        assert thr > 0.7 * 12e6

    def test_timeout_flushes_lone_segment(self):
        loop, sender, receiver = wire(delayed=True)
        sender.cwnd = 1.0  # one segment per RTT: every ack waits for delack
        sender.external_cwnd_control = True
        sender.start()
        loop.run_until(1.0)
        # sender keeps making (slow) progress: acks arrive via the 40 ms timer
        assert sender.snd_una >= 3
        assert receiver.acks_sent >= 3

    def test_loss_recovery_unimpaired(self):
        # out-of-order data must elicit immediate dupACKs despite delacks
        loop, sender, receiver = wire(delayed=True, bw=4e6, buf=9000)
        sender.start()
        loop.run_until(5.0)
        assert sender.retransmits > 0
        assert receiver.rcv_next > 300  # stream advanced through losses

    def test_rtt_inflation_bounded(self):
        loop, sender, receiver = wire(delayed=True)
        sender.start()
        loop.run_until(4.0)
        # delack adds at most its 40 ms timeout to a sample
        assert sender.srtt < 0.04 + 0.04 + 0.05
