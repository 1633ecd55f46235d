"""Tests for the extended scheme set: DCTCP (+ECN), Scalable, Compound, LP."""

import numpy as np
import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.cc_base import make_scheme
from repro.tcp.flow import Flow


class FakeSock:
    def __init__(self, cwnd=100.0, ssthresh=50.0, srtt=0.05):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.srtt = srtt
        self.srtt_or_min = srtt
        self.min_rtt = srtt
        self.rttvar = 0.001
        self.inflight = int(cwnd)
        self.delivery_rate = 10e6
        self.max_delivery_rate = 12e6
        self.delivered = 1000
        self.lost = 0
        self.sent_packets = 1000


def run_flow(scheme, bw=24e6, rtt=0.02, buf=120_000, ecn_k=None, dur=8.0):
    loop = EventLoop()
    aqm = TailDrop(buf, ecn_threshold_bytes=ecn_k)
    net = dumbbell_topology(FlatRate(bw), aqm, loop=loop).view(("snd", "rcv"))
    flow = Flow(net, 0, scheme, min_rtt=rtt)
    flow.start()
    t = 0.0
    while t < dur:
        t += 0.1
        loop.run_until(t)
        flow.sample()
    flow.stop()
    return flow, aqm


class TestEcnPlumbing:
    def test_non_ecn_flows_never_marked(self):
        flow, aqm = run_flow("cubic", ecn_k=30_000, dur=4.0)
        assert aqm.ecn_marks == 0
        assert flow.sender.ecn_ce_acks == 0

    def test_dctcp_gets_marked_and_reacts(self):
        flow, aqm = run_flow("dctcp", ecn_k=30_000, dur=6.0)
        assert aqm.ecn_marks > 0
        assert flow.sender.ecn_ce_acks > 0

    def test_ecn_threshold_validation(self):
        with pytest.raises(ValueError):
            TailDrop(10_000, ecn_threshold_bytes=0)


class TestDctcp:
    def test_keeps_queue_shallow(self):
        # with step marking at K, DCTCP's standing queue hugs K rather
        # than the full buffer
        flow, _ = run_flow("dctcp", ecn_k=30_000, buf=240_000, dur=8.0)
        max_queue_delay = 240_000 * 8 / 24e6  # 80 ms if the buffer filled
        assert flow.stats().avg_owd < 0.010 + 0.5 * max_queue_delay

    def test_still_utilizes_link(self):
        flow, _ = run_flow("dctcp", ecn_k=30_000, dur=8.0)
        assert flow.stats().avg_throughput_bps > 0.7 * 24e6

    def test_alpha_tracks_mark_fraction(self):
        cc = make_scheme("dctcp")
        sock = FakeSock(cwnd=10.0, ssthresh=5.0)
        # mark-free windows decay alpha geometrically toward zero
        for _ in range(400):
            cc.on_ack(sock, 5, 0.05, 0.0)
        assert cc.alpha < 0.2

    def test_proportional_cut(self):
        cc = make_scheme("dctcp")
        sock = FakeSock(cwnd=100.0, ssthresh=50.0)
        cc.alpha = 0.5
        cc._marks_in_window = 5
        cc._acks_in_window = 99
        before = sock.cwnd
        cc.on_ack(sock, 5, 0.05, 0.0)  # closes the window
        # cut by alpha'/2 where alpha' just updated from 0.5 toward 5/104
        assert sock.cwnd < before

    def test_loss_still_halves(self):
        cc = make_scheme("dctcp")
        sock = FakeSock(cwnd=100.0)
        assert cc.ssthresh(sock) == pytest.approx(50.0)


class TestScalable:
    def test_mimd_increase(self):
        cc = make_scheme("scalable")
        sock = FakeSock(cwnd=100.0, ssthresh=50.0)
        cc.on_ack(sock, 100, 0.05, 0.0)
        assert sock.cwnd == pytest.approx(101.0)  # 0.01 * 100 acks

    def test_gentle_decrease(self):
        cc = make_scheme("scalable")
        sock = FakeSock(cwnd=100.0)
        assert cc.ssthresh(sock) == pytest.approx(87.5)

    def test_reno_region_below_low_window(self):
        cc = make_scheme("scalable")
        sock = FakeSock(cwnd=8.0, ssthresh=4.0)
        assert cc.ssthresh(sock) == pytest.approx(4.0)

    def test_fills_the_link(self):
        flow, _ = run_flow("scalable")
        assert flow.stats().avg_throughput_bps > 0.8 * 24e6


class TestCompound:
    def test_dwnd_grows_on_empty_path(self):
        cc = make_scheme("compound")
        sock = FakeSock(cwnd=50.0, ssthresh=25.0)
        cc.on_init(sock)
        cc.base_rtt = 0.05
        for _ in range(200):
            cc.on_ack(sock, 10, 0.05, 0.0)  # always at base RTT
        assert cc.dwnd > 0.0

    def test_dwnd_drains_with_queueing(self):
        cc = make_scheme("compound")
        sock = FakeSock(cwnd=50.0, ssthresh=25.0)
        cc.on_init(sock)
        cc.base_rtt = 0.05
        cc.dwnd = 30.0
        for _ in range(200):
            cc.on_ack(sock, 10, 0.50, 0.0)  # heavy queueing
        assert cc.dwnd == 0.0

    def test_window_is_sum(self):
        cc = make_scheme("compound")
        sock = FakeSock(cwnd=50.0, ssthresh=25.0)
        cc.on_init(sock)
        cc.lwnd, cc.dwnd = 20.0, 15.0
        cc._sync(sock)
        assert sock.cwnd == pytest.approx(35.0)

    def test_fills_the_link(self):
        flow, _ = run_flow("compound")
        assert flow.stats().avg_throughput_bps > 0.8 * 24e6


class TestTcpLp:
    def test_yields_under_sustained_delay(self):
        cc = make_scheme("lp")
        sock = FakeSock(cwnd=50.0, ssthresh=25.0)
        cc.on_ack(sock, 1, 0.050, 0.0)  # establish min
        cc.on_ack(sock, 1, 0.200, 0.1)  # establish max
        for i in range(100):
            cc.on_ack(sock, 1, 0.190, 0.2 + i * 0.05)
        assert sock.cwnd == cc.MIN_CWND

    def test_grows_when_path_idle(self):
        cc = make_scheme("lp")
        sock = FakeSock(cwnd=50.0, ssthresh=25.0)
        before = sock.cwnd
        for i in range(20):
            cc.on_ack(sock, 5, 0.050, i * 0.05)
        assert sock.cwnd > before

    def test_scavenges_alone_but_yields_to_cubic(self):
        # alone: reasonable utilization
        flow, _ = run_flow("lp", dur=6.0)
        solo = flow.stats().avg_throughput_bps
        assert solo > 0.3 * 24e6
        # vs cubic: takes far less than fair share
        loop = EventLoop()
        net = dumbbell_topology(FlatRate(24e6), TailDrop(240_000), loop=loop).view(("snd", "rcv"))
        cubic = Flow(net, 1, "cubic", min_rtt=0.02)
        lp = Flow(net, 0, "lp", min_rtt=0.02, start_at=1.0)
        cubic.start()
        lp.start()
        loop.run_until(20.0)
        assert (
            lp.receiver.total_bytes < 0.6 * cubic.receiver.total_bytes
        )
