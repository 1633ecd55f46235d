"""Tests for the Flow wrapper and FlowStats."""

import numpy as np
import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.cc_base import make_scheme
from repro.tcp.flow import Flow


def make(scheme="cubic", start_at=0.0):
    loop = EventLoop()
    net = dumbbell_topology(FlatRate(12e6), TailDrop(120_000), loop=loop).view(("snd", "rcv"))
    flow = Flow(net, 0, scheme, min_rtt=0.04, start_at=start_at)
    return loop, flow


class TestFlow:
    def test_accepts_scheme_instance(self):
        loop = EventLoop()
        net = dumbbell_topology(FlatRate(12e6), TailDrop(120_000), loop=loop).view(("snd", "rcv"))
        cc = make_scheme("vegas")
        flow = Flow(net, 0, cc, min_rtt=0.04)
        assert flow.cc is cc

    def test_delayed_start(self):
        loop, flow = make(start_at=1.0)
        flow.start()
        loop.run_until(0.5)
        assert flow.sender.sent_packets == 0
        loop.run_until(2.0)
        assert flow.sender.sent_packets > 0

    def test_sampling_grid(self):
        loop, flow = make()
        flow.start()
        for i in range(1, 21):
            loop.run_until(i * 0.1)
            flow.sample()
        s = flow.stats()
        assert len(s.times) == 20
        assert len(s.throughput_series) == 20
        assert len(s.cwnd_series) == 20

    def test_throughput_series_sums_to_total(self):
        loop, flow = make()
        flow.start()
        for i in range(1, 21):
            loop.run_until(i * 0.1)
            flow.sample()
        s = flow.stats()
        bits_from_series = sum(t * 0.1 for t in s.throughput_series)
        assert bits_from_series == pytest.approx(
            flow.receiver.total_bytes * 8.0, rel=0.05
        )

    def test_stats_fields_sane(self):
        loop, flow = make()
        flow.start()
        for i in range(1, 31):
            loop.run_until(i * 0.1)
            flow.sample()
        flow.stop()
        s = flow.stats()
        assert s.scheme == "cubic"
        assert s.duration == pytest.approx(3.0, rel=0.05)
        assert 0 <= s.loss_rate <= 1
        assert s.p95_owd >= s.avg_owd * 0.5
        assert s.avg_rtt >= s.avg_owd  # round trip at least the one-way

    def test_zero_interval_sample_ignored(self):
        loop, flow = make()
        flow.start()
        loop.run_until(0.5)
        flow.sample()
        flow.sample()  # same instant: must not divide by zero
        assert len(flow._thr_samples) == 1

    def test_stats_before_any_sample(self):
        loop, flow = make()
        flow.start()
        loop.run_until(0.3)
        s = flow.stats()
        assert s.times == []
        assert s.avg_throughput_bps > 0
