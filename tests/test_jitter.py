"""Tests for path jitter / packet reordering."""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.topo import PathConfig, dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow
from repro.tcp.socket import TcpReceiver, TcpSender
from repro.tcp.cc_base import make_scheme


def jittered_flow(jitter, scheme="cubic", bw=12e6, rtt=0.04, dur=5.0):
    loop = EventLoop()
    topo = dumbbell_topology(FlatRate(bw), TailDrop(120_000), loop=loop, seed=1)
    net = topo.view(("snd", "rcv"))
    cc = make_scheme(scheme)
    receiver = TcpReceiver(0, net)
    sender = TcpSender(0, net, cc)
    net.attach_flow(
        0, PathConfig(min_rtt=rtt, jitter=jitter),
        data_sink=receiver.on_data, ack_sink=sender.on_ack,
    )
    sender.start()
    loop.run_until(dur)
    sender.stop()
    return sender, receiver


class TestPathConfig:
    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            PathConfig(min_rtt=0.04, jitter=-0.01)

    def test_default_no_jitter(self):
        assert PathConfig(min_rtt=0.04).jitter == 0.0


class TestReordering:
    def test_jitter_causes_out_of_order_arrivals(self):
        loop = EventLoop()
        topo = dumbbell_topology(FlatRate(100e6), TailDrop(1_000_000), loop=loop, seed=2)
        net = topo.view(("snd", "rcv"))
        arrivals = []
        net.attach_flow(
            0, PathConfig(min_rtt=0.02, jitter=0.005),
            data_sink=lambda p: arrivals.append(p.seq),
            ack_sink=lambda p: None,
        )
        for i in range(100):
            net.send_data(Packet(flow_id=0, seq=i))
        loop.run_until(1.0)
        assert sorted(arrivals) == list(range(100))
        assert arrivals != sorted(arrivals)  # genuinely reordered

    def test_transport_survives_mild_reordering(self):
        sender, receiver = jittered_flow(jitter=0.002)
        assert receiver.rcv_next > 300
        assert receiver.total_packets == receiver.rcv_next + len(receiver._received)

    def test_transport_survives_heavy_reordering(self):
        sender, receiver = jittered_flow(jitter=0.010)
        # heavy jitter triggers spurious fast retransmits but must not
        # wedge the stream
        assert receiver.rcv_next > 100
        assert receiver.total_packets == receiver.rcv_next + len(receiver._received)

    def test_throughput_degrades_gracefully(self):
        _, clean = jittered_flow(jitter=0.0)
        _, jittered = jittered_flow(jitter=0.004)
        assert jittered.total_bytes > 0.2 * clean.total_bytes

    def test_deterministic_given_network_seed(self):
        _, a = jittered_flow(jitter=0.003)
        _, b = jittered_flow(jitter=0.003)
        assert a.total_packets == b.total_packets
