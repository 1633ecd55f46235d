"""Unit tests for the bottleneck link and the dumbbell network."""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.topo import FlowPath, PathConfig, Topology, dumbbell_topology
from repro.netsim.traces import FlatRate, StepRate


def data(seq, flow=0, size=1500):
    return Packet(flow_id=flow, seq=seq, size=size)


def one_link(loop, rate, aqm, on_deliver):
    """A one-link topology ``a -> b`` without propagation delay, so
    ``on_deliver`` runs the instant a packet's serialization ends."""
    topo = Topology(loop=loop)
    topo.add_node("a")
    topo.add_node("b")
    link = topo.add_link("a", "b", rate, aqm)
    topo.attach_flow(0, FlowPath(("a", "b")), on_deliver, lambda p: None)
    return link


class TestLink:
    def test_serialization_time(self):
        loop = EventLoop()
        delivered = []
        link = one_link(loop, FlatRate(12e6), TailDrop(100_000), lambda p: delivered.append(loop.now))
        link.send(data(0))  # 1500 B at 12 Mbps = 1 ms
        loop.run_until(1.0)
        assert delivered == [pytest.approx(0.001)]

    def test_back_to_back_packets_queue(self):
        loop = EventLoop()
        delivered = []
        link = one_link(loop, FlatRate(12e6), TailDrop(100_000), lambda p: delivered.append(loop.now))
        link.send(data(0))
        link.send(data(1))
        loop.run_until(1.0)
        assert delivered == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_delivery_preserves_order(self):
        loop = EventLoop()
        seqs = []
        link = one_link(loop, FlatRate(100e6), TailDrop(1_000_000), lambda p: seqs.append(p.seq))
        for i in range(20):
            link.send(data(i))
        loop.run_until(1.0)
        assert seqs == list(range(20))

    def test_drops_counted(self):
        loop = EventLoop()
        link = one_link(loop, FlatRate(1e6), TailDrop(3000), lambda p: None)
        for i in range(10):
            link.send(data(i))
        assert link.drops > 0

    def test_rate_change_affects_service(self):
        loop = EventLoop()
        delivered = []
        link = one_link(
            loop, StepRate(12e6, 2.0, t_switch=0.0009), TailDrop(100_000),
            lambda p: delivered.append(loop.now),
        )
        link.send(data(0))
        link.send(data(1))  # service starts after the switch: 24 Mbps -> 0.5 ms
        loop.run_until(1.0)
        assert delivered[1] - delivered[0] == pytest.approx(0.0005, abs=1e-4)

    def test_queue_delay_estimate(self):
        loop = EventLoop()
        link = one_link(loop, FlatRate(12e6), TailDrop(1_000_000), lambda p: None)
        for i in range(11):
            link.send(data(i))
        # 10 queued behind 1 in service: 10 * 1500 * 8 / 12e6 = 10 ms
        assert link.queue_delay() == pytest.approx(0.010, rel=0.05)


class TestNetwork:
    def _net(self):
        loop = EventLoop()
        return loop, dumbbell_topology(
            FlatRate(12e6), TailDrop(100_000), loop=loop
        ).view(("snd", "rcv"))

    def test_data_arrives_after_service_plus_prop(self):
        loop, net = self._net()
        arrivals = []
        net.attach_flow(
            0, PathConfig(min_rtt=0.04),
            data_sink=lambda p: arrivals.append(loop.now),
            ack_sink=lambda p: None,
        )
        net.send_data(data(0))
        loop.run_until(1.0)
        assert arrivals == [pytest.approx(0.001 + 0.02)]

    def test_ack_returns_after_rev_delay(self):
        loop, net = self._net()
        acks = []
        net.attach_flow(
            0, PathConfig(min_rtt=0.04),
            data_sink=lambda p: None,
            ack_sink=lambda p: acks.append(loop.now),
        )
        ack = Packet(flow_id=0, seq=0, is_ack=True)
        net.send_ack(ack)
        loop.run_until(1.0)
        assert acks == [pytest.approx(0.02)]

    def test_flows_share_the_bottleneck(self):
        loop, net = self._net()
        arrivals = {0: [], 1: []}
        for fid in (0, 1):
            net.attach_flow(
                fid, PathConfig(min_rtt=0.02),
                data_sink=lambda p, f=fid: arrivals[f].append(loop.now),
                ack_sink=lambda p: None,
            )
        net.send_data(data(0, flow=0))
        net.send_data(data(0, flow=1))
        loop.run_until(1.0)
        # second flow's packet is serialized behind the first one
        assert arrivals[1][0] - arrivals[0][0] == pytest.approx(0.001)

    def test_duplicate_flow_id_rejected(self):
        loop, net = self._net()
        net.attach_flow(0, PathConfig(min_rtt=0.02), lambda p: None, lambda p: None)
        with pytest.raises(ValueError):
            net.attach_flow(0, PathConfig(min_rtt=0.02), lambda p: None, lambda p: None)

    def test_unknown_flow_rejected(self):
        loop, net = self._net()
        with pytest.raises(ValueError, match="flow 42 is not attached"):
            net.send_data(data(0, flow=42))

    def test_unknown_flow_ack_rejected(self):
        loop, net = self._net()
        with pytest.raises(ValueError, match="flow 7 is not attached"):
            net.send_ack(data(0, flow=7))

    def test_min_rtt_lookup(self):
        loop, net = self._net()
        net.attach_flow(3, PathConfig(min_rtt=0.1), lambda p: None, lambda p: None)
        assert net.min_rtt(3) == 0.1

    def test_path_config_validation(self):
        with pytest.raises(ValueError):
            PathConfig(min_rtt=0.0)
