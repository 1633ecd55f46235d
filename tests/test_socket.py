"""Unit tests for the TCP sender/receiver machinery.

These use a real (tiny) network so that the loss/recovery paths are
exercised against genuine queueing behaviour.
"""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.cc_base import CongestionControl
from repro.tcp.flow import Flow
from repro.tcp.socket import CA_OPEN, CA_RECOVERY, TcpSender


class HoldCC(CongestionControl):
    """A scheme that pins cwnd forever (isolates transport machinery)."""

    def __init__(self, cwnd=10.0):
        self._cwnd = cwnd
        self.name = "hold"

    def on_init(self, sock):
        sock.cwnd = self._cwnd

    def on_ack(self, sock, n_acked, rtt, now):
        sock.cwnd = self._cwnd

    def on_loss_event(self, sock, now):
        sock.cwnd = self._cwnd

    def on_rto(self, sock, now):
        sock.cwnd = self._cwnd


def make_flow(bw=12e6, rtt=0.04, buf=60_000, cc=None, cwnd=10.0):
    loop = EventLoop()
    net = dumbbell_topology(FlatRate(bw), TailDrop(buf), loop=loop).view(("snd", "rcv"))
    cc = cc if cc is not None else HoldCC(cwnd)
    flow = Flow(net, 0, cc, min_rtt=rtt)
    return loop, net, flow


class TestBasics:
    def test_bulk_transfer_delivers_in_order(self):
        loop, net, flow = make_flow()
        flow.start()
        loop.run_until(2.0)
        assert flow.receiver.rcv_next > 50
        assert flow.receiver.total_packets == flow.receiver.rcv_next

    def test_rtt_estimate_close_to_truth(self):
        loop, net, flow = make_flow(cwnd=2.0)  # no queueing to speak of
        flow.start()
        loop.run_until(2.0)
        s = flow.sender
        assert s.min_rtt == pytest.approx(0.04, rel=0.1)
        assert s.srtt == pytest.approx(0.04, rel=0.3)

    def test_rttvar_positive_and_rto_sane(self):
        loop, net, flow = make_flow()
        flow.start()
        loop.run_until(2.0)
        assert flow.sender.rto >= 0.2
        assert flow.sender.rto < 5.0

    def test_inflight_respects_cwnd(self):
        loop, net, flow = make_flow(cwnd=5.0)
        flow.start()
        loop.run_until(2.0)
        assert flow.sender.inflight <= 5

    def test_delivery_rate_sampled(self):
        loop, net, flow = make_flow()
        flow.start()
        loop.run_until(2.0)
        assert flow.sender.delivery_rate > 0
        assert flow.sender.max_delivery_rate >= flow.sender.delivery_rate

    def test_start_twice_raises(self):
        loop, net, flow = make_flow()
        flow.start()
        with pytest.raises(RuntimeError):
            flow.sender.start()

    def test_stop_halts_transmission(self):
        loop, net, flow = make_flow()
        flow.start()
        loop.run_until(0.5)
        sent = flow.sender.sent_packets
        flow.stop()
        loop.run_until(2.0)
        assert flow.sender.sent_packets == sent


class TestLossRecovery:
    def test_losses_detected_and_repaired(self):
        # Window much bigger than pipe+buffer forces drops.
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=60.0)
        flow.start()
        loop.run_until(5.0)
        s = flow.sender
        assert s.lost > 0
        assert s.retransmits > 0
        # receiver stream still advances past the losses
        assert flow.receiver.rcv_next > 500

    def test_recovery_state_entered_and_exited(self):
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=60.0)
        states = set()
        flow.start()
        t = 0.0
        while t < 3.0:
            t += 0.05
            loop.run_until(t)
            states.add(flow.sender.ca_state)
        assert CA_RECOVERY in states
        assert flow.sender.ca_state in (CA_OPEN, CA_RECOVERY)

    def test_pipe_excludes_lost_packets(self):
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=60.0)
        flow.start()
        loop.run_until(5.0)
        s = flow.sender
        assert s.inflight <= len(s._unacked)

    def test_no_rtt_pollution_from_recovery(self):
        # Even under heavy loss, RTT samples must stay physically plausible:
        # propagation 40 ms + max queueing (9000 B at 4 Mbps = 18 ms).
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=60.0)
        flow.start()
        loop.run_until(5.0)
        assert flow.sender.srtt < 0.2

    def test_throughput_survives_heavy_overload(self):
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=200.0)
        flow.start()
        loop.run_until(5.0)
        thr = flow.receiver.total_bytes * 8 / 5.0
        assert thr > 0.5 * 4e6  # the link stays mostly busy despite chaos


class TestExternalControl:
    def test_set_cwnd_enforced(self):
        loop, net, flow = make_flow()
        flow.sender.external_cwnd_control = True
        flow.start()
        loop.run_until(0.5)
        flow.sender.set_cwnd(3.0)
        loop.run_until(1.0)
        assert flow.sender.cwnd == 3.0
        assert flow.sender.inflight <= 3

    def test_set_cwnd_clamped(self):
        loop, net, flow = make_flow()
        flow.sender.set_cwnd(0.0)
        assert flow.sender.cwnd == 1.0
        flow.sender.set_cwnd(1e9)
        assert flow.sender.cwnd == flow.sender.max_cwnd

    def test_cc_hooks_bypassed_under_external_control(self):
        class Exploder(HoldCC):
            def on_ack(self, sock, n_acked, rtt, now):  # pragma: no cover
                raise AssertionError("CC hook must not run")

        loop, net, flow = make_flow(cc=Exploder())
        flow.sender.external_cwnd_control = True
        flow.start()
        loop.run_until(1.0)  # would raise if the hook ran


class TestReceiver:
    def test_one_way_delay_includes_prop(self):
        loop, net, flow = make_flow(cwnd=2.0)
        flow.start()
        loop.run_until(1.0)
        assert flow.receiver.mean_owd >= 0.02  # at least the one-way prop

    def test_duplicate_data_ignored(self):
        loop, net, flow = make_flow(bw=4e6, buf=9000, cwnd=60.0)
        flow.start()
        loop.run_until(5.0)
        # retransmissions happened, yet every packet is counted exactly once:
        # the in-order prefix plus whatever is buffered beyond the next hole
        r = flow.receiver
        assert r.total_packets == r.rcv_next + len(r._received)
