"""Performance-regression guards for known pathological workloads.

These bound the *work done*, not wall-clock, so they are robust on slow CI:
the quadratic-hole-scan and retransmission-storm bugs each produced orders
of magnitude more events/sends than the fixed code does.
"""

import os
import time

import numpy as np
import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.network import Network
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


class TestWorkBounds:
    def test_aggressive_slow_start_overshoot_bounded_sends(self):
        # hybla overshoots hard; pre-fix this produced ~10x the sends of the
        # delivered packets via retransmission storms
        loop = EventLoop()
        net = Network(loop, FlatRate(48e6), TailDrop(int(48e6 * 0.04 / 8)))
        flow = Flow(net, 0, "hybla", min_rtt=0.04)
        flow.start()
        loop.run_until(10.0)
        sent = flow.sender.sent_packets
        delivered = flow.receiver.total_packets
        assert delivered > 0
        assert sent < 2.0 * delivered  # bounded retransmission overhead

    def test_external_cwnd_runaway_bounded_by_cap(self):
        # a policy pinning ratio=3 every tick must be stopped by max_cwnd,
        # not flood the simulator with millions of sends
        loop = EventLoop()
        net = Network(loop, FlatRate(12e6), TailDrop(120_000))
        flow = Flow(net, 0, "newreno", min_rtt=0.04)
        flow.sender.external_cwnd_control = True
        flow.start()
        t = 0.0
        while t < 3.0:
            t += 0.02
            loop.run_until(t)
            flow.sender.set_cwnd(flow.sender.cwnd * 3.0)
        assert flow.sender.cwnd == flow.sender.max_cwnd
        # sends bounded by cap + losses, far below a runaway
        assert flow.sender.sent_packets < 12 * flow.sender.max_cwnd

    def test_receiver_hole_scan_bounded(self):
        # the hole report must stay bounded even under huge reorder spans
        from repro.netsim.packet import Packet
        from repro.tcp.socket import TcpReceiver

        loop = EventLoop()
        net = Network(loop, FlatRate(12e6), TailDrop(120_000))
        acks = []
        recv = TcpReceiver(0, net)
        net.attach_flow(0, __import__("repro.netsim.network", fromlist=["PathConfig"]).PathConfig(min_rtt=0.02),
                        data_sink=lambda p: None, ack_sink=lambda p: None)
        net.send_ack = lambda a: acks.append(a)  # capture instead of routing
        # deliver every 3rd packet over a huge span: thousands of holes
        for seq in range(0, 30000, 3):
            recv.on_data(Packet(flow_id=0, seq=seq, sent_time=0.0))
        assert all(len(a.sack_holes) <= 128 for a in acks)

    def test_rto_rearming_does_not_bloat_the_heap(self):
        # re-arming the RTO on every transmit and every ACK used to leave a
        # cancelled entry behind each time: 1306 heap entries, 82 of them
        # live, on this very flow
        from repro.collector.environments import build_network, training_environments

        env = training_environments("mini")[0]
        loop, net = build_network(env)
        flow = Flow(net, 0, "cubic", min_rtt=env.min_rtt)
        flow.start()
        worst = 0
        for k in range(1, 501):
            loop.run_until(0.02 * k)
            assert len(loop._heap) <= 2 * loop.pending() + 16
            worst = max(worst, len(loop._heap))
        assert flow.receiver.total_packets > 10_000
        assert worst > 20  # the flow did fill its pipe


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup guard needs at least 2 CPU cores",
)
class TestParallelCollection:
    def test_two_workers_not_slower_than_serial(self):
        # on a multi-core machine, fanning a 4-env batch over 2 workers must
        # not lose to the serial loop (some tolerance for process startup)
        from repro.collector.environments import EnvConfig
        from repro.collector.parallel import collect_pool_parallel

        envs = [
            EnvConfig(
                env_id=f"guard-{i}", kind="flat", bw_mbps=24.0,
                min_rtt=0.04, buffer_bdp=2.0, duration=4.0,
            )
            for i in range(4)
        ]
        schemes = ["cubic"]

        t0 = time.perf_counter()
        serial = collect_pool_parallel(envs, schemes, workers=1)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = collect_pool_parallel(envs, schemes, workers=2, chunksize=1)
        parallel_s = time.perf_counter() - t0

        assert len(serial) == len(parallel) == 4
        # "not slower": allow 25% headroom for executor spin-up on small work
        assert parallel_s <= serial_s * 1.25, (
            f"2-worker collection took {parallel_s:.2f}s vs "
            f"{serial_s:.2f}s serial"
        )
