"""Performance-regression guards for known pathological workloads.

These bound the *work done*, not wall-clock, so they are robust on slow CI:
the quadratic-hole-scan and retransmission-storm bugs each produced orders
of magnitude more events/sends than the fixed code does.
"""

import numpy as np

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import PathConfig, dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


class TestWorkBounds:
    def test_aggressive_slow_start_overshoot_bounded_sends(self):
        # hybla overshoots hard; pre-fix this produced ~10x the sends of the
        # delivered packets via retransmission storms
        loop = EventLoop()
        buf = int(48e6 * 0.04 / 8)
        net = dumbbell_topology(FlatRate(48e6), TailDrop(buf), loop=loop).view(("snd", "rcv"))
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
        net = dumbbell_topology(FlatRate(12e6), TailDrop(120_000), loop=loop).view(("snd", "rcv"))
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
        net = dumbbell_topology(FlatRate(12e6), TailDrop(120_000), loop=loop).view(("snd", "rcv"))
        acks = []
        recv = TcpReceiver(0, net)
        net.attach_flow(0, PathConfig(min_rtt=0.02),
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


class TestParallelCollection:
    def test_two_workers_not_slower_than_serial(self):
        # structural half of the guard: a 4-env batch fanned over 2 workers
        # completes first try and yields the serial pool bit for bit. Whether
        # it is also faster is a ladder question (benchmarks/e2e), not a
        # wall-clock assert here.
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
        reports = []

        serial = collect_pool_parallel(envs, schemes, workers=1)
        parallel = collect_pool_parallel(
            envs, schemes, workers=2, chunksize=1, report_sink=reports.append
        )

        (report,) = reports
        assert report.workers == 2 and report.total == 4
        assert report.n_crashes == report.n_timeouts == report.n_retried == 0
        assert not report.failures
        assert len(serial) == len(parallel) == 4
        for ts, tp in zip(serial.trajectories, parallel.trajectories):
            assert (ts.scheme, ts.env_id) == (tp.scheme, tp.env_id)
            np.testing.assert_array_equal(ts.states, tp.states)
            np.testing.assert_array_equal(ts.actions, tp.actions)
            np.testing.assert_array_equal(ts.rewards, tp.rewards)
