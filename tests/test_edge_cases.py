"""Edge-case coverage: extreme parameters, degenerate configs, callbacks."""

import numpy as np
import pytest

from repro.collector.environments import EnvConfig, build_network
from repro.collector.rollout import collect_trajectory
from repro.core.training import collect_pool
from repro.evalx.leagues import Participant, run_league
from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


class TestExtremeNetworks:
    def test_tiny_buffer_still_works(self):
        # buffer floors at 3 packets: heavy loss, but the stream advances
        env = EnvConfig(env_id="tiny-buf", kind="flat", bw_mbps=12.0,
                        min_rtt=0.04, buffer_bdp=0.01, duration=5.0)
        r = collect_trajectory(env, "cubic")
        assert r.stats.avg_throughput_bps > 1e6

    def test_very_small_rtt(self):
        # 5 ms is below the paper's 10 ms floor; the tiny BDP (20 packets)
        # makes every recovery expensive, but utilization must hold up
        env = EnvConfig(env_id="lan", kind="flat", bw_mbps=48.0,
                        min_rtt=0.005, buffer_bdp=4.0, duration=3.0)
        r = collect_trajectory(env, "cubic")
        assert r.stats.avg_throughput_bps > 0.5 * 48e6

    def test_very_large_rtt(self):
        env = EnvConfig(env_id="sat", kind="flat", bw_mbps=12.0,
                        min_rtt=0.5, buffer_bdp=1.0, duration=8.0)
        r = collect_trajectory(env, "hybla")
        assert r.stats.avg_throughput_bps > 0  # slow ramp, but alive

    def test_slow_link(self):
        env = EnvConfig(env_id="slow", kind="flat", bw_mbps=0.5,
                        min_rtt=0.04, buffer_bdp=4.0, duration=5.0)
        r = collect_trajectory(env, "newreno")
        assert r.stats.avg_throughput_bps > 0.2 * 0.5e6

    def test_max_cwnd_window_limits_flow(self):
        loop = EventLoop()
        net = dumbbell_topology(FlatRate(96e6), TailDrop(10_000_000), loop=loop).view(("snd", "rcv"))
        flow = Flow(net, 0, "cubic", min_rtt=0.2)  # BDP = 1600 pkts
        flow.sender.max_cwnd = 100.0
        flow.start()
        loop.run_until(10.0)
        thr = flow.receiver.total_bytes * 8 / 10.0
        # window-limited: ~100 pkts / 200 ms = 6 Mbps
        assert thr < 96e6 * 0.15

    def test_initial_cwnd_respected(self):
        loop = EventLoop()
        net = dumbbell_topology(FlatRate(12e6), TailDrop(120_000), loop=loop).view(("snd", "rcv"))
        flow = Flow(net, 0, "vegas", min_rtt=0.04, initial_cwnd=2.0)
        flow.start()
        loop.run_until(0.05)  # just past the first RTT
        assert flow.sender.inflight <= 2  # never more than IW outstanding
        assert flow.sender.sent_packets <= 4  # IW + first-RTT ack clocking


class TestCallbacks:
    def test_collect_pool_progress(self):
        env = EnvConfig(env_id="p", kind="flat", bw_mbps=12.0,
                        min_rtt=0.04, buffer_bdp=2.0, duration=2.0)
        messages = []
        collect_pool([env], schemes=["cubic"], progress=messages.append)
        assert messages and "cubic" in messages[0]

    def test_run_league_progress(self):
        set1 = [EnvConfig(env_id="lg", kind="flat", bw_mbps=12.0,
                          min_rtt=0.04, buffer_bdp=2.0, duration=3.0)]
        messages = []
        run_league(
            [Participant.from_scheme("cubic")], set1=set1, set2=[],
            progress=messages.append,
        )
        assert messages


class TestRewardEdgeBehaviour:
    def test_zero_duration_rollout_rejected_by_scoring(self):
        from repro.evalx.scores import interval_scores

        env = EnvConfig(env_id="z", kind="flat", bw_mbps=12.0,
                        min_rtt=0.04, buffer_bdp=2.0, duration=3.0)
        r = collect_trajectory(env, "cubic")
        r.stats.times = []
        r.stats.throughput_series = []
        r.stats.rtt_series = []
        with pytest.raises(ValueError):
            interval_scores(r)

    def test_competitor_head_start_honoured(self):
        env = EnvConfig(env_id="hs", kind="flat", bw_mbps=12.0,
                        min_rtt=0.04, buffer_bdp=2.0, n_competing_cubic=1,
                        competitor_head_start=3.0, duration=6.0)
        r = collect_trajectory(env, "vegas")
        comp = r.competitor_stats[0]
        # the competitor ran ~3 s longer than the scheme under test
        assert comp.duration >= r.stats.duration + 2.0
