"""Behavioural-shape tests: the time-domain signatures of the control laws.

These go beyond hook-level unit tests: they run each scheme on a real
bottleneck and assert the *waveform* its control law is known for (AIMD
sawtooth, Cubic's plateau around W_max, BBR2's probe cycling, Vegas's flat
equilibrium).
"""

import numpy as np
import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


def run_and_trace(scheme, bw=24e6, rtt=0.04, buf_bdp=1.0, dur=20.0, dt=0.05):
    loop = EventLoop()
    buf = int(buf_bdp * bw * rtt / 8)
    net = dumbbell_topology(FlatRate(bw), TailDrop(buf), loop=loop).view(("snd", "rcv"))
    flow = Flow(net, 0, scheme, min_rtt=rtt)
    flow.start()
    t = 0.0
    while t < dur:
        t += dt
        loop.run_until(t)
        flow.sample()
    flow.stop()
    return flow.stats()


def _tail(series, frac=0.6):
    arr = np.asarray(series)
    return arr[int(len(arr) * (1 - frac)):]


class TestSawtooth:
    def test_newreno_cwnd_oscillates_around_operating_point(self):
        s = run_and_trace("newreno")
        cwnd = _tail(s.cwnd_series)
        # sawtooth: repeated drops of roughly one half
        drops = np.sum(np.diff(cwnd) < -0.2 * cwnd[:-1])
        assert drops >= 2
        # but the mean stays near the BDP+buffer operating point (80-160 pkts)
        assert 60 < cwnd.mean() < 220

    def test_newreno_additive_increase_between_drops(self):
        s = run_and_trace("newreno")
        cwnd = _tail(s.cwnd_series)
        diffs = np.diff(cwnd)
        growth = diffs[diffs > 0]
        # AI: about +1 packet per RTT = +1.25 packets per 50 ms sample
        assert 0.1 < np.median(growth) < 5.0


class TestCubicShape:
    def test_growth_slows_near_wmax_then_accelerates(self):
        s = run_and_trace("cubic", dur=25.0)
        cwnd = np.asarray(s.cwnd_series)
        # find a backoff and examine the epoch that follows
        drops = np.where(np.diff(cwnd) < -0.15 * cwnd[:-1])[0]
        drops = [d for d in drops if d > len(cwnd) * 0.3]
        assert drops, "cubic never backed off"
        d = drops[0]
        epoch = cwnd[d + 1 : d + 1 + 60]
        if len(epoch) >= 30:
            early_slope = np.mean(np.diff(epoch[:10]))
            mid_slope = np.mean(np.diff(epoch[10:25]))
            # concave first: growth decelerates approaching W_max
            assert mid_slope <= early_slope + 1.0


class TestVegasEquilibrium:
    def test_cwnd_flat_at_equilibrium(self):
        s = run_and_trace("vegas")
        cwnd = _tail(s.cwnd_series, 0.5)
        # vegas parks cwnd within a couple packets of BDP + alpha..beta
        assert cwnd.std() < 5.0
        bdp = 24e6 * 0.04 / 8 / 1500
        assert bdp <= cwnd.mean() <= bdp + 8

    def test_rtt_stays_near_propagation(self):
        s = run_and_trace("vegas", buf_bdp=8.0)
        rtts = _tail(s.rtt_series, 0.5)
        assert np.mean(rtts) < 0.04 * 1.3


class TestBbr2Cycle:
    def test_startup_then_steady(self):
        s = run_and_trace("bbr2", dur=15.0)
        thr = np.asarray(s.throughput_series)
        # startup reaches near-capacity within a couple of seconds
        assert thr[40:].mean() > 0.8 * 24e6

    def test_window_bounded_near_bdp(self):
        # BBR2 sizes inflight to cwnd_gain x BDP instead of filling the
        # buffer (no PROBE_RTT dips appear here because an empty queue keeps
        # refreshing the min-RTT estimate, as in the kernel).
        s = run_and_trace("bbr2", dur=25.0, buf_bdp=8.0)
        cwnd = np.asarray(s.cwnd_series)
        bdp = 24e6 * 0.04 / 8 / 1500  # 80 packets
        assert cwnd[int(len(cwnd) * 0.4):].max() <= 2.6 * bdp
        # and delay stays near propagation despite the deep buffer
        assert np.mean(s.rtt_series[len(s.rtt_series) // 2:]) < 0.04 * 1.4


class TestScavengers:
    @pytest.mark.parametrize("scheme", ["ledbat", "lp"])
    def test_solo_scavenger_still_uses_link(self, scheme):
        s = run_and_trace(scheme, dur=10.0)
        assert s.avg_throughput_bps > 0.3 * 24e6

    def test_ledbat_keeps_its_delay_target(self):
        s = run_and_trace("ledbat", buf_bdp=8.0, dur=15.0)
        qd = np.asarray(_tail(s.rtt_series, 0.5)) - 0.04
        # standing queue hugs the 100 ms LEDBAT target, not the 320 ms buffer
        assert 0.0 <= np.mean(qd) < 0.18


class TestHighBdpSchemes:
    @pytest.mark.parametrize("scheme", ["highspeed", "htcp", "bic", "scalable"])
    def test_fill_large_bdp_quickly(self, scheme):
        # 96 Mbps x 80 ms = 640 packets of BDP: aggressive schemes must fill
        # it within the run while Reno would still be climbing
        s = run_and_trace(scheme, bw=96e6, rtt=0.08, buf_bdp=1.0, dur=20.0)
        thr = np.asarray(s.throughput_series)
        assert thr[-80:].mean() > 0.7 * 96e6
