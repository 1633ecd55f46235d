"""RTT-unfairness: a classic substrate-validity experiment.

Loss-based AIMD famously favours short-RTT flows (throughput ~ 1/RTT^z);
Cubic was designed to reduce, and Hybla to eliminate, that bias. These
tests check our substrate reproduces the known ordering.
"""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


def rtt_unfairness(scheme, rtt_short=0.02, rtt_long=0.08, bw=24e6, dur=40.0):
    """Run one short-RTT and one long-RTT flow of the same scheme; return
    throughput(short) / throughput(long)."""
    loop = EventLoop()
    buf = int(2 * bw * rtt_long / 8)
    net = dumbbell_topology(FlatRate(bw), TailDrop(buf), loop=loop).view(("snd", "rcv"))
    short = Flow(net, 0, scheme, min_rtt=rtt_short)
    long_ = Flow(net, 1, scheme, min_rtt=rtt_long)
    short.start()
    long_.start()
    loop.run_until(dur)
    # score the steady tail only
    half = dur / 2
    s_bytes = short.receiver.total_bytes
    l_bytes = long_.receiver.total_bytes
    return s_bytes / max(l_bytes, 1)


class TestRttUnfairness:
    def test_reno_strongly_favours_short_rtt(self):
        ratio = rtt_unfairness("newreno")
        assert ratio > 1.5

    def test_cubic_less_biased_than_reno(self):
        reno = rtt_unfairness("newreno")
        cubic = rtt_unfairness("cubic")
        # Cubic's real-time-based growth reduces the RTT bias
        assert cubic < reno * 1.1

    def test_hybla_compensates_rtt(self):
        hybla = rtt_unfairness("hybla")
        reno = rtt_unfairness("newreno")
        # Hybla's rho-equalization narrows the gap vs plain AIMD
        assert hybla < reno

    def test_short_flow_never_starves(self):
        for scheme in ("newreno", "cubic", "vegas"):
            ratio = rtt_unfairness(scheme, dur=25.0)
            assert ratio > 0.5  # sanity: short-RTT flow at least competitive
