"""Table 1 — the 69-element GR input vector.

Regenerates the table's structure from the implementation and times the
cost of one GR tick (the per-20 ms observation path).
"""

import numpy as np

from repro.collector.gr_unit import GRUnit, STATE_DIM, STATE_FIELDS
from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


def test_table1_state_vector(benchmark):
    loop = EventLoop()
    net = dumbbell_topology(FlatRate(24e6), TailDrop(240_000), loop=loop).view(("snd", "rcv"))
    flow = Flow(net, 0, "cubic", min_rtt=0.04)
    flow.start()
    loop.run_until(2.0)
    gr = GRUnit(flow.sender)

    t = [2.0]

    def tick():
        t[0] += 0.02
        loop.run_until(t[0])
        return gr.tick()

    state, action = benchmark(tick)
    print(f"\n=== Table 1: {STATE_DIM} input statistics ===")
    for i in range(0, STATE_DIM, 3):
        row = "   ".join(
            f"{j + 1:>2} {STATE_FIELDS[j]:<18}" for j in range(i, min(i + 3, STATE_DIM))
        )
        print(row)
    assert state.shape == (69,)
    assert np.all(np.isfinite(state))
    assert 1 / 3 <= action <= 3
