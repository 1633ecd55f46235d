"""Discrete-event network emulator over graph topologies.

This package is the repo's substitute for the (improved) Mahimahi emulator
used by the paper. The paper's network is a dumbbell: one bottleneck link
whose capacity may be constant (*flat* scenarios), change once (*step*
scenarios), or follow a trace (*cellular* scenarios), a finite buffer
managed by a pluggable AQM, and symmetric propagation delay setting the
minimum RTT. Here that dumbbell is the smallest graph a
:class:`~repro.netsim.topo.Topology` builds; the same engine runs parking
lots, incast fan-ins and proxy splits.

The public surface:

- :class:`~repro.netsim.engine.EventLoop` — the simulation clock.
- :class:`~repro.netsim.packet.Packet` — what flows through the network.
- :mod:`~repro.netsim.topo` — the graph engine: a
  :class:`~repro.netsim.topo.TopoLink` is one hop (AQM buffer, serializer,
  propagation, loss); a :class:`~repro.netsim.topo.PathView` is the network
  one flow sees (attached with a :class:`~repro.netsim.topo.PathConfig`);
  factories build the dumbbell, parking lot, incast and proxy split.
- :mod:`~repro.netsim.aqm` — TailDrop, HeadDrop, CoDel, PIE, BoDe, plus the
  intelligent queues: FQCoDel and LearnedECN (with
  :mod:`~repro.netsim.ecn_model` holding the marking predictor and
  :mod:`~repro.netsim.telemetry` the queue-trace recorder that trains it).
- :mod:`~repro.netsim.traces` — capacity processes (flat, step, cellular,
  Internet-path).
"""

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet, MSS_BYTES
from repro.netsim.aqm import (
    AQM,
    ECN_CAPABLE_AQMS,
    TailDrop,
    HeadDrop,
    CoDel,
    PIE,
    BoDe,
    FQCoDel,
    LearnedECN,
    make_aqm,
)
from repro.netsim.ecn_model import EcnPredictor
from repro.netsim.telemetry import QueueTelemetryRecorder
from repro.netsim.traces import (
    RateProcess,
    FlatRate,
    StepRate,
    TraceRate,
    cellular_trace,
    internet_path_rate,
)
from repro.netsim.topo import (
    TOPOLOGY_CLASSES,
    FlowPath,
    Node,
    PathConfig,
    PathView,
    TopoLink,
    Topology,
    describe_topology,
    dumbbell_topology,
    incast_topology,
    make_topology,
    parking_lot_topology,
    proxy_split_topology,
)

__all__ = [
    "EventLoop",
    "Packet",
    "MSS_BYTES",
    "PathConfig",
    "AQM",
    "TailDrop",
    "HeadDrop",
    "CoDel",
    "PIE",
    "BoDe",
    "FQCoDel",
    "LearnedECN",
    "ECN_CAPABLE_AQMS",
    "EcnPredictor",
    "QueueTelemetryRecorder",
    "make_aqm",
    "RateProcess",
    "FlatRate",
    "StepRate",
    "TraceRate",
    "cellular_trace",
    "internet_path_rate",
    "TOPOLOGY_CLASSES",
    "FlowPath",
    "Node",
    "PathView",
    "TopoLink",
    "Topology",
    "describe_topology",
    "dumbbell_topology",
    "incast_topology",
    "make_topology",
    "parking_lot_topology",
    "proxy_split_topology",
]
