"""Dumbbell network: a thin facade over the graph engine in ``topo``.

Topology (the paper's emulation model):

::

    sender_1 ─┐                                    ┌─ receiver_1
    sender_2 ─┼─> [ AQM buffer | bottleneck link ] ┼─> receiver_2
       ...    ┘        shared, rate(t)             └─    ...

Data packets from every flow share the one bottleneck; each flow then sees
its own one-way propagation delay. ACKs return on an uncongested reverse
path. ``min_rtt`` of a flow is split evenly between the two directions.

Since the graph engine landed, this class no longer owns the data path: it
builds a two-node, one-link :class:`~repro.netsim.topo.Topology` (all
propagation in the per-flow access segments) and adapts it through a
:class:`~repro.netsim.topo.PathView`. The event schedule — serialization
events, one delivery event per data packet, one return event per ACK, and
the order of jitter draws — is **bit-identical** to the historical
self-contained implementation, so seeded simulations and collected pools
are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.netsim.aqm import AQM, TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.topo import PathView, Topology, dumbbell_topology
from repro.netsim.traces import RateProcess


@dataclass
class PathConfig:
    """Per-flow path parameters.

    ``jitter`` adds a uniform random extra delay in ``[0, jitter]`` seconds
    to each data packet's forward propagation — enough jitter reorders
    packets, exercising the SACK machinery the way real multi-path WANs do.
    """

    min_rtt: float  # seconds, propagation round trip (no queueing)
    jitter: float = 0.0  # seconds of uniform forward-path delay jitter

    def __post_init__(self) -> None:
        if self.min_rtt <= 0:
            raise ValueError(f"min_rtt must be positive, got {self.min_rtt}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    @property
    def fwd_delay(self) -> float:
        return self.min_rtt / 2.0

    @property
    def rev_delay(self) -> float:
        return self.min_rtt / 2.0


class Network:
    """A single-bottleneck network instance shared by one or more flows.

    Endpoints register callbacks per flow id:

    - ``data_sink``: receiver-side, invoked when a data packet arrives.
    - ``ack_sink``: sender-side, invoked when an ACK arrives back.

    Senders inject data with :meth:`send_data`; receivers inject ACKs with
    :meth:`send_ack`.
    """

    def __init__(
        self, loop: EventLoop, rate: RateProcess, aqm: AQM, seed: int = 0
    ) -> None:
        self.loop = loop
        self.topology: Topology = dumbbell_topology(rate, aqm, loop=loop, seed=seed)
        self._view: PathView = self.topology.view(("snd", "rcv"))
        #: the bottleneck serializer (queue + AQM), for introspection
        self.link = self.topology.links[0].inner
        self._paths: Dict[int, PathConfig] = {}
        #: sender / receiver entry points: offer a data packet to the
        #: bottleneck, return an ACK over the uncongested path. They are the
        #: graph engine's own (a ``ValueError`` for an unattached flow id
        #: included) — no facade frame per packet.
        self.send_data = self.topology.send_data
        self.send_ack = self.topology.send_ack

    # -- registration ----------------------------------------------------
    def attach_flow(
        self,
        flow_id: int,
        path: PathConfig,
        data_sink: Callable[[Packet], None],
        ack_sink: Callable[[Packet], None],
    ) -> None:
        """Register a flow's path and its two delivery callbacks."""
        self._view.attach_flow(flow_id, path, data_sink, ack_sink)
        self._paths[flow_id] = path

    def detach_flow(self, flow_id: int) -> None:
        """Forget a flow; its in-flight packets are discarded on arrival."""
        self._view.detach_flow(flow_id)
        del self._paths[flow_id]

    # -- introspection -------------------------------------------------------
    def min_rtt(self, flow_id: int) -> float:
        return self._paths[flow_id].min_rtt

    @property
    def queue_delay(self) -> float:
        return self.link.queue_delay()

    @property
    def dropped_by_flow(self) -> Dict[int, int]:
        return self.topology.dropped_by_flow

    @property
    def delivered_by_flow(self) -> Dict[int, int]:
        return self.topology.delivered_by_flow


def make_network(
    rate: RateProcess,
    buffer_bytes: int,
    aqm: Optional[AQM] = None,
    loop: Optional[EventLoop] = None,
) -> Network:
    """Convenience constructor: drop-tail dumbbell on a fresh event loop."""
    loop = loop if loop is not None else EventLoop()
    aqm = aqm if aqm is not None else TailDrop(buffer_bytes)
    return Network(loop, rate, aqm)
