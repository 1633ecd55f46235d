"""Graph-topology network engine: nodes, directed links, multi-segment paths.

A :class:`Topology` is a directed graph of :class:`Node`\\ s (hosts,
routers, an optional proxy) joined by :class:`TopoLink`\\ s, each with its
*own* rate process, propagation delay, random loss, and AQM buffer. A
flow's path is a node sequence; data packets chain through every link's
queue + serializer on the shared :class:`~repro.netsim.engine.EventLoop`,
so a three-segment "parking lot" really has three independent bottlenecks
with cross-traffic competing at each one. The paper's dumbbell is the
smallest case: :func:`dumbbell_topology`, two hosts and one link.

Design invariants:

- **One event per hop.** A packet finishing serialization on link ``i`` is
  scheduled to *arrive* at the downstream node after the link's propagation
  delay; arrival either delivers (last node) or injects into the next
  link's queue synchronously. A single-link path therefore produces exactly
  the event stream of the historical self-contained dumbbell
  (``tests/test_sim_golden.py`` pins it).
- **ACKs return uncongested.** As in the paper's emulation model,
  acknowledgments do not queue: one event after the flow's reverse-path
  propagation delay.
- **Per-flow access delay.** Endpoint propagation that is not attributable
  to a shared link (the flow's "access segment") rides on the *last* hop:
  ``extra_fwd_delay`` plus optional per-flow jitter, drawn from the
  topology's seeded RNG in delivery order.

:meth:`Topology.view` returns a :class:`PathView`, the network interface
the transport speaks (``attach_flow`` with a :class:`PathConfig`,
``send_data`` / ``send_ack`` / ``min_rtt`` / ``queue_delay``) for one node
path, so :class:`~repro.tcp.flow.Flow` and every scheme run unmodified
over arbitrary graphs.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netsim.aqm import AQM, ECN_CAPABLE_AQMS, make_aqm
from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.traces import FlatRate, RateProcess

__all__ = [
    "Node",
    "TopoLink",
    "FlowPath",
    "Topology",
    "PathConfig",
    "PathView",
    "dumbbell_topology",
    "parking_lot_topology",
    "incast_topology",
    "proxy_split_topology",
    "make_topology",
    "describe_topology",
    "TOPOLOGY_CLASSES",
]

NODE_KINDS = ("host", "router", "proxy")

#: the topology families the league matrix and the CLI enumerate
TOPOLOGY_CLASSES = ("dumbbell", "parking_lot", "incast", "proxy_split")


@dataclass(frozen=True)
class Node:
    """One vertex of the graph: a traffic endpoint or a forwarding element."""

    name: str
    kind: str = "router"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}; use {NODE_KINDS}")


class TopoLink:
    """One directed edge: AQM buffer + work-conserving serializer + propagation.

    The link drains its buffer one packet at a time; a packet of ``S`` bytes
    occupies the serializer for ``8*S / rate(t)`` seconds, where ``rate`` is
    a :class:`~repro.netsim.traces.RateProcess` — Mahimahi's model of a
    trace-driven bottleneck. On top of the queue and serializer the link
    has propagation to the downstream node, optional uniform random loss,
    optional per-link delay jitter, an up/down switch (the chaos
    ``netsim.linkflap`` site) and a dequeue stall (``netsim.aqmstall``).
    """

    __slots__ = (
        "topology", "loop", "src", "dst", "name", "prop_delay", "loss",
        "jitter", "rate", "aqm", "telemetry", "up", "drops_loss",
        "drops_down", "delivered_packets", "stalls", "index", "_busy",
        "_stalled_until",
    )

    def __init__(
        self,
        topology: "Topology",
        src: str,
        dst: str,
        rate: RateProcess,
        aqm: AQM,
        prop_delay: float = 0.0,
        loss: float = 0.0,
        jitter: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if prop_delay < 0:
            raise ValueError(f"prop_delay must be >= 0, got {prop_delay}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.topology = topology
        self.loop = topology.loop
        self.src = src
        self.dst = dst
        self.name = name if name is not None else f"{src}->{dst}"
        self.prop_delay = prop_delay
        self.loss = loss
        self.jitter = jitter
        self.rate = rate
        self.aqm = aqm
        #: Optional :class:`~repro.netsim.telemetry.QueueTelemetryRecorder`;
        #: None keeps the fast path untouched (event streams bit-identical).
        self.telemetry = None
        self.up = True
        self.drops_loss = 0  # random-loss drops (not AQM drops)
        self.drops_down = 0  # packets offered while the link was down
        self.delivered_packets = 0  # packets that finished serialization
        self.stalls = 0  # dequeue stalls begun
        self.index = -1  # insertion order, set by Topology.add_link
        self._busy = False  # a packet is in the serializer
        self._stalled_until = 0.0

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet to this link; False if dropped (AQM, loss, down)."""
        if not self.up:
            self.drops_down += 1
            return False
        if self.loss > 0.0 and self.topology._loss_rng.random() < self.loss:
            self.drops_loss += 1
            return False
        now = self.loop.now
        aqm = self.aqm
        aqm.current_rate_bps = self.rate.rate_at(now)
        accepted = aqm.enqueue(pkt, now)
        if accepted:
            if self.telemetry is not None:
                self.telemetry.on_enqueue(aqm, pkt, now)
            if not self._busy:
                self._serve_next()
        return accepted

    def _serve_next(self) -> None:
        """Start serializing the next queued packet, unless stalled or empty."""
        now = self.loop.now
        if now < self._stalled_until:
            self._busy = False
            return
        rate = self.rate.rate_at(now)
        self.aqm.current_rate_bps = rate
        pkt = self.aqm.dequeue(now)
        if pkt is None:
            self._busy = False
            return
        if self.telemetry is not None:
            self.telemetry.on_dequeue(pkt, now)
        self._busy = True
        tx_time = pkt.size * 8.0 / (rate if rate > 1e3 else 1e3)
        self.loop.post(tx_time, self._finish, pkt)

    def _finish(self, pkt: Packet) -> None:
        """Serialization of ``pkt`` is done: propagate it one hop, serve on.

        The propagation event is posted before the next packet's
        serialization event, so same-instant ties keep their order.
        """
        self.delivered_packets += 1
        topo = self.topology
        route = topo._routes.get(pkt.flow_id)
        # a detached flow, or a stale packet from a path it no longer uses
        arrive = _OFF_PATH if route is None else route.next_hop.get(self, _OFF_PATH)
        if arrive is _OFF_PATH:
            topo.orphaned += 1
        elif arrive is None:
            # Final hop: add the flow's access propagation (+ jitter). The
            # delivered counter means "committed for delivery" — it ticks
            # here, when the packet leaves the last queue, matching the
            # historical dumbbell's accounting exactly.
            path = route.path
            delay = self.prop_delay + path.extra_fwd_delay
            jitter = path.jitter + self.jitter
            if jitter > 0:
                delay += topo._jitter_rng.random() * jitter
            topo.delivered_by_flow[pkt.flow_id] += 1
            self.loop.post(delay, route.deliver_data, pkt)
        else:
            delay = self.prop_delay
            if self.jitter > 0:
                delay += topo._jitter_rng.random() * self.jitter
            self.loop.post(delay, arrive, pkt)
        self._serve_next()

    def _arrive(self, pkt: Packet) -> None:
        """``pkt`` reached this link's source node from the previous hop."""
        topo = self.topology
        if pkt.flow_id not in topo._routes:
            topo.orphaned += 1
        elif not self.send(pkt):
            topo.dropped_by_flow[pkt.flow_id] += 1

    # -- chaos: one-shot link flap --------------------------------------
    def schedule_flap(self, at: float, down_for: float) -> None:
        """Take the link down at ``at`` for ``down_for`` simulated seconds."""
        if down_for <= 0:
            raise ValueError(f"down_for must be positive, got {down_for}")
        loop = self.topology.loop
        loop.call_at(max(at, loop.now), self._go_down)
        loop.call_at(max(at, loop.now) + down_for, self._go_up)

    def _go_down(self) -> None:
        self.up = False

    def _go_up(self) -> None:
        self.up = True

    # -- chaos: one-shot AQM dequeue stall -------------------------------
    def schedule_stall(self, at: float, stall_for: float) -> None:
        """Freeze this link's dequeue side for ``stall_for`` seconds at ``at``.

        The buffer keeps accepting (and AQM-policing) arrivals; only service
        stops — the chaos model of a head-of-line scheduler hiccup.
        """
        if stall_for <= 0:
            raise ValueError(f"stall_for must be positive, got {stall_for}")
        self.loop.call_later(
            max(at - self.loop.now, 0.0), lambda: self._begin_stall(stall_for)
        )

    def _begin_stall(self, duration: float) -> None:
        self._stalled_until = self.loop.now + duration
        self.stalls += 1
        self.loop.call_later(duration, self._end_stall)

    def _end_stall(self) -> None:
        if not self._busy and self.loop.now >= self._stalled_until:
            self._serve_next()

    # -- introspection ----------------------------------------------------
    @property
    def queue_bytes(self) -> int:
        """Current backlog in bytes (excludes the packet in the serializer)."""
        return self.aqm.bytes_queued

    @property
    def drops(self) -> int:
        """Total drops on this link: AQM + random loss + down time."""
        return self.aqm.drops + self.drops_loss + self.drops_down

    @property
    def ecn_marks(self) -> int:
        """CE marks applied by this link's AQM."""
        return self.aqm.ecn_marks

    def queue_delay(self) -> float:
        """Current standing queueing delay estimate in seconds."""
        self.aqm.current_rate_bps = self.rate.rate_at(self.loop.now)
        return self.aqm.queue_delay_estimate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TopoLink {self.name} prop={self.prop_delay:g}s>"


@dataclass(frozen=True)
class FlowPath:
    """One flow's route: the node sequence plus its access-segment delays.

    ``extra_fwd_delay`` (and per-flow ``jitter``) apply on the final hop —
    the endpoint propagation not attributable to any shared link.
    ``rev_delay`` is the full, uncongested return-path delay for ACKs.
    """

    nodes: Tuple[str, ...]
    extra_fwd_delay: float = 0.0
    rev_delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError(f"a path needs >= 2 nodes, got {self.nodes!r}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path must be loop-free, got {self.nodes!r}")
        if self.extra_fwd_delay < 0 or self.rev_delay < 0 or self.jitter < 0:
            raise ValueError("path delays must be non-negative")


#: ``next_hop`` answer for a link that is not on the flow's path
_OFF_PATH = object()


class _FlowRoute:
    """Resolved per-flow routing state (internal)."""

    __slots__ = ("topology", "path", "links", "next_hop", "data_sink", "ack_sink")

    def __init__(
        self,
        topology: "Topology",
        path: FlowPath,
        links: List[TopoLink],
        data_sink: Callable[[Packet], None],
        ack_sink: Callable[[Packet], None],
    ) -> None:
        self.topology = topology
        self.path = path
        self.links = links
        #: link -> arrival at the following link (None on the last hop)
        self.next_hop: Dict[TopoLink, Optional[Callable[[Packet], None]]] = {
            l: (links[i + 1]._arrive if i + 1 < len(links) else None)
            for i, l in enumerate(links)
        }
        self.data_sink = data_sink
        self.ack_sink = ack_sink

    # Both deliveries go to the sink captured when the packet was scheduled,
    # provided the flow id is (still, or again) attached at arrival.
    def deliver_data(self, pkt: Packet) -> None:
        if pkt.flow_id not in self.topology._routes:
            self.topology.orphaned += 1
            return
        self.data_sink(pkt)

    def deliver_ack(self, ack: Packet) -> None:
        if ack.flow_id not in self.topology._routes:
            self.topology.orphaned += 1
            return
        self.ack_sink(ack)


class Topology:
    """A graph of nodes and directed links shared by any number of flows.

    Flows attach with a :class:`FlowPath`; data packets traverse the path's
    links in order (queueing at each), ACKs return after the flow's
    reverse-path delay. Per-flow delivered/dropped counters match the
    dumbbell's contract.
    """

    def __init__(self, loop: Optional[EventLoop] = None, seed: int = 0) -> None:
        self.loop = loop if loop is not None else EventLoop()
        self.seed = seed
        self.nodes: Dict[str, Node] = {}
        self.links: List[TopoLink] = []
        self._links_by_edge: Dict[Tuple[str, str], TopoLink] = {}
        self._routes: Dict[int, _FlowRoute] = {}
        self.dropped_by_flow: Dict[int, int] = {}
        self.delivered_by_flow: Dict[int, int] = {}
        #: packets that arrived for an already-detached flow (short-flow churn)
        self.orphaned = 0
        # Seeded exactly like the historical dumbbell's jitter RNG so the
        # facade draws an identical jitter stream; loss gets its own stream.
        self._jitter_rng = _random.Random(seed)
        self._loss_rng = _random.Random((seed << 1) ^ 0x9E3779B9)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: str = "router") -> Node:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(name, kind)
        self.nodes[name] = node
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        rate: RateProcess,
        aqm: AQM,
        prop_delay: float = 0.0,
        loss: float = 0.0,
        jitter: float = 0.0,
        name: Optional[str] = None,
    ) -> TopoLink:
        for n in (src, dst):
            if n not in self.nodes:
                raise ValueError(f"unknown node {n!r}; add_node it first")
        if src == dst:
            raise ValueError("a link cannot loop back to its source")
        if (src, dst) in self._links_by_edge:
            raise ValueError(f"link {src!r}->{dst!r} already exists")
        link = TopoLink(
            self, src, dst, rate, aqm,
            prop_delay=prop_delay, loss=loss, jitter=jitter, name=name,
        )
        link.index = len(self.links)
        self.links.append(link)
        self._links_by_edge[(src, dst)] = link
        return link

    def link_between(self, src: str, dst: str) -> TopoLink:
        try:
            return self._links_by_edge[(src, dst)]
        except KeyError:
            raise ValueError(f"no link {src!r}->{dst!r} in the topology") from None

    # ------------------------------------------------------------------
    # flow registration
    # ------------------------------------------------------------------
    def attach_flow(
        self,
        flow_id: int,
        path: FlowPath,
        data_sink: Callable[[Packet], None],
        ack_sink: Callable[[Packet], None],
    ) -> None:
        """Register a flow's route and its delivery callbacks."""
        if flow_id in self._routes:
            raise ValueError(f"flow {flow_id} already attached")
        links = [
            self.link_between(u, v)
            for u, v in zip(path.nodes, path.nodes[1:])
        ]
        self._routes[flow_id] = _FlowRoute(self, path, links, data_sink, ack_sink)
        self.dropped_by_flow[flow_id] = 0
        self.delivered_by_flow[flow_id] = 0

    def detach_flow(self, flow_id: int) -> None:
        """Forget a flow (short-lived workload churn). In-flight packets of
        a detached flow are counted as ``orphaned`` and discarded."""
        if self._routes.pop(flow_id, None) is None:
            raise ValueError(f"flow {flow_id} is not attached")

    @property
    def n_flows(self) -> int:
        return len(self._routes)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send_data(self, pkt: Packet) -> bool:
        """Inject a data packet at its flow's first hop."""
        route = self._routes.get(pkt.flow_id)
        if route is None:
            raise ValueError(
                f"flow {pkt.flow_id} is not attached to this topology; "
                f"attach_flow() it before sending data"
            )
        accepted = route.links[0].send(pkt)
        if not accepted:
            self.dropped_by_flow[pkt.flow_id] += 1
        return accepted

    # ------------------------------------------------------------------
    # ack path
    # ------------------------------------------------------------------
    def send_ack(self, ack: Packet) -> None:
        """Return an ACK over the flow's uncongested reverse path."""
        route = self._routes.get(ack.flow_id)
        if route is None:
            raise ValueError(
                f"flow {ack.flow_id} is not attached to this topology; "
                f"attach_flow() it before sending ACKs"
            )
        self.loop.post(route.path.rev_delay, route.deliver_ack, ack)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def path_prop_delay(self, flow_id: int) -> float:
        """Sum of link propagation delays on the flow's forward path."""
        route = self._require(flow_id)
        return sum(l.prop_delay for l in route.links)

    def min_rtt(self, flow_id: int) -> float:
        """Propagation round trip of the flow's path (no queueing)."""
        route = self._require(flow_id)
        fwd = self.path_prop_delay(flow_id) + route.path.extra_fwd_delay
        return fwd + route.path.rev_delay

    def _require(self, flow_id: int) -> _FlowRoute:
        route = self._routes.get(flow_id)
        if route is None:
            raise ValueError(f"flow {flow_id} is not attached to this topology")
        return route

    def describe(self) -> str:
        """Human-readable node/link inventory (CLI ``topo describe``)."""
        lines = [f"Topology: {len(self.nodes)} nodes, {len(self.links)} links,"
                 f" {self.n_flows} attached flow(s)"]
        for name in self.nodes:
            node = self.nodes[name]
            lines.append(f"  node {node.name:12s} [{node.kind}]")
        for link in self.links:
            rate = link.rate.rate_at(self.loop.now)
            aqm = link.aqm
            kw = ", ".join(
                f"{k}={v}" for k, v in sorted(aqm.params().items())
                if v is not None
            )
            lines.append(
                f"  link {link.name:16s} {rate / 1e6:8.1f} Mbps  "
                f"prop {link.prop_delay * 1e3:6.2f} ms  "
                f"{type(aqm).__name__}({aqm.capacity_bytes} B"
                + (f", {kw}" if kw else "")
                + ")"
                + (f"  loss {link.loss:.2%}" if link.loss else "")
            )
        return "\n".join(lines)

    def link_stats(self) -> List[dict]:
        """Per-link observability: drops (by cause), ECN marks, backlog."""
        stats = []
        for link in self.links:
            aqm = link.aqm
            stats.append({
                "name": link.name,
                "aqm": type(aqm).__name__,
                "drops": link.drops,
                "drops_aqm": aqm.drops,
                "drops_loss": link.drops_loss,
                "drops_down": link.drops_down,
                "ecn_marks": aqm.ecn_marks,
                "enqueues": aqm.enqueues,
                "delivered_packets": link.delivered_packets,
                "queue_bytes": link.queue_bytes,
                "stalls": link.stalls,
            })
        return stats

    # ------------------------------------------------------------------
    def view(self, nodes: Sequence[str]) -> "PathView":
        """The transport-facing network interface for one node path."""
        return PathView(self, tuple(nodes))


@dataclass
class PathConfig:
    """Per-flow path parameters.

    ``min_rtt`` is split evenly between the two directions. ``jitter`` adds
    a uniform random extra delay in ``[0, jitter]`` seconds to each data
    packet's forward propagation — enough jitter reorders packets,
    exercising the SACK machinery the way real multi-path WANs do.
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


class PathView:
    """The network a flow sees: one node path of a :class:`Topology`.

    Endpoints register per flow id a ``data_sink`` (receiver side, called
    when a data packet arrives) and an ``ack_sink`` (sender side, called
    when an ACK returns); senders inject data with :meth:`send_data`,
    receivers return ACKs with :meth:`send_ack`.

    :class:`~repro.tcp.flow.Flow` attaches with a per-flow
    :class:`PathConfig`; the view translates its ``min_rtt`` into
    access-segment delays on top of the path's link propagation: forward
    extra = ``max(min_rtt/2 - sum(link props), 0)``, reverse delay =
    ``min_rtt/2``. On a dumbbell (no link propagation) that is exactly the
    flow's ``min_rtt``, split evenly.
    """

    __slots__ = ("topology", "nodes", "_prop_sum", "loop", "send_data", "send_ack")

    def __init__(self, topology: Topology, nodes: Tuple[str, ...]) -> None:
        self.topology = topology
        self.nodes = nodes
        self.loop: EventLoop = topology.loop
        # the per-packet entry points are the topology's own: routing goes
        # by the packet's flow id, so the view adds nothing to them
        self.send_data = topology.send_data
        self.send_ack = topology.send_ack
        self._prop_sum = sum(
            topology.link_between(u, v).prop_delay
            for u, v in zip(nodes, nodes[1:])
        )

    def attach_flow(
        self,
        flow_id: int,
        path: PathConfig,
        data_sink: Callable[[Packet], None],
        ack_sink: Callable[[Packet], None],
    ) -> None:
        """Register a flow's path and its two delivery callbacks."""
        extra_fwd = max(path.fwd_delay - self._prop_sum, 0.0)
        self.topology.attach_flow(
            flow_id,
            FlowPath(
                nodes=self.nodes,
                extra_fwd_delay=extra_fwd,
                rev_delay=path.rev_delay,
                jitter=path.jitter,
            ),
            data_sink=data_sink,
            ack_sink=ack_sink,
        )

    def detach_flow(self, flow_id: int) -> None:
        """Forget a flow; its in-flight packets are discarded on arrival."""
        self.topology.detach_flow(flow_id)

    def min_rtt(self, flow_id: int) -> float:
        """Propagation round trip: ``PathConfig.min_rtt`` unless the links
        alone take longer."""
        return self.topology.min_rtt(flow_id)

    @property
    def dropped_by_flow(self) -> Dict[int, int]:
        return self.topology.dropped_by_flow

    @property
    def delivered_by_flow(self) -> Dict[int, int]:
        return self.topology.delivered_by_flow


# --------------------------------------------------------------------------
# topology factories
# --------------------------------------------------------------------------

def _aqm_for(aqm: str, buffer_bytes: int, **kw) -> AQM:
    return make_aqm(aqm, buffer_bytes, **kw)


def dumbbell_topology(
    rate: RateProcess,
    aqm: AQM,
    loop: Optional[EventLoop] = None,
    seed: int = 0,
) -> Topology:
    """The paper's single-bottleneck graph: ``snd -> rcv``, one link.

    ::

        sender_1 ─┐                                    ┌─ receiver_1
        sender_2 ─┼─> [ AQM buffer | bottleneck link ] ┼─> receiver_2
           ...    ┘        shared, rate(t)             └─    ...

    Data packets from every flow share the one bottleneck; each flow then
    sees its own one-way propagation delay, and ACKs return on an
    uncongested reverse path. Propagation lives entirely in the per-flow
    access segments, so ``view(("snd", "rcv"))`` splits each flow's
    ``min_rtt`` evenly between the two directions.
    """
    topo = Topology(loop=loop, seed=seed)
    topo.add_node("snd", kind="host")
    topo.add_node("rcv", kind="host")
    topo.add_link("snd", "rcv", rate, aqm, prop_delay=0.0, name="bottleneck")
    return topo


def parking_lot_topology(
    n_segments: int = 3,
    bw_mbps: float = 24.0,
    min_rtt: float = 0.04,
    buffer_bytes: int = 120_000,
    aqm: str = "taildrop",
    bw_per_segment: Optional[Sequence[float]] = None,
    loop: Optional[EventLoop] = None,
    seed: int = 0,
) -> Topology:
    """The classic multi-bottleneck chain: routers ``r0 -> r1 -> ... -> rN``.

    An end-to-end flow traverses every segment; cross traffic on segment
    ``i`` uses only ``r_i -> r_{i+1}``. ``bw_per_segment`` overrides the
    uniform ``bw_mbps`` (e.g. ``(48, 12, 48)`` makes the middle segment the
    strict bottleneck). Link propagation splits ``min_rtt/2`` evenly.
    """
    if n_segments < 2:
        raise ValueError(f"a parking lot needs >= 2 segments, got {n_segments}")
    bws = (tuple(bw_per_segment) if bw_per_segment is not None
           else (bw_mbps,) * n_segments)
    if len(bws) != n_segments:
        raise ValueError(
            f"bw_per_segment has {len(bws)} entries for {n_segments} segments"
        )
    topo = Topology(loop=loop, seed=seed)
    prop = min_rtt / 2.0 / n_segments
    for i in range(n_segments + 1):
        kind = "host" if i in (0, n_segments) else "router"
        topo.add_node(f"r{i}", kind=kind)
    for i, bw in enumerate(bws):
        topo.add_link(
            f"r{i}", f"r{i + 1}", FlatRate(bw * 1e6),
            _aqm_for(aqm, buffer_bytes), prop_delay=prop,
            name=f"seg{i}",
        )
    return topo


def incast_topology(
    n_senders: int = 8,
    bw_mbps: float = 48.0,
    min_rtt: float = 0.01,
    buffer_bytes: int = 45_000,
    aqm: str = "taildrop",
    access_factor: float = 4.0,
    ecn_threshold_bytes: int = 0,
    loop: Optional[EventLoop] = None,
    seed: int = 0,
) -> Topology:
    """Fan-in: ``s0..s{N-1} -> sw -> rcv`` with a shallow shared egress.

    The datacenter incast shape: N synchronized senders share one
    switch-to-receiver link whose buffer is deliberately shallow; access
    links run ``access_factor`` times faster so congestion concentrates at
    the fan-in point. ``ecn_threshold_bytes`` turns on DCTCP-style step
    marking on the egress queue.
    """
    if n_senders < 1:
        raise ValueError(f"need >= 1 sender, got {n_senders}")
    topo = Topology(loop=loop, seed=seed)
    topo.add_node("sw", kind="router")
    topo.add_node("rcv", kind="host")
    prop = min_rtt / 4.0  # half the one-way delay on each of the two hops
    egress_kw = {}
    if ecn_threshold_bytes > 0:
        key = aqm.partition("@")[0].lower()
        if key in ("taildrop", "tdrop"):
            egress_kw["ecn_threshold_bytes"] = ecn_threshold_bytes
        elif key not in ECN_CAPABLE_AQMS:
            raise ValueError(
                f"AQM {aqm!r} cannot honour ecn_threshold_bytes: it neither "
                f"takes a step-marking threshold (taildrop) nor marks "
                f"natively ({sorted(ECN_CAPABLE_AQMS)})"
            )
    topo.add_link(
        "sw", "rcv", FlatRate(bw_mbps * 1e6),
        _aqm_for(aqm, buffer_bytes, **egress_kw),
        prop_delay=prop, name="egress",
    )
    access_buf = max(buffer_bytes * 4, 64 * 1500)
    for i in range(n_senders):
        topo.add_node(f"s{i}", kind="host")
        topo.add_link(
            f"s{i}", "sw", FlatRate(access_factor * bw_mbps * 1e6),
            _aqm_for("taildrop", access_buf), prop_delay=prop,
            name=f"access{i}",
        )
    return topo


def proxy_split_topology(
    wan_bw_mbps: float = 24.0,
    lan_bw_mbps: float = 96.0,
    wan_rtt: float = 0.08,
    lan_rtt: float = 0.01,
    wan_buffer_bytes: int = 120_000,
    lan_buffer_bytes: int = 240_000,
    aqm: str = "taildrop",
    wan_loss: float = 0.0,
    loop: Optional[EventLoop] = None,
    seed: int = 0,
) -> Topology:
    """Two heterogeneous segments through a proxy: ``snd -> proxy -> rcv``.

    The connection-splitting shape: a slow, long-delay (optionally lossy)
    WAN segment in front of a fast LAN segment, each with its own queue —
    the substrate for split-connection and PEP-style experiments.
    """
    topo = Topology(loop=loop, seed=seed)
    topo.add_node("snd", kind="host")
    topo.add_node("proxy", kind="proxy")
    topo.add_node("rcv", kind="host")
    topo.add_link(
        "snd", "proxy", FlatRate(wan_bw_mbps * 1e6),
        _aqm_for(aqm, wan_buffer_bytes), prop_delay=wan_rtt / 2.0,
        loss=wan_loss, name="wan",
    )
    topo.add_link(
        "proxy", "rcv", FlatRate(lan_bw_mbps * 1e6),
        _aqm_for(aqm, lan_buffer_bytes), prop_delay=lan_rtt / 2.0,
        name="lan",
    )
    return topo


def make_topology(topo_class: str, **kwargs) -> Topology:
    """Factory dispatch over :data:`TOPOLOGY_CLASSES` (accepts ``-`` or ``_``)."""
    name = topo_class.replace("-", "_")
    if name == "dumbbell":
        bw = kwargs.pop("bw_mbps", 24.0)
        buf = kwargs.pop("buffer_bytes", 120_000)
        aqm = kwargs.pop("aqm", "taildrop")
        kwargs.pop("min_rtt", None)  # dumbbell delay is per-flow
        return dumbbell_topology(
            FlatRate(bw * 1e6), _aqm_for(aqm, buf), **kwargs
        )
    if name == "parking_lot":
        return parking_lot_topology(**kwargs)
    if name == "incast":
        return incast_topology(**kwargs)
    if name == "proxy_split":
        # translate the generic knobs into WAN/LAN terms (the WAN is the
        # bottleneck: the LAN leg is 4x faster, 2x buffered, 4x closer)
        if "bw_mbps" in kwargs:
            bw = kwargs.pop("bw_mbps")
            kwargs.setdefault("wan_bw_mbps", bw)
            kwargs.setdefault("lan_bw_mbps", 4.0 * bw)
        if "min_rtt" in kwargs:
            rtt = kwargs.pop("min_rtt")
            kwargs.setdefault("wan_rtt", 0.8 * rtt)
            kwargs.setdefault("lan_rtt", 0.2 * rtt)
        if "buffer_bytes" in kwargs:
            buf = kwargs.pop("buffer_bytes")
            kwargs.setdefault("wan_buffer_bytes", buf)
            kwargs.setdefault("lan_buffer_bytes", 2 * buf)
        return proxy_split_topology(**kwargs)
    raise ValueError(
        f"unknown topology class {topo_class!r}; known: {TOPOLOGY_CLASSES}"
    )


def describe_topology(topo_class: str, **kwargs) -> str:
    """Build a throwaway instance and render its inventory + example path."""
    topo = make_topology(topo_class, **kwargs)
    name = topo_class.replace("-", "_")
    example = {
        "dumbbell": "snd -> rcv",
        "parking_lot": " -> ".join(n for n in topo.nodes),
        "incast": "s0 -> sw -> rcv (x N senders)",
        "proxy_split": "snd -> proxy -> rcv",
    }[name]
    return topo.describe() + f"\n  main path: {example}"
