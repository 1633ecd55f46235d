"""Execute an open-loop workload schedule over a topology.

Sessions arrive per the pre-generated schedule (open loop: arrivals do not
wait for the network); each request is a finite :class:`~repro.tcp.flow.Flow`
over one of the topology's paths, round-robined deterministically by
arrival index. A session's next request starts its think time after the
previous one completes. Completed flows detach immediately — in-flight
packets of a detached flow are discarded on arrival — so the topology's
live state stays proportional to *concurrent* flows, not total arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netsim.topo import Topology
from repro.workload.fct import FctRecord, FctSummary
from repro.workload.generator import (
    FlowArrival,
    WorkloadConfig,
    generate_schedule,
    schedule_digest,
)

__all__ = [
    "WorkloadResult", "run_workload", "main_paths",
    "apply_linkflap", "apply_aqmstall",
]

#: workload flow ids start here, clear of collector/serve conventions
FLOW_ID_BASE = 1_000_000

#: fraction of the arrival window at which an armed link flap fires
LINKFLAP_AT_FRAC = 0.25

#: fraction of the arrival window at which an armed AQM stall fires
AQMSTALL_AT_FRAC = 0.4


def main_paths(topology: Topology) -> List[Tuple[str, ...]]:
    """Default node paths for workload traffic, one per source host.

    Hosts with at least one outgoing link are sources; each contributes its
    (unique) shortest chain toward a host with no outgoing links (the
    sink), following single-successor edges — which covers every factory
    shape: dumbbell, parking lot (full chain), incast fan-in, proxy split.
    """
    succ: Dict[str, List[str]] = {n: [] for n in topology.nodes}
    for link in topology.links:
        succ[link.src].append(link.dst)
    paths: List[Tuple[str, ...]] = []
    for name, node in topology.nodes.items():
        if node.kind != "host" or not succ[name]:
            continue
        chain = [name]
        cur = name
        while succ[cur]:
            # deterministic: follow the first-added outgoing edge
            cur = succ[cur][0]
            if cur in chain:
                raise ValueError(f"cycle while tracing path from {name!r}")
            chain.append(cur)
        if len(chain) >= 2:
            paths.append(tuple(chain))
    if not paths:
        raise ValueError("topology has no host with an outgoing link")
    return paths


def apply_linkflap(
    topology: Topology, chaos: Optional[object], duration: float
) -> List[int]:
    """Arm any ``netsim.linkflap`` faults against this topology's links.

    Each armed fault (target = link index) schedules a one-shot down/up at
    ``LINKFLAP_AT_FRAC * duration`` for ``param`` seconds. Faults are
    consumed on arming, so a crashed-and-retried run replays clean.
    Returns the flapped link indices.
    """
    if chaos is None:
        return []
    flapped = []
    for link in topology.links:
        spec = chaos.take(
            "netsim.linkflap", link.index, detail=f"flap {link.name}"
        )
        if spec is not None:
            link.schedule_flap(LINKFLAP_AT_FRAC * duration, float(spec.param))
            flapped.append(link.index)
    return flapped


def apply_aqmstall(
    topology: Topology, chaos: Optional[object], duration: float
) -> List[int]:
    """Arm any ``netsim.aqmstall`` faults against this topology's links.

    Each armed fault (target = link index) freezes that link's dequeue side
    at ``AQMSTALL_AT_FRAC * duration`` for ``param`` seconds — the queue
    keeps policing arrivals but serves nothing, then recovers. Faults are
    consumed on arming, so a crashed-and-retried run replays clean.
    Returns the stalled link indices.
    """
    if chaos is None:
        return []
    stalled = []
    for link in topology.links:
        spec = chaos.take(
            "netsim.aqmstall", link.index, detail=f"stall {link.name}"
        )
        if spec is not None:
            link.schedule_stall(AQMSTALL_AT_FRAC * duration, float(spec.param))
            stalled.append(link.index)
    return stalled


@dataclass
class WorkloadResult:
    """Outcome of one open-loop workload run."""

    config: WorkloadConfig
    records: List[FctRecord]
    summary: FctSummary
    digest: str
    n_sessions: int
    n_requests: int
    peak_concurrent: int
    flapped_links: List[int] = field(default_factory=list)
    stalled_links: List[int] = field(default_factory=list)
    link_stats: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "n_sessions": self.n_sessions,
            "n_requests": self.n_requests,
            "peak_concurrent": self.peak_concurrent,
            "flapped_links": self.flapped_links,
            "stalled_links": self.stalled_links,
            "links": self.link_stats,
            "fct": self.summary.to_json(),
        }


class _Session:
    """Runtime state of one arrival: plays its requests in order."""

    __slots__ = ("runner", "arrival", "next_req", "path")

    def __init__(self, runner: "_Runner", arrival: FlowArrival) -> None:
        self.runner = runner
        self.arrival = arrival
        self.next_req = 0
        self.path = runner.paths[arrival.arrival_index % len(runner.paths)]

    def start_next(self) -> None:
        req = self.arrival.requests[self.next_req]
        self.next_req += 1
        self.runner.launch(self, req.size_bytes)

    def on_flow_done(self) -> None:
        if self.next_req >= len(self.arrival.requests):
            return
        think = self.arrival.requests[self.next_req].think_time
        self.runner.loop.call_later(think, self.start_next)


class _Runner:
    def __init__(
        self,
        topology: Topology,
        paths: Sequence[Tuple[str, ...]],
        scheme: str,
        min_rtt: float,
        initial_cwnd: float,
    ) -> None:
        from repro.tcp.flow import Flow  # local: avoid import cycle at module load

        self._flow_cls = Flow
        self.topology = topology
        self.loop = topology.loop
        self.paths = list(paths)
        self.scheme = scheme
        self.min_rtt = min_rtt
        self.initial_cwnd = initial_cwnd
        self.next_flow_id = FLOW_ID_BASE
        self.live: Dict[int, tuple] = {}  # flow_id -> (Flow, _Session, start, size)
        self.records: List[FctRecord] = []
        self.n_requests = 0
        self.peak_concurrent = 0
        #: hook: called with each new Flow just before it starts (the serve
        #: harness uses this to connect the flow to the policy server)
        self.on_flow_start = None
        #: hook: called with (flow_id, FctRecord) when a flow finishes or
        #: is abandoned at the horizon
        self.on_flow_finish = None

    def launch(self, session: _Session, size_bytes: int) -> None:
        fid = self.next_flow_id
        self.next_flow_id += 1
        view = self.topology.view(session.path)
        flow = self._flow_cls(
            view,
            flow_id=fid,
            scheme=self.scheme,
            min_rtt=self.min_rtt,
            size_bytes=size_bytes,
            initial_cwnd=self.initial_cwnd,
        )
        self.live[fid] = (flow, session, self.loop.now, size_bytes)
        self.n_requests += 1
        self.peak_concurrent = max(self.peak_concurrent, len(self.live))
        flow.sender.on_complete = lambda sender, f=fid: self._done(f)
        if self.on_flow_start is not None:
            self.on_flow_start(flow)
        flow.start()

    def _done(self, fid: int) -> None:
        flow, session, start, size = self.live.pop(fid)
        record = FctRecord(
            flow_id=fid,
            arrival_index=session.arrival.arrival_index,
            size_bytes=size,
            start=start,
            finish=self.loop.now,
        )
        self.records.append(record)
        self.topology.detach_flow(fid)
        if self.on_flow_finish is not None:
            self.on_flow_finish(fid, record)
        session.on_flow_done()

    def abandon_remaining(self) -> None:
        """Horizon reached: record every still-running flow as unfinished."""
        for fid, (flow, session, start, size) in sorted(self.live.items()):
            flow.stop()
            self.topology.detach_flow(fid)
            record = FctRecord(
                flow_id=fid,
                arrival_index=session.arrival.arrival_index,
                size_bytes=size,
                start=start,
                finish=None,
            )
            self.records.append(record)
            if self.on_flow_finish is not None:
                self.on_flow_finish(fid, record)
        self.live.clear()


def run_workload(
    topology: Topology,
    config: Optional[WorkloadConfig] = None,
    scheme: str = "cubic",
    min_rtt: float = 0.04,
    paths: Optional[Sequence[Tuple[str, ...]]] = None,
    drain: float = 10.0,
    initial_cwnd: float = 10.0,
    chaos: Optional[object] = None,
) -> WorkloadResult:
    """Drive an open-loop workload through ``topology`` and report FCTs.

    Arrivals span ``[0, config.duration)``; the run continues for ``drain``
    extra seconds so in-flight transfers can finish, then unfinished flows
    are recorded as incomplete. ``paths`` defaults to
    :func:`main_paths`; arrivals round-robin across them by arrival index.
    """
    cfg = config if config is not None else WorkloadConfig()
    schedule = generate_schedule(cfg, chaos=chaos)
    digest = schedule_digest(schedule)
    route_list = list(paths) if paths is not None else main_paths(topology)
    flapped = apply_linkflap(topology, chaos, cfg.duration)
    stalled = apply_aqmstall(topology, chaos, cfg.duration)

    runner = _Runner(topology, route_list, scheme, min_rtt, initial_cwnd)
    for arrival in schedule:
        session = _Session(runner, arrival)
        topology.loop.call_at(arrival.time, session.start_next)

    topology.loop.run_until(cfg.duration + drain)
    runner.abandon_remaining()

    # the slowest shared link on the first path anchors the slowdown ideal
    first_links = [
        topology.link_between(u, v)
        for u, v in zip(route_list[0], route_list[0][1:])
    ]
    bottleneck_bps = min(l.rate.rate_at(0.0) for l in first_links)
    base_rtt = max(min_rtt, sum(l.prop_delay for l in first_links) * 2.0)

    records = sorted(runner.records, key=lambda r: (r.start, r.flow_id))
    link_stats = topology.link_stats()
    summary = FctSummary.from_records(
        records, base_rtt, bottleneck_bps,
        drops=sum(s["drops"] for s in link_stats),
        ecn_marks=sum(s["ecn_marks"] for s in link_stats),
    )
    return WorkloadResult(
        config=cfg,
        records=records,
        summary=summary,
        digest=digest,
        n_sessions=len(schedule),
        n_requests=runner.n_requests,
        peak_concurrent=runner.peak_concurrent,
        flapped_links=flapped,
        stalled_links=stalled,
        link_stats=link_stats,
    )
