"""Multi-flow serving harness: N Sage senders, one bottleneck, one server.

The missing scale test for the Execution block: N concurrent flows share a
single bottleneck link *and* a single :class:`PolicyServer`. Every control
tick, each sender's GR unit produces its raw Table-1 state; all N states
are submitted and decided in one batched forward; the resulting cwnd ratios
are enforced through ``TcpSender.set_cwnd`` exactly as ``run_policy`` does
for one flow.

Returns per-flow :class:`~repro.tcp.flow.FlowStats`, the serving-metrics
snapshot, aggregate throughput, and Jain's fairness index across the N
served flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.collector.environments import EnvConfig, build_network
from repro.collector.gr_unit import GRUnit, WindowConfig
from repro.collector.rollout import TICK
from repro.core.networks import SagePolicy
from repro.netsim.topo import make_topology
from repro.serve.engine import PolicyServer, ServeConfig
from repro.tcp.flow import Flow, FlowStats
from repro.workload.fct import FctSummary
from repro.workload.generator import WorkloadConfig, generate_schedule
from repro.workload.runner import (
    _Runner,
    _Session,
    apply_aqmstall,
    apply_linkflap,
    main_paths,
)


@dataclass(frozen=True)
class MultiFlowConfig:
    """One serving-scale scenario: N served flows over one bottleneck."""

    n_flows: int = 8
    bw_mbps: float = 96.0
    min_rtt: float = 0.04
    buffer_bdp: float = 2.0
    duration: float = 10.0
    tick: float = TICK
    aqm: str = "taildrop"
    #: stagger between consecutive flow starts, seconds (0 = all at once)
    start_stagger: float = 0.0

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one flow")

    def env(self) -> EnvConfig:
        return EnvConfig(
            env_id=f"serve-{self.n_flows}flows-bw{self.bw_mbps:g}",
            kind="flat",
            bw_mbps=self.bw_mbps,
            min_rtt=self.min_rtt,
            buffer_bdp=self.buffer_bdp,
            duration=self.duration,
            aqm=self.aqm,
        )


@dataclass
class MultiFlowResult:
    """Outcome of one multi-flow serving run."""

    config: MultiFlowConfig
    stats: List[FlowStats]
    metrics: dict
    aggregate_throughput_bps: float
    jain_fairness: float
    #: per-flow decision counts by provenance, summed over the run
    sources: Dict[str, int] = field(default_factory=dict)


def jain_index(throughputs: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even shares."""
    xs = np.asarray(throughputs, dtype=np.float64)
    if len(xs) == 0 or float(np.sum(xs * xs)) == 0.0:
        return 0.0
    return float(np.sum(xs) ** 2 / (len(xs) * np.sum(xs * xs)))


def run_served_flows(
    policy: SagePolicy,
    config: Optional[MultiFlowConfig] = None,
    serve_config: Optional[ServeConfig] = None,
    server: Optional[PolicyServer] = None,
    windows: Optional[WindowConfig] = None,
    distilled=None,
) -> MultiFlowResult:
    """Drive ``n_flows`` Sage senders through one shared policy server.

    ``server`` overrides construction (e.g. to inject a slow policy or a
    fake clock); otherwise one is built from ``serve_config``, with
    ``distilled`` optionally mounted as the symbolic tier.
    """
    cfg = config if config is not None else MultiFlowConfig()
    if server is None:
        sc = serve_config if serve_config is not None else ServeConfig(
            tick_interval=cfg.tick
        )
        server = PolicyServer(policy, sc, distilled=distilled)

    env = cfg.env()
    loop, network = build_network(env)
    flows: List[Flow] = []
    grs: List[GRUnit] = []
    for i in range(cfg.n_flows):
        flow = Flow(
            network,
            flow_id=i,
            scheme="cubic",  # transport plumbing only: cwnd is served
            min_rtt=cfg.min_rtt,
            start_at=i * cfg.start_stagger,
        )
        flow.sender.external_cwnd_control = True
        server.connect(i)
        flow.start()
        flows.append(flow)
        grs.append(GRUnit(flow.sender, windows=windows))

    t = 0.0
    end = (cfg.n_flows - 1) * cfg.start_stagger + cfg.duration
    sample_every = max(int(round(0.1 / cfg.tick)), 1)
    n_ticks = 0
    while t < end - 1e-9:
        t += cfg.tick
        loop.run_until(t)
        for flow, gr in zip(flows, grs):
            if t < flow.start_at:
                continue
            state, _ = gr.tick()
            server.submit(flow.flow_id, state, cwnd=flow.sender.cwnd)
        decisions = server.tick()
        for fid, decision in decisions.items():
            sender = flows[fid].sender
            sender.set_cwnd(sender.cwnd * decision.ratio)
            grs[fid]._last_cwnd = max(sender.cwnd, 1.0)
        n_ticks += 1
        if n_ticks % sample_every == 0:
            for flow in flows:
                if t >= flow.start_at:
                    flow.sample()

    for flow in flows:
        flow.stop()
        server.close(flow.flow_id)

    stats = [f.stats() for f in flows]
    thrs = [s.avg_throughput_bps for s in stats]
    snapshot = server.metrics.snapshot()
    return MultiFlowResult(
        config=cfg,
        stats=stats,
        metrics=snapshot,
        aggregate_throughput_bps=float(np.sum(thrs)),
        jain_fairness=jain_index(thrs),
        sources=dict(snapshot["sources"]),
    )


# --------------------------------------------------------------------------
# open-loop workload serving
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadServeConfig:
    """Open-loop serving scenario: Poisson arrivals of short served flows."""

    topology: str = "dumbbell"  # a repro.netsim.topo class
    bw_mbps: float = 96.0
    min_rtt: float = 0.02
    buffer_bdp: float = 2.0
    arrival_rate: float = 200.0  # sessions/second
    duration: float = 5.0  # arrival window, seconds
    mean_size_bytes: float = 30_000.0
    size_dist: str = "pareto"
    requests_per_session: float = 1.0
    think_time: float = 0.2
    drain: float = 5.0  # extra seconds for in-flight transfers to finish
    tick: float = TICK
    seed: int = 0

    @property
    def buffer_bytes(self) -> int:
        bdp = self.bw_mbps * 1e6 * self.min_rtt / 8.0
        return max(int(self.buffer_bdp * bdp), 3 * 1500)

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            arrival_rate=self.arrival_rate,
            duration=self.duration,
            size_dist=self.size_dist,
            mean_size_bytes=self.mean_size_bytes,
            requests_per_session=self.requests_per_session,
            think_time=self.think_time,
            seed=self.seed,
        )


@dataclass
class WorkloadServeResult:
    """Outcome of one open-loop served-workload run."""

    config: WorkloadServeConfig
    metrics: dict  # ServingMetrics.snapshot(), includes the "fct" section
    fct: FctSummary
    n_sessions: int
    n_requests: int
    peak_concurrent: int
    flapped_links: List[int] = field(default_factory=list)


def run_served_workload(
    policy: SagePolicy,
    config: Optional[WorkloadServeConfig] = None,
    serve_config: Optional[ServeConfig] = None,
    server: Optional[PolicyServer] = None,
    windows: Optional[WindowConfig] = None,
    distilled=None,
    chaos: Optional[object] = None,
) -> WorkloadServeResult:
    """Serve an open-loop workload: every arriving flow's cwnd is decided
    by the shared :class:`PolicyServer` until the flow completes and closes.

    This is the serving-scale complement of :func:`run_served_flows`: churn
    (connect/close per flow) and short transfers instead of N long-lived
    flows. Completion times land in ``ServingMetrics`` (``fct`` section of
    the snapshot) as well as the returned :class:`FctSummary`.
    """
    cfg = config if config is not None else WorkloadServeConfig()
    if server is None:
        sc = serve_config if serve_config is not None else ServeConfig(
            tick_interval=cfg.tick
        )
        server = PolicyServer(policy, sc, distilled=distilled)

    topo = make_topology(
        cfg.topology,
        bw_mbps=cfg.bw_mbps,
        min_rtt=cfg.min_rtt,
        buffer_bytes=cfg.buffer_bytes,
    )
    loop = topo.loop
    runner = _Runner(
        topo, main_paths(topo), "cubic", cfg.min_rtt, initial_cwnd=10.0
    )
    grs: Dict[int, GRUnit] = {}

    def on_start(flow: Flow) -> None:
        flow.sender.external_cwnd_control = True
        server.connect(flow.flow_id)
        grs[flow.flow_id] = GRUnit(flow.sender, windows=windows)

    def on_finish(fid: int, record) -> None:
        grs.pop(fid, None)
        server.close(fid)
        if record.completed:
            server.metrics.record_fct(record.fct)
        else:
            server.metrics.record_abandoned()

    runner.on_flow_start = on_start
    runner.on_flow_finish = on_finish

    schedule = generate_schedule(cfg.workload(), chaos=chaos)
    flapped = apply_linkflap(topo, chaos, cfg.duration)
    apply_aqmstall(topo, chaos, cfg.duration)
    for arrival in schedule:
        session = _Session(runner, arrival)
        loop.call_at(arrival.time, session.start_next)

    t = 0.0
    end = cfg.duration + cfg.drain
    while t < end - 1e-9:
        t += cfg.tick
        loop.run_until(t)
        for fid in sorted(grs):
            flow = runner.live[fid][0]
            state, _ = grs[fid].tick()
            server.submit(fid, state, cwnd=flow.sender.cwnd)
        decisions = server.tick()
        for fid, decision in decisions.items():
            entry = runner.live.get(fid)
            if entry is None:
                continue
            sender = entry[0].sender
            sender.set_cwnd(sender.cwnd * decision.ratio)
            grs[fid]._last_cwnd = max(sender.cwnd, 1.0)
    runner.abandon_remaining()

    first_path = runner.paths[0]
    links = [
        topo.link_between(u, v) for u, v in zip(first_path, first_path[1:])
    ]
    bottleneck = min(l.rate.rate_at(0.0) for l in links)
    base_rtt = max(cfg.min_rtt, sum(l.prop_delay for l in links) * 2.0)
    fct = FctSummary.from_records(runner.records, base_rtt, bottleneck)
    return WorkloadServeResult(
        config=cfg,
        metrics=server.metrics.snapshot(),
        fct=fct,
        n_sessions=len(schedule),
        n_requests=runner.n_requests,
        peak_concurrent=runner.peak_concurrent,
        flapped_links=flapped,
    )
