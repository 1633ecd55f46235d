"""Time-series experiments: behaviour samples, fairness, friendliness, AQMs.

Covers the paper's deep-dive figures:

- :func:`behavior_scenarios` (Fig. 17): sending rate / one-way delay / cwnd
  in the three sample scenarios (capacity doubles, capacity halves, vs a
  Cubic flow).
- :func:`fairness_experiment` (Figs. 18, 27): flows of one scheme joining a
  shared bottleneck every 25 s.
- :func:`friendliness_experiment` (Figs. 19, 28): one flow vs 3 or 7
  competing Cubic flows.
- :func:`aqm_experiment` (Fig. 23): throughput/delay under five AQMs.
- :func:`frontier_experiment` (Fig. 22): throughput-delay scatter of the
  pool schemes vs the learned policy in shallow/deep-buffer networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.environments import EnvConfig, build_network
from repro.evalx.leagues import Participant, run_participant
from repro.netsim.engine import EventLoop
from repro.tcp.cc_base import CongestionControl
from repro.tcp.flow import Flow, FlowStats


# ---------------------------------------------------------------------------
# Fig. 17 — three sample scenarios
# ---------------------------------------------------------------------------

def behavior_scenarios(duration: float = 30.0) -> List[EnvConfig]:
    """The Fig. 17 scenarios: 24->48 Mbps, 48->24 Mbps, and vs-Cubic.

    All use 20 ms minimum RTT and a 300-packet (450 KB) bottleneck buffer,
    as the paper specifies.
    """
    buffer_bdp_24 = 450e3 / (24e6 * 0.020 / 8)  # 450 KB expressed in BDPs
    return [
        EnvConfig(
            env_id="fig17-step-up", kind="step", bw_mbps=24.0, min_rtt=0.020,
            buffer_bdp=buffer_bdp_24, step_m=2.0, step_at=duration / 2,
            duration=duration,
        ),
        EnvConfig(
            env_id="fig17-step-down", kind="step", bw_mbps=48.0, min_rtt=0.020,
            buffer_bdp=buffer_bdp_24 / 2, step_m=0.5, step_at=duration / 2,
            duration=duration,
        ),
        EnvConfig(
            env_id="fig17-vs-cubic", kind="flat", bw_mbps=24.0, min_rtt=0.020,
            buffer_bdp=buffer_bdp_24, n_competing_cubic=1, duration=duration,
        ),
    ]


# ---------------------------------------------------------------------------
# Multi-flow runners (fairness / friendliness)
# ---------------------------------------------------------------------------

@dataclass
class MultiFlowResult:
    """Per-flow time series from a shared-bottleneck experiment."""

    env: EnvConfig
    flow_stats: List[FlowStats] = field(default_factory=list)

    def jain_index(self, tail_fraction: float = 0.5) -> float:
        """Jain's fairness index over the tail of the experiment."""
        rates = []
        for s in self.flow_stats:
            series = np.asarray(s.throughput_series)
            if series.size == 0:
                continue
            tail = series[int(len(series) * (1 - tail_fraction)):]
            rates.append(float(tail.mean()))
        x = np.asarray(rates)
        if x.size == 0 or (x ** 2).sum() == 0:
            return 0.0
        return float(x.sum() ** 2 / (x.size * (x ** 2).sum()))


def _drive(
    loop: EventLoop, flows: List[Flow], duration: float, sample_dt: float = 0.1
) -> None:
    t = 0.0
    while t < duration - 1e-9:
        t += sample_dt
        loop.run_until(t)
        for f in flows:
            if t >= f.start_at:
                f.sample()
    for f in flows:
        f.stop()


def fairness_experiment(
    participant: Participant,
    n_flows: int = 4,
    join_every: float = 25.0,
    bw_mbps: float = 48.0,
    min_rtt: float = 0.040,
    duration: float = 120.0,
) -> MultiFlowResult:
    """Figs. 18/27: flows of the same scheme join every ``join_every`` s.

    Learned agents are wrapped per flow (each flow gets an independent agent
    instance state via reset-per-flow semantics of the rollout runner); for
    simplicity agents here control their flow through a per-flow GR loop.
    """
    env = EnvConfig(
        env_id=f"fairness-{participant.name}", kind="flat", bw_mbps=bw_mbps,
        min_rtt=min_rtt, buffer_bdp=2.0, duration=duration,
    )
    loop, network = build_network(env)
    flows = []
    controllers = []
    from repro.collector.gr_unit import GRUnit  # local to avoid cycle

    for i in range(n_flows):
        start = i * join_every
        if participant.scheme is not None:
            flow = Flow(network, i, participant.scheme, min_rtt=min_rtt, start_at=start)
        else:
            import copy

            agent = copy.deepcopy(participant.agent)
            agent.reset()
            flow = Flow(network, i, "newreno", min_rtt=min_rtt, start_at=start)
            flow.sender.external_cwnd_control = True
            controllers.append((agent, flow, GRUnit(flow.sender)))
        flows.append(flow)
        flow.start()

    # drive with a 20 ms agent tick interleaved with 100 ms sampling
    t = 0.0
    tick = 0.02
    next_sample = 0.1
    while t < duration - 1e-9:
        t += tick
        loop.run_until(t)
        for agent, flow, gr in controllers:
            if t >= flow.start_at:
                state, _ = gr.tick()
                ratio = float(np.clip(agent.act(state), 1 / 3, 3.0))
                flow.sender.set_cwnd(flow.sender.cwnd * ratio)
                gr._last_cwnd = max(flow.sender.cwnd, 1.0)
        if t >= next_sample - 1e-9:
            for f in flows:
                if t >= f.start_at:
                    f.sample()
            next_sample += 0.1
    for f in flows:
        f.stop()
    return MultiFlowResult(env=env, flow_stats=[f.stats() for f in flows])


def friendliness_experiment(
    participant: Participant,
    n_cubic: int = 3,
    bw_mbps: float = 48.0,
    min_rtt: float = 0.040,
    buffer_bdp: float = 1.0,
    duration: float = 60.0,
) -> MultiFlowResult:
    """Figs. 19/28: one flow of the participant vs ``n_cubic`` Cubic flows."""
    env = EnvConfig(
        env_id=f"friendliness-{participant.name}-x{n_cubic}", kind="flat",
        bw_mbps=bw_mbps, min_rtt=min_rtt, buffer_bdp=buffer_bdp,
        n_competing_cubic=n_cubic, duration=duration,
    )
    result = run_participant(participant, env)
    return MultiFlowResult(
        env=env, flow_stats=[result.stats] + result.competitor_stats
    )


# ---------------------------------------------------------------------------
# Fig. 23 — AQM robustness
# ---------------------------------------------------------------------------

AQM_NAMES = ("headdrop", "taildrop", "pie", "bode", "codel")


def aqm_experiment(
    participants: Sequence[Participant],
    aqms: Sequence[str] = AQM_NAMES,
    bw_mbps: float = 48.0,
    min_rtt: float = 0.020,
    buffer_bytes: int = 240_000,
    duration: float = 20.0,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Fig. 23: {participant: {aqm: (throughput_bps, avg_owd_s)}}."""
    buffer_bdp = buffer_bytes / (bw_mbps * 1e6 * min_rtt / 8.0)
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for p in participants:
        out[p.name] = {}
        for aqm in aqms:
            env = EnvConfig(
                env_id=f"aqm-{aqm}-{p.name}", kind="flat", bw_mbps=bw_mbps,
                min_rtt=min_rtt, buffer_bdp=buffer_bdp, duration=duration,
                aqm=aqm,
            )
            result = run_participant(p, env)
            out[p.name][aqm] = (
                result.stats.avg_throughput_bps,
                result.stats.avg_owd,
            )
    return out


# ---------------------------------------------------------------------------
# Fig. 22 — the performance frontier
# ---------------------------------------------------------------------------

def frontier_experiment(
    participants: Sequence[Participant],
    bw_mbps: float = 48.0,
    min_rtt: float = 0.040,
    duration: float = 20.0,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Fig. 22: throughput-delay points in shallow and deep buffers.

    Returns ``{"shallow"|"deep": {participant: (thr_bps, owd_s)}}``.
    """
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for label, buf in (("shallow", 0.5), ("deep", 8.0)):
        out[label] = {}
        for p in participants:
            env = EnvConfig(
                env_id=f"frontier-{label}-{p.name}", kind="flat",
                bw_mbps=bw_mbps, min_rtt=min_rtt, buffer_bdp=buf,
                duration=duration,
            )
            result = run_participant(p, env)
            out[label][p.name] = (
                result.stats.avg_throughput_bps,
                result.stats.avg_owd,
            )
    return out
