"""Simulated Internet and cellular evaluations (Section 6.1, Appendix G/H).

The paper sends traffic between 15 GENI servers across the US
(intra-continental) and 13 AWS servers around the globe
(inter-continental), with minimum RTTs spanning 7-237 ms, plus 23 recorded
cellular traces. Here each source-destination pair becomes a simulated WAN
path: the Table-4 location lists parameterize per-path propagation RTTs,
and capacity follows a mildly-variable cross-traffic process
(:func:`~repro.netsim.traces.internet_path_rate`); cellular runs use the
synthetic Markov-modulated traces.

Reported metrics match Fig. 8: per-scheme average throughput normalized to
the best scheme on that path, and average delay normalized to the lowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.collector.environments import EnvConfig
from repro.evalx.leagues import Participant, play

#: Table 4 (left): GENI servers used for intra-continental experiments.
GENI_SERVERS = [
    "Tennessee (UTC)", "Ohio (OSU)", "Maryland (MAX)", "California (UCSD)",
    "Missouri (UMKC)", "Kentucky (UKY)", "Wisconsin (WISC)", "Ohio (CASE)",
    "Washington (UW)", "Colorado (CU)", "Ohio (MetroDC)",
    "Illinois (UChicago)", "Missouri (MU)", "California (UCLA)",
    "Virginia (VT)",
]

#: Table 4 (right): AWS servers used for inter-continental experiments.
AWS_SERVERS = [
    "Asia-East (HongKong)", "Asia-Middle East (Bahrain)",
    "Asia-North East (Osaka)", "Asia-North East (Tokyo)",
    "Asia-South (Mumbai)", "Asia-South East (Jakarta)",
    "Asia-South East (Singapore)", "Europe-Central (Frankfurt)",
    "Europe-South (Milan)", "Europe-West (Ireland)",
    "Europe-West (London)", "Europe-West (Paris)",
    "South America (Sao Paulo)",
]


def _path_envs(
    names: Sequence[str],
    rtt_lo: float,
    rtt_hi: float,
    bw_lo: float,
    bw_hi: float,
    duration: float,
    tag: str,
    n_paths: Optional[int],
    seed: int,
) -> List[EnvConfig]:
    rng = np.random.default_rng(seed)
    names = list(names)
    if n_paths is not None:
        names = names[:n_paths]
    envs = []
    for i, name in enumerate(names):
        # deterministic per-server parameters inside the paper's ranges
        rtt = rtt_lo + (rtt_hi - rtt_lo) * float(rng.uniform())
        bw = bw_lo + (bw_hi - bw_lo) * float(rng.uniform())
        envs.append(
            EnvConfig(
                env_id=f"{tag}-{i}-{name.split(' ')[0].lower()}",
                kind="internet",
                bw_mbps=round(bw, 1),
                min_rtt=round(rtt, 4),
                buffer_bdp=2.0,
                duration=duration,
                trace_seed=seed + i,
            )
        )
    return envs


def intra_continental_envs(
    duration: float = 10.0, n_paths: Optional[int] = None, seed: int = 11
) -> List[EnvConfig]:
    """US GENI paths: short RTTs (7-70 ms), moderate capacity."""
    return _path_envs(
        GENI_SERVERS, 0.007, 0.070, 20.0, 96.0, duration, "intra", n_paths, seed
    )


def inter_continental_envs(
    duration: float = 10.0, n_paths: Optional[int] = None, seed: int = 23
) -> List[EnvConfig]:
    """Global AWS paths: long RTTs (70-237 ms)."""
    return _path_envs(
        AWS_SERVERS, 0.070, 0.237, 15.0, 64.0, duration, "inter", n_paths, seed
    )


def cellular_envs(
    n_traces: int = 23, duration: float = 15.0, seed: int = 37
) -> List[EnvConfig]:
    """Highly-variable cellular links (the 23-trace substitute)."""
    return [
        EnvConfig(
            env_id=f"cell-{i}",
            kind="cellular",
            bw_mbps=6.0 + (i % 5) * 3.0,  # mean rates spanning 6-18 Mbps
            min_rtt=0.030 + 0.01 * (i % 4),
            buffer_bdp=6.0,
            duration=duration,
            trace_seed=seed + i,
        )
        for i in range(n_traces)
    ]


@dataclass
class InternetReport:
    """Fig. 8-style normalized results for one evaluation set."""

    tag: str
    #: per participant: mean over paths of (throughput / best throughput)
    norm_throughput: Dict[str, float] = field(default_factory=dict)
    #: per participant: mean over paths of (avg delay / lowest avg delay)
    norm_delay: Dict[str, float] = field(default_factory=dict)
    #: per participant: mean over paths of (95%tile delay / lowest avg delay)
    norm_delay_p95: Dict[str, float] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"[{self.tag}] {'scheme':>12} {'norm-thr':>9} {'norm-delay':>11} {'norm-p95':>9}"]
        order = sorted(
            self.norm_throughput,
            key=lambda p: self.norm_throughput[p] / max(self.norm_delay[p], 1e-9),
            reverse=True,
        )
        for p in order:
            lines.append(
                f"{'':14}{p:>12} {self.norm_throughput[p]:9.3f} "
                f"{self.norm_delay[p]:11.3f} {self.norm_delay_p95[p]:9.3f}"
            )
        return "\n".join(lines)


def evaluate_paths(
    participants: Sequence[Participant],
    envs: Sequence[EnvConfig],
    tag: str,
    tick: float = 0.02,
    progress=None,
    workers: int = 1,
) -> InternetReport:
    """Run every participant over every path and normalize per path.

    ``workers`` fans the (participant, path) rollouts across processes
    (see :func:`~repro.evalx.leagues.play`); per-path normalization happens
    after all of a path's participants have finished, so results are
    independent of scheduling.
    """
    thr: Dict[str, List[float]] = {p.name: [] for p in participants}
    dly: Dict[str, List[float]] = {p.name: [] for p in participants}
    p95: Dict[str, List[float]] = {p.name: [] for p in participants}
    results = iter(play(participants, envs, tick, workers, progress))
    for _ in envs:
        per_path = {}
        for p in participants:
            s = next(results).stats
            per_path[p.name] = (
                s.avg_throughput_bps,
                max(s.avg_owd, 1e-4),
                max(s.p95_owd, 1e-4),
            )
        best_thr = max(v[0] for v in per_path.values()) or 1.0
        best_dly = min(v[1] for v in per_path.values())
        for name, (t, d, q) in per_path.items():
            thr[name].append(t / best_thr)
            dly[name].append(d / best_dly)
            p95[name].append(q / best_dly)
    return InternetReport(
        tag=tag,
        norm_throughput={k: float(np.mean(v)) for k, v in thr.items()},
        norm_delay={k: float(np.mean(v)) for k, v in dly.items()},
        norm_delay_p95={k: float(np.mean(v)) for k, v in p95.items()},
    )
