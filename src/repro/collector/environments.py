"""Network environments: Set I, Set II, and the env → simulator builder.

Appendix C of the paper defines the two environment sets:

- **Set I** (single-flow): *flat* scenarios with constant capacity drawn
  from [12, 192] Mbps, minRTT from [10, 160] ms, and buffer from
  [0.5, 16] x BDP; plus *step* scenarios where the capacity is multiplied by
  m in (0.25, 0.5, 2, 4) mid-experiment (capped below 200 Mbps).
- **Set II** (TCP-friendliness): the scheme under test shares the bottleneck
  with a TCP Cubic flow that starts first; buffers span [1, 16] x BDP.

The paper covers >1000 environments; the grids here are parameterized so a
laptop-scale reproduction uses a subsampled grid while the full grid remains
one argument away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netsim.aqm import ECN_CAPABLE_AQMS, make_aqm
from repro.netsim.engine import EventLoop
from repro.netsim.topo import (
    TOPOLOGY_CLASSES,
    PathView,
    dumbbell_topology,
    incast_topology,
    parking_lot_topology,
    proxy_split_topology,
)
from repro.netsim.traces import (
    FlatRate,
    RateProcess,
    StepRate,
    cellular_trace,
    internet_path_rate,
)


@dataclass(frozen=True)
class EnvConfig:
    """One network environment (one cell of the paper's evaluation grids)."""

    env_id: str
    kind: str  # "flat" | "step" | "cellular" | "internet"
    bw_mbps: float  # (initial) bottleneck capacity
    min_rtt: float  # propagation RTT, seconds
    buffer_bdp: float  # bottleneck buffer in multiples of the BDP
    step_m: float = 1.0  # capacity multiplier for step scenarios
    step_at: float = 0.0  # switch time for step scenarios
    n_competing_cubic: int = 0  # Set II: competing Cubic flows
    competitor_head_start: float = 2.0  # seconds Cubic runs alone first
    duration: float = 20.0
    aqm: str = "taildrop"
    trace_seed: int = 0
    #: optional ECN step-marking threshold, as a fraction of the BDP
    #: (taildrop only); enables DCTCP-style experiments.
    ecn_threshold_bdp: float = 0.0
    #: graph shape: "dumbbell" (the historical single bottleneck) or one of
    #: the :data:`~repro.netsim.topo.TOPOLOGY_CLASSES`
    topology: str = "dumbbell"
    #: parking lot: number of chained bottleneck segments
    n_segments: int = 3
    #: parking lot: competing cubic cross flows per segment
    cross_per_segment: int = 1
    #: incast: competing synchronized senders besides the main flow
    n_incast: int = 0

    def __post_init__(self) -> None:
        if self.bw_mbps <= 0 or self.min_rtt <= 0 or self.buffer_bdp <= 0:
            raise ValueError(f"invalid environment parameters: {self}")
        if self.kind not in ("flat", "step", "cellular", "internet"):
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if self.topology not in TOPOLOGY_CLASSES:
            raise ValueError(
                f"unknown topology {self.topology!r}; use {TOPOLOGY_CLASSES}"
            )
        if self.topology != "dumbbell" and self.kind != "flat":
            raise ValueError(
                f"topology {self.topology!r} only supports kind='flat' "
                f"(per-link rate processes are fixed), got {self.kind!r}"
            )
        if self.n_segments < 2:
            raise ValueError("n_segments must be >= 2")
        if self.cross_per_segment < 0 or self.n_incast < 0:
            raise ValueError("competitor counts must be >= 0")

    # ------------------------------------------------------------------
    @property
    def bdp_bytes(self) -> float:
        return self.bw_mbps * 1e6 * self.min_rtt / 8.0

    @property
    def buffer_bytes(self) -> int:
        return max(int(self.buffer_bdp * self.bdp_bytes), 3 * 1500)

    @property
    def n_competitors(self) -> int:
        """How many competing flows the scenario spawns besides the main one."""
        if self.topology == "parking_lot":
            return self.n_segments * self.cross_per_segment
        if self.topology == "incast":
            return self.n_incast
        return self.n_competing_cubic

    @property
    def is_multi_flow(self) -> bool:
        return self.n_competitors > 0

    @property
    def n_sharing(self) -> int:
        """Flows sharing the main flow's tightest bottleneck (incl. itself).

        This is the divisor for fair-share targets: on a parking lot only
        the per-segment cross flows contend with the main flow at any one
        queue; on an incast every sender meets at the fan-in egress.
        """
        if self.topology == "parking_lot":
            return self.cross_per_segment + 1
        if self.topology == "incast":
            return self.n_incast + 1
        return self.n_competing_cubic + 1

    def rate_process(self) -> RateProcess:
        if self.kind == "flat":
            return FlatRate(self.bw_mbps * 1e6)
        if self.kind == "step":
            return StepRate(self.bw_mbps * 1e6, self.step_m, self.step_at)
        if self.kind == "cellular":
            return cellular_trace(
                self.trace_seed, duration=self.duration, mean_mbps=self.bw_mbps
            )
        return internet_path_rate(
            self.trace_seed, self.bw_mbps, duration=self.duration
        )

    def mean_capacity_bps(self) -> float:
        return self.rate_process().mean_rate(self.duration)

    def fair_share_bps(self, n_flows: int) -> float:
        """Ideal per-flow fair share with ``n_flows`` total flows."""
        if n_flows <= 0:
            raise ValueError("need at least one flow")
        return self.mean_capacity_bps() / n_flows


def build_network(env: EnvConfig) -> Tuple[EventLoop, PathView]:
    """Instantiate the simulator for one (dumbbell) environment."""
    aqm_key = env.aqm.partition("@")[0].lower()
    if env.ecn_threshold_bdp > 0 and aqm_key in ("taildrop", "tdrop"):
        # DCTCP-style step marking is a taildrop knob; natively marking
        # disciplines (fq_codel, learned_ecn) signal on their own schedule.
        threshold = max(int(env.ecn_threshold_bdp * env.bdp_bytes), 1500)
        aqm = make_aqm(env.aqm, env.buffer_bytes, ecn_threshold_bytes=threshold)
    elif env.ecn_threshold_bdp > 0 and aqm_key not in ECN_CAPABLE_AQMS:
        raise ValueError(
            f"AQM {env.aqm!r} cannot honour ecn_threshold_bdp: it neither "
            f"takes a step-marking threshold (taildrop) nor marks natively "
            f"({sorted(ECN_CAPABLE_AQMS)})"
        )
    else:
        aqm = make_aqm(env.aqm, env.buffer_bytes)
    topo = dumbbell_topology(env.rate_process(), aqm)
    return topo.loop, topo.view(("snd", "rcv"))


def build_scenario(env: EnvConfig):
    """Instantiate any environment: ``(loop, main, competitor_views)``.

    ``main`` is what the scheme under test attaches to; the list holds one
    :class:`~repro.netsim.topo.PathView` per competing flow, in spawn order.
    For ``topology="dumbbell"`` this delegates to :func:`build_network` and
    returns the very same view for every slot.
    """
    if env.topology == "dumbbell":
        loop, network = build_network(env)
        return loop, network, [network] * env.n_competing_cubic

    if env.topology == "parking_lot":
        topo = parking_lot_topology(
            n_segments=env.n_segments,
            bw_mbps=env.bw_mbps,
            min_rtt=env.min_rtt,
            buffer_bytes=env.buffer_bytes,
            aqm=env.aqm,
        )
        chain = tuple(f"r{i}" for i in range(env.n_segments + 1))
        main = topo.view(chain)
        competitors: List[PathView] = []
        for seg in range(env.n_segments):
            for _ in range(env.cross_per_segment):
                competitors.append(topo.view((f"r{seg}", f"r{seg + 1}")))
        return topo.loop, main, competitors

    if env.topology == "incast":
        ecn = 0
        if env.ecn_threshold_bdp > 0:
            ecn = max(int(env.ecn_threshold_bdp * env.bdp_bytes), 1500)
        topo = incast_topology(
            n_senders=env.n_incast + 1,
            bw_mbps=env.bw_mbps,
            min_rtt=env.min_rtt,
            buffer_bytes=env.buffer_bytes,
            aqm=env.aqm,
            ecn_threshold_bytes=ecn,
        )
        main = topo.view(("s0", "sw", "rcv"))
        competitors = [
            topo.view((f"s{i + 1}", "sw", "rcv")) for i in range(env.n_incast)
        ]
        return topo.loop, main, competitors

    # proxy_split: bw_mbps/min_rtt describe the WAN segment; the LAN behind
    # the proxy runs 4x faster with a fifth of the delay.
    topo = proxy_split_topology(
        wan_bw_mbps=env.bw_mbps,
        lan_bw_mbps=env.bw_mbps * 4.0,
        wan_rtt=env.min_rtt * 0.8,
        lan_rtt=env.min_rtt * 0.2,
        wan_buffer_bytes=env.buffer_bytes,
        lan_buffer_bytes=env.buffer_bytes * 2,
        aqm=env.aqm,
    )
    main = topo.view(("snd", "proxy", "rcv"))
    competitors = [main] * env.n_competing_cubic
    return topo.loop, main, competitors


# --------------------------------------------------------------------------
# Environment grids
# --------------------------------------------------------------------------

#: Appendix C parameter ranges (values chosen inside the paper's ranges;
#: rates above ~100 Mbps are omitted from the default grid purely for
#: simulation speed — the ranges themselves are arguments below).
_DEFAULT_BWS = (12.0, 24.0, 48.0, 96.0)
_DEFAULT_RTTS = (0.010, 0.040, 0.160)
_DEFAULT_BUFS_SET1 = (0.5, 2.0, 8.0)
_DEFAULT_BUFS_SET2 = (1.0, 4.0, 16.0)
_STEP_MS = (0.25, 0.5, 2.0, 4.0)


def set1_environments(
    bws: Tuple[float, ...] = _DEFAULT_BWS,
    rtts: Tuple[float, ...] = _DEFAULT_RTTS,
    buffers: Tuple[float, ...] = _DEFAULT_BUFS_SET1,
    step_ms: Tuple[float, ...] = _STEP_MS,
    duration: float = 20.0,
    include_steps: bool = True,
) -> List[EnvConfig]:
    """Set I: single-flow flat + step scenarios (Appendix C.1)."""
    envs: List[EnvConfig] = []
    for bw, rtt, buf in itertools.product(bws, rtts, buffers):
        envs.append(
            EnvConfig(
                env_id=f"set1-flat-bw{bw:g}-rtt{rtt * 1000:g}-q{buf:g}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buf,
                duration=duration,
            )
        )
    if include_steps:
        for bw, rtt, m in itertools.product(bws, rtts, step_ms):
            if bw * m >= 200.0:  # the paper keeps step targets under 200 Mbps
                continue
            envs.append(
                EnvConfig(
                    env_id=f"set1-step-bw{bw:g}-m{m:g}-rtt{rtt * 1000:g}",
                    kind="step",
                    bw_mbps=bw,
                    min_rtt=rtt,
                    buffer_bdp=2.0,
                    step_m=m,
                    step_at=duration / 2.0,
                    duration=duration,
                )
            )
    return envs


def set2_environments(
    bws: Tuple[float, ...] = _DEFAULT_BWS,
    rtts: Tuple[float, ...] = _DEFAULT_RTTS,
    buffers: Tuple[float, ...] = _DEFAULT_BUFS_SET2,
    duration: float = 30.0,
) -> List[EnvConfig]:
    """Set II: the scheme under test vs a head-start TCP Cubic flow."""
    envs: List[EnvConfig] = []
    for bw, rtt, buf in itertools.product(bws, rtts, buffers):
        envs.append(
            EnvConfig(
                env_id=f"set2-bw{bw:g}-rtt{rtt * 1000:g}-q{buf:g}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buf,
                n_competing_cubic=1,
                duration=duration,
            )
        )
    return envs


def training_environments(scale: str = "mini") -> List[EnvConfig]:
    """The pool-collection grid at three sizes.

    ``mini``  — a handful of envs, for tests (seconds).
    ``small`` — the default bench grid (minutes).
    ``full``  — the paper-faithful dense grid (hours on one core).
    """
    if scale == "mini":
        return (
            set1_environments(
                bws=(24.0,), rtts=(0.04,), buffers=(2.0,),
                step_ms=(0.5, 2.0), duration=10.0,
            )
            + set2_environments(
                bws=(24.0,), rtts=(0.04,), buffers=(2.0,), duration=12.0
            )
        )
    if scale == "small":
        return (
            set1_environments(
                bws=(12.0, 24.0, 48.0), rtts=(0.02, 0.06), buffers=(1.0, 4.0),
                step_ms=(0.5, 2.0), duration=15.0,
            )
            + set2_environments(
                bws=(12.0, 24.0, 48.0), rtts=(0.02, 0.06), buffers=(2.0, 8.0),
                duration=20.0,
            )
        )
    if scale == "full":
        bws = (12.0, 24.0, 48.0, 96.0, 192.0)
        rtts = (0.010, 0.020, 0.040, 0.080, 0.160)
        return (
            set1_environments(
                bws=bws, rtts=rtts, buffers=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                duration=30.0,
            )
            + set2_environments(
                bws=bws, rtts=rtts, buffers=(1.0, 2.0, 4.0, 8.0, 16.0),
                duration=60.0,
            )
        )
    raise ValueError(f"unknown scale {scale!r}; use mini/small/full")


# --------------------------------------------------------------------------
# Topology environment families (beyond the dumbbell)
# --------------------------------------------------------------------------

def parking_lot_environments(
    bws: Tuple[float, ...] = (24.0, 48.0),
    rtts: Tuple[float, ...] = (0.04,),
    segments: Tuple[int, ...] = (3,),
    cross: Tuple[int, ...] = (1,),
    buffer_bdp: float = 2.0,
    duration: float = 20.0,
) -> List[EnvConfig]:
    """Multi-bottleneck chains with cubic cross traffic on every segment."""
    envs: List[EnvConfig] = []
    for bw, rtt, n_seg, n_cross in itertools.product(bws, rtts, segments, cross):
        envs.append(
            EnvConfig(
                env_id=f"plot-bw{bw:g}-rtt{rtt * 1000:g}-s{n_seg}-x{n_cross}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buffer_bdp,
                duration=duration,
                topology="parking_lot",
                n_segments=n_seg,
                cross_per_segment=n_cross,
            )
        )
    return envs


def incast_environments(
    bws: Tuple[float, ...] = (48.0, 96.0),
    rtts: Tuple[float, ...] = (0.010,),
    fan_in: Tuple[int, ...] = (7, 15),
    buffers: Tuple[float, ...] = (0.5,),
    duration: float = 10.0,
) -> List[EnvConfig]:
    """Datacenter fan-in: N+1 synchronized senders, one shallow egress."""
    envs: List[EnvConfig] = []
    for bw, rtt, n, buf in itertools.product(bws, rtts, fan_in, buffers):
        envs.append(
            EnvConfig(
                env_id=f"incast-bw{bw:g}-rtt{rtt * 1000:g}-n{n + 1}-q{buf:g}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buf,
                duration=duration,
                topology="incast",
                n_incast=n,
            )
        )
    return envs


def proxy_split_environments(
    bws: Tuple[float, ...] = (24.0,),
    rtts: Tuple[float, ...] = (0.080, 0.160),
    buffers: Tuple[float, ...] = (2.0,),
    n_competing: Tuple[int, ...] = (0, 1),
    duration: float = 20.0,
) -> List[EnvConfig]:
    """Heterogeneous WAN+LAN segments through a proxy (split-connection)."""
    envs: List[EnvConfig] = []
    for bw, rtt, buf, n in itertools.product(bws, rtts, buffers, n_competing):
        envs.append(
            EnvConfig(
                env_id=f"proxy-bw{bw:g}-rtt{rtt * 1000:g}-q{buf:g}-c{n}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buf,
                n_competing_cubic=n,
                duration=duration,
                topology="proxy_split",
            )
        )
    return envs


def aqm_environments(
    aqm: str,
    bws: Tuple[float, ...] = (24.0, 96.0),
    rtts: Tuple[float, ...] = (0.04,),
    buffers: Tuple[float, ...] = (2.0,),
    duration: float = 12.0,
    ecn_threshold_bdp: float = 0.0,
) -> List[EnvConfig]:
    """A representative dumbbell env set under one queue discipline.

    The (scheme x AQM) co-evolution league evaluates every participant over
    these: a flat single-flow slice plus one cubic-friendliness env, all
    with the bottleneck buffer managed by ``aqm``. ``ecn_threshold_bdp``
    arms DCTCP-style step marking where the discipline supports a threshold
    (taildrop); natively marking AQMs (``fq_codel``, ``learned_ecn``) signal
    on their own schedule and ignore it.
    """
    key = aqm.partition("@")[0].lower()
    threshold = ecn_threshold_bdp if key in ("taildrop", "tdrop") else 0.0
    tag = key.replace("_", "")
    envs: List[EnvConfig] = []
    for bw, rtt, buf in itertools.product(bws, rtts, buffers):
        envs.append(
            EnvConfig(
                env_id=f"aqm-{tag}-bw{bw:g}-rtt{rtt * 1000:g}-q{buf:g}",
                kind="flat",
                bw_mbps=bw,
                min_rtt=rtt,
                buffer_bdp=buf,
                duration=duration,
                aqm=aqm,
                ecn_threshold_bdp=threshold,
            )
        )
    envs.append(
        EnvConfig(
            env_id=f"aqm-{tag}-bw{bws[0]:g}-rtt{rtts[0] * 1000:g}-vs-cubic",
            kind="flat",
            bw_mbps=bws[0],
            min_rtt=rtts[0],
            buffer_bdp=max(buffers),
            n_competing_cubic=1,
            duration=duration,
            aqm=aqm,
            ecn_threshold_bdp=threshold,
        )
    )
    return envs


def topology_class_environments(
    topo_class: str, duration: float = 12.0
) -> List[EnvConfig]:
    """A small representative env set for one topology class.

    The league winning-rate matrix (scheme x topology class) evaluates each
    participant over these; ``dumbbell`` reuses a slice of Set I + Set II.
    """
    name = topo_class.replace("-", "_")
    if name == "dumbbell":
        return (
            set1_environments(
                bws=(24.0, 96.0), rtts=(0.04,), buffers=(2.0,),
                include_steps=False, duration=duration,
            )
            + set2_environments(
                bws=(24.0,), rtts=(0.04,), buffers=(4.0,), duration=duration
            )
        )
    if name == "parking_lot":
        return parking_lot_environments(
            bws=(24.0, 48.0), segments=(3,), cross=(1,), duration=duration
        )
    if name == "incast":
        return incast_environments(
            bws=(48.0,), fan_in=(7, 15), duration=min(duration, 10.0)
        )
    if name == "proxy_split":
        return proxy_split_environments(
            bws=(24.0,), rtts=(0.080,), n_competing=(0, 1), duration=duration
        )
    raise ValueError(
        f"unknown topology class {topo_class!r}; use {TOPOLOGY_CLASSES}"
    )
