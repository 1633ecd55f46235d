"""Collect queue-telemetry traces for the ECN-predictor fitter.

Each shard instruments the bottleneck of a dumbbell topology with a
:class:`~repro.netsim.telemetry.QueueTelemetryRecorder` and drives an
open-loop workload through it under a *heuristic* queue (CoDel by default —
the teacher whose delay judgement the predictor learns to anticipate).
Shards differ only in their seed, so a multi-shard collection spans many
arrival patterns while staying exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.netsim.aqm import make_aqm
from repro.netsim.telemetry import QueueTelemetryRecorder
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.workload.generator import WorkloadConfig
from repro.workload.runner import run_workload

__all__ = ["TraceSpec", "collect_queue_traces"]


@dataclass(frozen=True)
class TraceSpec:
    """One telemetry-collection scenario (one shard per seed)."""

    aqm: str = "codel"
    bw_mbps: float = 24.0
    min_rtt: float = 0.04
    buffer_bytes: int = 90_000
    duration: float = 6.0
    arrival_rate: float = 40.0
    mean_size_bytes: float = 60_000.0
    scheme: str = "cubic"
    max_rows: int = 200_000

    def __post_init__(self) -> None:
        if self.bw_mbps <= 0 or self.min_rtt <= 0 or self.buffer_bytes <= 0:
            raise ValueError(f"invalid trace spec: {self}")


def collect_queue_traces(
    spec: Optional[TraceSpec] = None,
    shards: int = 2,
    seed: int = 1,
    out_dir=None,
    progress=None,
) -> List[Path]:
    """Run ``shards`` instrumented workloads; return the written shard paths.

    Shard ``k`` uses workload seed ``seed + k``. With ``out_dir`` unset the
    shards land in the current directory as ``queue_trace_<k>.npz``.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    spec = spec if spec is not None else TraceSpec()
    out_dir = Path(out_dir) if out_dir is not None else Path(".")
    paths: List[Path] = []
    for k in range(shards):
        topo = dumbbell_topology(
            FlatRate(spec.bw_mbps * 1e6),
            make_aqm(spec.aqm, spec.buffer_bytes),
            seed=seed + k,
        )
        recorder = QueueTelemetryRecorder(max_rows=spec.max_rows)
        topo.links[0].telemetry = recorder
        result = run_workload(
            topo,
            WorkloadConfig(
                arrival_rate=spec.arrival_rate,
                duration=spec.duration,
                mean_size_bytes=spec.mean_size_bytes,
                seed=seed + k,
            ),
            scheme=spec.scheme,
            min_rtt=spec.min_rtt,
        )
        path = recorder.save(out_dir / f"queue_trace_{k}.npz")
        paths.append(path)
        if progress is not None:
            progress(
                f"shard {k + 1}/{shards}: {len(recorder)} rows "
                f"({result.n_requests} requests, "
                f"{recorder.dropped_rows} rows past cap)"
            )
    return paths
