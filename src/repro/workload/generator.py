"""Deterministic open-loop workload schedules.

A schedule is pure data: session arrival times (Poisson), request sizes
(heavy-tailed Pareto or log-normal — a few huge elephants dominate the
bytes while mice dominate the count, the canonical web traffic shape), and
per-session request/response chains with think times.

Determinism contract: every random draw comes from a stream seeded with
:func:`~repro.seeding.derive_seed` (SplitMix64) keyed by the
workload seed and the arrival index — never from shared mutable RNG state.
The same config therefore yields byte-identical schedules across runs,
worker counts, and generation order, and :func:`schedule_digest` gives a
stable fingerprint to assert it.
"""

from __future__ import annotations

import hashlib
import math
import random as _random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.seeding import derive_seed

__all__ = [
    "SIZE_DISTS",
    "WorkloadConfig",
    "Request",
    "FlowArrival",
    "generate_schedule",
    "schedule_digest",
]

SIZE_DISTS = ("pareto", "lognormal", "fixed")

# stream labels keyed into derive_seed so each purpose gets its own stream
_ARRIVAL_STREAM = 0x0A11
_DETAIL_STREAM_BASE = 0x10000
_BURST_STREAM_BASE = 0x20000


@dataclass(frozen=True)
class WorkloadConfig:
    """One open-loop traffic mix.

    ``arrival_rate`` is sessions/second (Poisson). With
    ``requests_per_session`` > 1, each arrival is a request/response web
    session: request ``k+1`` starts an exponential think time after request
    ``k`` completes. ``requests_per_session`` is the geometric mean; 1
    makes every arrival a single flow.
    """

    arrival_rate: float = 100.0  # sessions per second
    duration: float = 10.0  # arrival window, seconds
    size_dist: str = "pareto"
    mean_size_bytes: float = 50_000.0
    pareto_alpha: float = 1.5
    lognormal_sigma: float = 1.0
    max_size_bytes: int = 10_000_000
    #: geometric mean of requests per session (1 = plain flows, no sessions)
    requests_per_session: float = 1.0
    #: mean exponential think time between a response and the next request
    think_time: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.size_dist not in SIZE_DISTS:
            raise ValueError(
                f"unknown size_dist {self.size_dist!r}; use {SIZE_DISTS}"
            )
        if self.mean_size_bytes < 64:
            raise ValueError("mean_size_bytes must be >= 64")
        if self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must be > 1 (finite mean)")
        if self.requests_per_session < 1.0:
            raise ValueError("requests_per_session must be >= 1")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")


@dataclass(frozen=True)
class Request:
    """One transfer within a session."""

    size_bytes: int
    #: delay after the previous request completes before this one starts
    #: (0 for the first request of a session)
    think_time: float = 0.0


@dataclass(frozen=True)
class FlowArrival:
    """One scheduled session: when it starts and what it transfers."""

    arrival_index: int
    time: float
    requests: Tuple[Request, ...]
    #: True when injected by the chaos ``workload.burst`` site
    burst: bool = False

    @property
    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests)


def _draw_size(cfg: WorkloadConfig, rng: _random.Random) -> int:
    if cfg.size_dist == "fixed":
        size = cfg.mean_size_bytes
    elif cfg.size_dist == "pareto":
        # paretovariate(a) >= 1 with mean a/(a-1); rescale to the target mean
        a = cfg.pareto_alpha
        size = cfg.mean_size_bytes * (a - 1.0) / a * rng.paretovariate(a)
    else:  # lognormal
        sigma = cfg.lognormal_sigma
        mu = math.log(cfg.mean_size_bytes) - 0.5 * sigma * sigma
        size = rng.lognormvariate(mu, sigma)
    return max(min(int(size), cfg.max_size_bytes), 64)


def _draw_requests(cfg: WorkloadConfig, rng: _random.Random) -> Tuple[Request, ...]:
    if cfg.requests_per_session <= 1.0:
        n = 1
    else:
        # geometric with the configured mean (success prob 1/mean)
        p = 1.0 / cfg.requests_per_session
        u = rng.random()
        n = min(int(math.log(max(u, 1e-12)) / math.log(1.0 - p)) + 1, 64)
    reqs = []
    for k in range(n):
        think = 0.0 if k == 0 else rng.expovariate(1.0 / max(cfg.think_time, 1e-9))
        reqs.append(Request(size_bytes=_draw_size(cfg, rng), think_time=think))
    return tuple(reqs)


def generate_schedule(
    cfg: WorkloadConfig, chaos: Optional[object] = None
) -> List[FlowArrival]:
    """All session arrivals in ``[0, duration)``, deterministically.

    ``chaos`` is an optional :class:`~repro.chaos.inject.FaultInjector`;
    an armed ``workload.burst`` fault targeting arrival index ``i`` injects
    ``param`` extra simultaneous sessions at that arrival (a synchronized
    burst — the incast trigger). Faults are one-shot, so a retry after a
    crash replays the clean schedule.
    """
    arrival_rng = _random.Random(derive_seed(cfg.seed, _ARRIVAL_STREAM))
    out: List[FlowArrival] = []
    t = 0.0
    i = 0
    while True:
        t += arrival_rng.expovariate(cfg.arrival_rate)
        if t >= cfg.duration:
            break
        detail_rng = _random.Random(derive_seed(cfg.seed, _DETAIL_STREAM_BASE + i))
        out.append(
            FlowArrival(
                arrival_index=i, time=t, requests=_draw_requests(cfg, detail_rng)
            )
        )
        burst = None
        if chaos is not None:
            burst = chaos.take(
                "workload.burst", i, detail=f"burst at arrival {i} t={t:.3f}"
            )
        if burst is not None:
            extra = max(int(burst.param), 1)
            for j in range(extra):
                clone_rng = _random.Random(
                    derive_seed(cfg.seed, _BURST_STREAM_BASE + i * 256 + j)
                )
                out.append(
                    FlowArrival(
                        arrival_index=i,
                        time=t,
                        requests=_draw_requests(cfg, clone_rng),
                        burst=True,
                    )
                )
        i += 1
    return out


def schedule_digest(schedule: List[FlowArrival]) -> str:
    """Stable fingerprint of a schedule (determinism assertions)."""
    h = hashlib.sha256()
    for a in schedule:
        h.update(f"{a.arrival_index}:{a.time!r}:{int(a.burst)}".encode())
        for r in a.requests:
            h.update(f"|{r.size_bytes}:{r.think_time!r}".encode())
        h.update(b";")
    return h.hexdigest()[:16]
