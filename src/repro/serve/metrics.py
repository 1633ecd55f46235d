"""Serving metrics: inference latency, batch sizes, per-tier accounting.

The serving engine records one sample per NN forward (one batched tick)
plus per-decision outcome counters. With the tiered router, decisions also
roll up into **tiers**:

- tier 0 (``symbolic``): answered by the distilled tree's fast path;
- tier 1 (``nn``): the batched NN forward — both fresh ``policy`` answers
  and ``stale`` holds (a stale decision is the NN tier missing its
  deadline, not a different answerer);
- tier 2 (``heuristic``): the CUBIC/AIMD fallback.

``snapshot()`` renders the JSON-able summary the harness results carry.
``invalid_actions`` keeps its historical meaning: non-finite policy outputs
caught before they reach a sender.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: decision provenance labels, in reporting order
SOURCES = ("policy", "symbolic", "stale", "heuristic")

#: router tiers, in reporting order (sources roll up into these)
TIERS = ("symbolic", "nn", "heuristic")

#: tiers that carry their own latency samples ("nn" reuses the tick timer)
_TIER_LATENCY_KEYS = ("symbolic", "heuristic")


class ServingMetrics:
    """Rolling counters for one :class:`~repro.serve.engine.PolicyServer`."""

    __slots__ = ("latencies_s", "batch_hist", "sources", "ticks", "decisions",
                 "deadline_misses", "invalid_actions", "tier_latencies_s",
                 "fcts_s", "flows_abandoned")

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.batch_hist: Dict[int, int] = {}
        self.sources: Dict[str, int] = {s: 0 for s in SOURCES}
        self.ticks = 0
        self.decisions = 0
        self.deadline_misses = 0  # ticks whose forward blew the budget
        self.invalid_actions = 0  # non-finite policy outputs caught pre-apply
        self.tier_latencies_s: Dict[str, List[float]] = {
            k: [] for k in _TIER_LATENCY_KEYS
        }
        # open-loop workload serving: per-flow completion times (simulated
        # seconds) and flows abandoned unfinished at the horizon
        self.fcts_s: List[float] = []
        self.flows_abandoned = 0

    # ------------------------------------------------------------------
    def record_tick(
        self, batch_size: int, latency_s: float, missed_deadline: bool
    ) -> None:
        self.ticks += 1
        self.latencies_s.append(latency_s)
        self.batch_hist[batch_size] = self.batch_hist.get(batch_size, 0) + 1
        if missed_deadline:
            self.deadline_misses += 1

    def record_decision(self, source: str) -> None:
        self.sources[source] += 1
        self.decisions += 1

    def record_decisions(self, source: str, n: int) -> None:
        """Bulk :meth:`record_decision` (the symbolic tier commits in batch)."""
        self.sources[source] += n
        self.decisions += n

    def record_tier_latency(self, tier: str, latency_s: float) -> None:
        """One latency sample for a non-NN tier ("symbolic" / "heuristic")."""
        self.tier_latencies_s[tier].append(latency_s)

    def record_fct(self, fct_s: float) -> None:
        """One served flow finished its transfer after ``fct_s`` sim-seconds."""
        self.fcts_s.append(fct_s)

    def record_abandoned(self, n: int = 1) -> None:
        """``n`` served flows were still unfinished at the run horizon."""
        self.flows_abandoned += n

    # ------------------------------------------------------------------
    # snapshot/restore (server crash tolerance) + memory-pressure shrink
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Full JSON-able state (unlike :meth:`snapshot`, loses nothing).

        Python's ``json`` round-trips floats exactly (shortest-repr), so
        a restored metrics object reports bit-identical percentiles.
        """
        return {
            "latencies_s": list(self.latencies_s),
            "batch_hist": {str(k): v for k, v in self.batch_hist.items()},
            "sources": dict(self.sources),
            "ticks": self.ticks,
            "decisions": self.decisions,
            "deadline_misses": self.deadline_misses,
            "invalid_actions": self.invalid_actions,
            "tier_latencies_s": {
                k: list(v) for k, v in self.tier_latencies_s.items()
            },
            "fcts_s": list(self.fcts_s),
            "flows_abandoned": self.flows_abandoned,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ServingMetrics":
        """Rebuild a metrics object from :meth:`to_state` output."""
        m = cls()
        m.latencies_s = [float(v) for v in state.get("latencies_s", [])]
        m.batch_hist = {
            int(k): int(v) for k, v in state.get("batch_hist", {}).items()
        }
        m.sources.update(
            {str(k): int(v) for k, v in state.get("sources", {}).items()}
        )
        m.ticks = int(state.get("ticks", 0))
        m.decisions = int(state.get("decisions", 0))
        m.deadline_misses = int(state.get("deadline_misses", 0))
        m.invalid_actions = int(state.get("invalid_actions", 0))
        for k, v in state.get("tier_latencies_s", {}).items():
            m.tier_latencies_s[str(k)] = [float(x) for x in v]
        m.fcts_s = [float(v) for v in state.get("fcts_s", [])]
        m.flows_abandoned = int(state.get("flows_abandoned", 0))
        return m

    def shrink(self, keep: int = 4096) -> int:
        """Drop the oldest latency/FCT samples, keeping the last ``keep``.

        The memory-pressure release valve for long soaks: the per-sample
        lists are the only unbounded state here, while every counter and
        the batch histogram stay exact. Returns the number of samples
        dropped.
        """
        keep = max(int(keep), 0)
        dropped = 0
        for samples in (
            self.latencies_s, self.fcts_s, *self.tier_latencies_s.values()
        ):
            excess = len(samples) - keep
            if excess > 0:
                del samples[:excess]
                dropped += excess
        return dropped

    # ------------------------------------------------------------------
    def latency_percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(self.latencies_s, q)) * 1e3

    def fct_percentile_ms(self, q: float) -> float:
        if not self.fcts_s:
            return 0.0
        return float(np.percentile(self.fcts_s, q)) * 1e3

    def tier_latency_percentile_ms(self, tier: str, q: float) -> float:
        """Latency percentile for one tier; "nn" maps to the tick timer."""
        if tier == "nn":
            return self.latency_percentile_ms(q)
        samples = self.tier_latencies_s[tier]
        if not samples:
            return 0.0
        return float(np.percentile(samples, q)) * 1e3

    @property
    def tier_decisions(self) -> Dict[str, int]:
        """Decision counts rolled up by router tier."""
        return {
            "symbolic": self.sources["symbolic"],
            "nn": self.sources["policy"] + self.sources["stale"],
            "heuristic": self.sources["heuristic"],
        }

    @property
    def symbolic_hit_rate(self) -> float:
        """Fraction of all decisions answered by the tier-0 fast path."""
        if self.decisions == 0:
            return 0.0
        return self.sources["symbolic"] / self.decisions

    @property
    def fallback_rate(self) -> float:
        """Fraction of decisions not served fresh from the policy tiers."""
        if self.decisions == 0:
            return 0.0
        return (self.sources["stale"] + self.sources["heuristic"]) / self.decisions

    def snapshot(self) -> dict:
        """JSON-able summary of everything recorded so far."""
        tiers = {}
        counts = self.tier_decisions
        for tier in TIERS:
            tiers[tier] = {
                "decisions": counts[tier],
                "latency_p50_ms": round(
                    self.tier_latency_percentile_ms(tier, 50.0), 4
                ),
                "latency_p99_ms": round(
                    self.tier_latency_percentile_ms(tier, 99.0), 4
                ),
            }
        snap = {
            "ticks": self.ticks,
            "decisions": self.decisions,
            "deadline_misses": self.deadline_misses,
            "invalid_actions": self.invalid_actions,
            "latency_p50_ms": round(self.latency_percentile_ms(50.0), 4),
            "latency_p99_ms": round(self.latency_percentile_ms(99.0), 4),
            "batch_hist": {str(k): v for k, v in sorted(self.batch_hist.items())},
            "sources": dict(self.sources),
            "tiers": tiers,
            "symbolic_hit_rate": round(self.symbolic_hit_rate, 6),
            "fallback_rate": round(self.fallback_rate, 6),
        }
        if self.fcts_s or self.flows_abandoned:
            snap["fct"] = {
                "n_completed": len(self.fcts_s),
                "n_abandoned": self.flows_abandoned,
                "p50_ms": round(self.fct_percentile_ms(50.0), 4),
                "p95_ms": round(self.fct_percentile_ms(95.0), 4),
                "p99_ms": round(self.fct_percentile_ms(99.0), 4),
            }
        return snap
