"""FaultPlan: a deterministic, serializable schedule of injected faults.

Resilience claims are only worth what exercises them. A :class:`FaultPlan`
is the repo's standing answer: a *seed-driven* schedule of faults — worker
crashes and hangs in the parallel collector, bit-flips and truncations in
the sharded datastore, NaN / loss-spike batches in the training engine,
NaN / slow forwards in the serving engine — that the chaos-mode
integration suite replays against the full pipeline. Two properties make
the injected chaos debuggable rather than flaky:

- **Deterministic.** ``FaultPlan.generate(seed=s, ...)`` always produces
  the same faults for the same arguments; a failing chaos run reproduces
  from its seed alone.
- **Serializable.** A plan round-trips through JSON (``save`` / ``load``),
  so the exact fault schedule of a run can be archived next to its
  artifacts and replayed later.

Every fault names a *site* (``subsystem.kind``) and a *target* — the
occurrence index at that site: the task index for collector faults, the
shard index for datastore faults, the batch index for training faults, the
tick index for serving faults. Injection itself lives in
:mod:`repro.chaos.inject`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.persist import write_json_atomic

__all__ = ["SITES", "FaultSpec", "FaultPlan", "DEFAULT_PARAMS", "DEFAULT_UNIVERSES"]

PLAN_SCHEMA_VERSION = 1

#: every injectable fault site and what firing it does
SITES: Dict[str, str] = {
    "collector.crash": "kill the worker process running the target task "
                       "(first dispatch round only)",
    "collector.hang": "stall the target task for `param` seconds "
                      "(first dispatch round only)",
    "datastore.bitflip": "flip one byte of the target shard's states file "
                         "after it commits",
    "datastore.truncate": "truncate `param` bytes off the target shard's "
                          "rewards file after it commits",
    "train.nan": "overwrite the target training batch's rewards with NaN",
    "train.spike": "mis-scale the target training batch: states and "
                   "rewards x `param`",
    "serve.nan": "replace the target tick's policy outputs (and hidden "
                 "states) with NaN",
    "serve.slow": "delay the target tick's forward pass by `param` seconds",
    "netsim.linkflap": "take the target topology link down for `param` "
                       "seconds, once, mid-run",
    "netsim.aqmstall": "freeze the target link's AQM dequeue side for "
                       "`param` seconds, once, mid-run (arrivals are still "
                       "policed; service stops, then recovers)",
    "workload.burst": "inject `param` extra simultaneous sessions at the "
                      "target arrival index",
}

#: default `param` per site when :meth:`FaultPlan.generate` isn't told one
DEFAULT_PARAMS: Dict[str, float] = {
    "collector.crash": 0.0,
    "collector.hang": 30.0,
    "datastore.bitflip": 0.0,
    "datastore.truncate": 64.0,
    "train.nan": 0.0,
    "train.spike": 1e6,
    "serve.nan": 0.0,
    "serve.slow": 0.05,
    "netsim.linkflap": 0.5,
    "netsim.aqmstall": 0.2,
    "workload.burst": 32.0,
}

#: default target-universe size per subsystem (the `group` in
#: ``site == "group.kind"``): how many tasks / shards / batches / ticks the
#: generator draws targets from when not told the real count
DEFAULT_UNIVERSES: Dict[str, int] = {
    "collector": 8,
    "datastore": 4,
    "train": 50,
    "serve": 100,
    "netsim": 4,
    "workload": 256,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``site`` at occurrence ``target``."""

    site: str
    target: int
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {sorted(SITES)}"
            )
        if self.target < 0:
            raise ValueError(f"fault target must be >= 0, got {self.target}")

    def to_json(self) -> Dict:
        return {"site": self.site, "target": self.target, "param": self.param}

    @classmethod
    def from_json(cls, d: Dict) -> "FaultSpec":
        return cls(
            site=str(d["site"]), target=int(d["target"]),
            param=float(d.get("param", 0.0)),
        )


class FaultPlan:
    """A seeded, serializable set of :class:`FaultSpec`\\ s.

    Construct directly from explicit specs, or let :meth:`generate` draw
    targets deterministically from the seed.
    """

    def __init__(self, seed: int = 0, faults: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.faults: List[FaultSpec] = sorted(
            faults, key=lambda f: (f.site, f.target)
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        counts: Dict[str, int],
        universes: Optional[Dict[str, int]] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> "FaultPlan":
        """Draw a plan from ``seed``: ``counts[site]`` faults per site.

        Targets within one subsystem are distinct (a task is crashed *or*
        hung, never both), drawn from ``universes[group]`` occurrence slots
        (e.g. ``{"collector": n_tasks, "train": n_batches}``). The same
        ``(seed, counts, universes, params)`` always yields the same plan.
        """
        universes = {**DEFAULT_UNIVERSES, **(universes or {})}
        params = {**DEFAULT_PARAMS, **(params or {})}
        for site, count in counts.items():
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known: {sorted(SITES)}"
                )
            if count < 0:
                raise ValueError(f"counts[{site!r}] must be >= 0")

        rng = np.random.default_rng(int(seed))
        faults: List[FaultSpec] = []
        # group sites by subsystem so targets never collide within one
        groups: Dict[str, List[str]] = {}
        for site in sorted(counts):
            groups.setdefault(site.split(".", 1)[0], []).append(site)
        for group in sorted(groups):
            total = sum(counts[s] for s in groups[group])
            if total == 0:
                continue
            universe = int(universes.get(group, 0))
            if total > universe:
                raise ValueError(
                    f"{total} {group} faults requested but the universe has "
                    f"only {universe} slots (universes[{group!r}])"
                )
            targets = rng.choice(universe, size=total, replace=False)
            pos = 0
            for site in groups[group]:
                for _ in range(counts[site]):
                    faults.append(
                        FaultSpec(
                            site=site,
                            target=int(targets[pos]),
                            param=float(params[site]),
                        )
                    )
                    pos += 1
        return cls(seed=seed, faults=faults)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultPlan)
            and self.seed == other.seed
            and self.faults == other.faults
        )

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={self.faults!r})"

    def describe(self) -> str:
        """Human-readable fault schedule (CLI ``chaos plan`` output)."""
        lines = [f"FaultPlan seed={self.seed}: {len(self.faults)} fault(s)"]
        for f in self.faults:
            lines.append(
                f"  {f.site:20s} target={f.target:<4d} param={f.param:g}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "faults": [f.to_json() for f in self.faults],
        }

    @classmethod
    def from_json(cls, d: Dict) -> "FaultPlan":
        version = d.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan has schema version {version!r}; this build "
                f"reads version {PLAN_SCHEMA_VERSION}"
            )
        return cls(
            seed=int(d.get("seed", 0)),
            faults=[FaultSpec.from_json(f) for f in d["faults"]],
        )

    def save(self, path) -> None:
        """Atomically write the plan as JSON."""
        write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path) -> "FaultPlan":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt fault plan {path}: {exc}") from exc
        return cls.from_json(data)
