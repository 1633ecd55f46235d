"""Winning-rate matrix: CC scheme x topology class.

The Sussex study's headline finding is that learned-vs-heuristic verdicts
flip when the topology changes; this figure makes that visible in one
table. Every participant plays a small representative env set per topology
class (:func:`~repro.collector.environments.topology_class_environments`),
each rollout is scored per scenario-interval with the league's margin
rules, and the matrix reports one winning rate per (participant, class)
cell.

``repro topo matrix`` renders and saves it in a single CLI invocation; CI
uploads the JSON as the ``topo-matrix`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.collector.environments import topology_class_environments
from repro.evalx.leagues import Participant, _run_matches, run_participant
from repro.evalx.scores import ScoreEntry, interval_scores, winning_rates
from repro.netsim.topo import TOPOLOGY_CLASSES
from repro.persist import write_json_atomic

__all__ = ["TopologyMatrix", "run_topology_matrix", "DEFAULT_MATRIX_SCHEMES"]

MATRIX_SCHEMA_VERSION = 1

#: the default scheme panel: the paper's headline heuristics
DEFAULT_MATRIX_SCHEMES = ("cubic", "newreno", "vegas", "westwood")


@dataclass
class TopologyMatrix:
    """Winning rates per (participant, topology class)."""

    #: class -> participant -> winning rate in [0, 1]
    rates: Dict[str, Dict[str, float]]
    #: class -> raw per-interval scores (for drill-down)
    entries: Dict[str, List[ScoreEntry]] = field(default_factory=dict)

    @property
    def classes(self) -> List[str]:
        return list(self.rates.keys())

    @property
    def participants(self) -> List[str]:
        names: List[str] = []
        for per_class in self.rates.values():
            for name in per_class:
                if name not in names:
                    names.append(name)
        return names

    def format_table(self) -> str:
        """Render the matrix: rows = participants, columns = classes."""
        names = self.participants
        classes = self.classes
        width = max([len(n) for n in names] + [8])
        header = f"{'scheme':>{width}} " + " ".join(
            f"{c:>12}" for c in classes
        )
        lines = [header, "-" * len(header)]
        # rank rows by mean winning rate across classes
        def mean_rate(name: str) -> float:
            vals = [self.rates[c].get(name, 0.0) for c in classes]
            return sum(vals) / len(vals) if vals else 0.0

        for name in sorted(names, key=mean_rate, reverse=True):
            cells = " ".join(
                f"{self.rates[c].get(name, 0.0) * 100:11.2f}%" for c in classes
            )
            lines.append(f"{name:>{width}} {cells}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema_version": MATRIX_SCHEMA_VERSION,
            "classes": self.classes,
            "participants": self.participants,
            "rates": {
                c: {n: round(r, 6) for n, r in per.items()}
                for c, per in self.rates.items()
            },
        }

    def save(self, path) -> None:
        """Atomically write the matrix as JSON (the CI artifact)."""
        write_json_atomic(path, self.to_json())


def run_topology_matrix(
    participants: Sequence[Participant],
    classes: Sequence[str] = TOPOLOGY_CLASSES,
    duration: float = 12.0,
    margin: float = 0.10,
    alpha: float = 2.0,
    n_intervals: int = 4,
    tick: float = 0.02,
    workers: int = 1,
    progress=None,
) -> TopologyMatrix:
    """Play every participant through every topology class and score it.

    Winning rates are computed *within* each class (an interval is won by
    beating every rival's score by the league margin in that scenario), so
    a column reads as "who masters this shape", directly comparable across
    columns. ``workers`` fans rollouts over processes exactly like
    :func:`~repro.evalx.leagues.run_league`.
    """
    rates: Dict[str, Dict[str, float]] = {}
    entries: Dict[str, List[ScoreEntry]] = {}
    for topo_class in classes:
        envs = topology_class_environments(topo_class, duration=duration)
        class_entries: List[ScoreEntry] = []
        if workers is not None and workers == 1:
            for env in envs:
                for p in participants:
                    result = run_participant(p, env, tick=tick)
                    class_entries.extend(
                        interval_scores(result, alpha=alpha, n_intervals=n_intervals)
                    )
                    if progress is not None:
                        progress(f"{p.name} on {env.env_id}")
        else:
            for result in _run_matches(participants, envs, tick, workers, progress):
                class_entries.extend(
                    interval_scores(result, alpha=alpha, n_intervals=n_intervals)
                )
        key = topo_class.replace("-", "_")
        rates[key] = winning_rates(class_entries, margin=margin)
        entries[key] = class_entries
    return TopologyMatrix(rates=rates, entries=entries)
