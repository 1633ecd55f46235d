"""Winning-rate matrices: CC scheme x topology class, CC scheme x AQM.

The Sussex study's headline finding is that learned-vs-heuristic verdicts
flip when the topology changes; the ROADMAP's co-evolution question is
whether they survive when the *queue* gets intelligent (the paper's pool
was collected under droptail). One table answers each. A matrix column is
a small representative env set — per topology class
(:func:`~repro.collector.environments.topology_class_environments`) or
per queue discipline (:func:`~repro.collector.environments
.aqm_environments`, taildrop through CoDel/PIE to FQ-CoDel and the
:class:`~repro.netsim.aqm.LearnedECN` marking queue). Every participant
plays every column; each rollout is scored per scenario-interval with the
league's margin rules, and the matrix reports one winning rate per
(participant, column) cell plus the CE marks each column's queues applied.

``repro topo matrix`` and ``repro aqm matrix`` render and save them in
one CLI invocation each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.collector.environments import (
    EnvConfig,
    aqm_environments,
    topology_class_environments,
)
from repro.evalx.leagues import Participant, play
from repro.evalx.scores import ScoreEntry, interval_scores, winning_rates
from repro.netsim.topo import TOPOLOGY_CLASSES
from repro.persist import write_json_atomic

__all__ = [
    "WinningMatrix",
    "run_matrix",
    "topology_columns",
    "aqm_columns",
    "DEFAULT_MATRIX_AQMS",
]

MATRIX_SCHEMA_VERSION = 2

#: the default queue panel: the droptail baseline, two delay-controlling
#: heuristics, per-flow fairness, and the learned marking queue
DEFAULT_MATRIX_AQMS = ("taildrop", "codel", "pie", "fq_codel", "learned_ecn")


def topology_columns(
    classes: Sequence[str] = TOPOLOGY_CLASSES, duration: float = 12.0
) -> Dict[str, List[EnvConfig]]:
    """One column per topology class, labelled with ``_`` for ``-``."""
    return {
        c.replace("-", "_"): topology_class_environments(c, duration=duration)
        for c in classes
    }


def aqm_columns(
    aqms: Sequence[str] = DEFAULT_MATRIX_AQMS,
    duration: float = 12.0,
    ecn_threshold_bdp: float = 0.0,
) -> Dict[str, List[EnvConfig]]:
    """One column per queue discipline, labelled by registry name without
    any ``@checkpoint`` suffix. ``ecn_threshold_bdp`` arms DCTCP-style step
    marking on disciplines that take a threshold (taildrop); natively
    marking AQMs signal regardless, so the droptail column is the transfer
    baseline."""
    if not aqms:
        raise ValueError("need at least one AQM column")
    return {
        a.partition("@")[0].lower(): aqm_environments(
            a, duration=duration, ecn_threshold_bdp=ecn_threshold_bdp
        )
        for a in aqms
    }


@dataclass
class WinningMatrix:
    """Winning rates per (participant, column)."""

    #: column -> participant -> winning rate in [0, 1]
    rates: Dict[str, Dict[str, float]]
    #: column -> raw per-interval scores (for drill-down)
    entries: Dict[str, List[ScoreEntry]] = field(default_factory=dict)
    #: column -> total CE marks applied across that column's rollouts
    ecn_marks: Dict[str, int] = field(default_factory=dict)

    @property
    def columns(self) -> List[str]:
        return list(self.rates.keys())

    @property
    def participants(self) -> List[str]:
        names: List[str] = []
        for per_column in self.rates.values():
            for name in per_column:
                if name not in names:
                    names.append(name)
        return names

    def format_table(self) -> str:
        """Render the matrix: rows = participants, ranked by mean winning
        rate; one column per env set; a CE-mark footer."""
        names = self.participants
        columns = self.columns
        width = max([len(n) for n in names] + [8])
        header = f"{'scheme':>{width}} " + " ".join(f"{c:>12}" for c in columns)
        lines = [header, "-" * len(header)]

        def mean_rate(name: str) -> float:
            vals = [self.rates[c].get(name, 0.0) for c in columns]
            return sum(vals) / len(vals) if vals else 0.0

        for name in sorted(names, key=mean_rate, reverse=True):
            cells = " ".join(
                f"{self.rates[c].get(name, 0.0) * 100:11.2f}%" for c in columns
            )
            lines.append(f"{name:>{width}} {cells}")
        marks = " ".join(f"{self.ecn_marks.get(c, 0):>12}" for c in columns)
        lines.append("-" * len(header))
        lines.append(f"{'ce marks':>{width}} {marks}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema_version": MATRIX_SCHEMA_VERSION,
            "columns": self.columns,
            "participants": self.participants,
            "rates": {
                c: {n: round(r, 6) for n, r in per.items()}
                for c, per in self.rates.items()
            },
            "ecn_marks": dict(self.ecn_marks),
        }

    def save(self, path) -> None:
        """Atomically write the matrix as JSON."""
        write_json_atomic(path, self.to_json())


def run_matrix(
    participants: Sequence[Participant],
    columns: Mapping[str, Sequence[EnvConfig]],
    margin: float = 0.10,
    alpha: float = 2.0,
    n_intervals: int = 4,
    tick: float = 0.02,
    workers: int = 1,
    progress=None,
) -> WinningMatrix:
    """Play every participant through every column's envs and score it.

    Winning rates are computed *within* each column (an interval is won by
    beating every rival's score by the league margin in that scenario), so
    a column reads as "who masters this topology / queue", directly
    comparable across columns. Columns run in order, each through
    :func:`~repro.evalx.leagues.play` with ``workers`` and ``progress``.
    """
    rates: Dict[str, Dict[str, float]] = {}
    entries: Dict[str, List[ScoreEntry]] = {}
    marks: Dict[str, int] = {}
    for column, envs in columns.items():
        results = play(participants, envs, tick, workers, progress)
        entries[column] = [
            entry
            for result in results
            for entry in interval_scores(result, alpha=alpha, n_intervals=n_intervals)
        ]
        rates[column] = winning_rates(entries[column], margin=margin)
        marks[column] = sum(result.ecn_marks for result in results)
    return WinningMatrix(rates=rates, entries=entries, ecn_marks=marks)
