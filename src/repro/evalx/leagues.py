"""Leagues: run a set of participants over Set I / Set II and rank them.

A *participant* is either a kernel scheme (by registry name) or a learned
agent (anything satisfying the PolicyAgent protocol). The league runner
plays every participant through every environment, scores each
scenario-interval, and reports winning rates — the machinery behind
Figs. 1, 7, 9, 10, 20/21 and Tables 2/3. Its run loop, :func:`play`, is
also the one behind the path evaluation and the winning matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.collector.environments import EnvConfig, set1_environments, set2_environments
from repro.collector.parallel import derive_seed, run_tasks
from repro.collector.rollout import RolloutResult, collect_trajectory, run_policy
from repro.evalx.scores import ScoreEntry, interval_scores, winning_rates
from repro.tcp.cc_base import DELAY_LEAGUE, POOL_SCHEMES

#: The heuristic league of Fig. 1 (the 13 pool schemes).
HEURISTIC_LEAGUE = list(POOL_SCHEMES)

#: The delay-based league of Fig. 10.
DELAY_LEAGUE_NAMES = list(DELAY_LEAGUE)


@dataclass
class Participant:
    """One league entrant: a kernel scheme or a learned agent."""

    name: str
    scheme: Optional[str] = None  # registry name, for kernel schemes
    agent: Optional[object] = None  # PolicyAgent, for learned entrants

    def __post_init__(self) -> None:
        if (self.scheme is None) == (self.agent is None):
            raise ValueError("exactly one of scheme/agent must be set")

    @classmethod
    def from_scheme(cls, scheme: str) -> "Participant":
        return cls(name=scheme, scheme=scheme)

    @classmethod
    def from_agent(cls, agent, name: Optional[str] = None) -> "Participant":
        return cls(name=name or getattr(agent, "name", "agent"), agent=agent)

    @classmethod
    def from_served(
        cls, policy, name: Optional[str] = None, **serve_kwargs
    ) -> "Participant":
        """Enter a policy through the serving engine (`repro.serve`).

        The rollout then exercises the production path — batched-capable
        server, deadline/fallback machinery, serving metrics — instead of
        the in-process agent. ``serve_kwargs`` are forwarded to
        :class:`~repro.serve.client.ServedAgent` (e.g. ``deterministic=``,
        ``config=ServeConfig(...)``).
        """
        from repro.serve.client import ServedAgent

        agent = ServedAgent(policy, **serve_kwargs)
        return cls(name=name or agent.name, agent=agent)


@dataclass
class LeagueResult:
    """Winning rates per set, plus raw per-interval scores."""

    set1_rates: Dict[str, float]
    set2_rates: Dict[str, float]
    set1_entries: List[ScoreEntry] = field(default_factory=list)
    set2_entries: List[ScoreEntry] = field(default_factory=list)

    def ranking(self, which: str = "set1") -> List[tuple]:
        rates = self.set1_rates if which == "set1" else self.set2_rates
        return sorted(rates.items(), key=lambda kv: kv[1], reverse=True)

    def format_table(self) -> str:
        lines = [f"{'rank':>4} {'scheme':>12} {'Set I':>8}   |   {'scheme':>12} {'Set II':>8}"]
        r1, r2 = self.ranking("set1"), self.ranking("set2")
        for i in range(max(len(r1), len(r2))):
            left = f"{r1[i][0]:>12} {r1[i][1] * 100:7.2f}%" if i < len(r1) else " " * 21
            right = f"{r2[i][0]:>12} {r2[i][1] * 100:7.2f}%" if i < len(r2) else ""
            lines.append(f"{i + 1:>4} {left}   |   {right}")
        return "\n".join(lines)


def run_participant(participant: Participant, env: EnvConfig, tick: float = 0.02) -> RolloutResult:
    """Play one participant in one environment."""
    if participant.scheme is not None:
        result = collect_trajectory(env, participant.scheme, tick=tick)
    else:
        result = run_policy(env, participant.agent, tick=tick)
    # Label with the participant's league name (agents carry their own).
    result.scheme = participant.name
    return result


@dataclass(frozen=True)
class LeagueTask:
    """One (participant, env) rollout for the parallel engine."""

    index: int
    participant: Participant
    env: EnvConfig
    tick: float
    seed: int

    @property
    def label(self) -> str:
        return f"{self.participant.name} on {self.env.env_id}"


def _run_league_task(task: LeagueTask) -> RolloutResult:
    """Worker-side: reseed stochastic agents from the task seed, then play.

    Reseeding makes agent rollouts a pure function of ``(base_seed, index)``
    so a parallel league is deterministic under any worker count; kernel
    schemes carry no RNG and are bit-identical to the serial runner.
    """
    import numpy as np

    agent = task.participant.agent
    if agent is not None and hasattr(agent, "rng"):
        agent.rng = np.random.default_rng(task.seed)
    return run_participant(task.participant, task.env, tick=task.tick)


def play(
    participants: Sequence[Participant],
    envs: Sequence[EnvConfig],
    tick: float = 0.02,
    workers: Optional[int] = 1,
    progress=None,
) -> List[RolloutResult]:
    """Every participant through every env, env-major and participant-minor.

    The one run loop of the league, the path evaluation and the winning
    matrices. ``workers == 1`` plays in-process in that order, on each
    agent's own RNG (a stochastic agent's stream runs on from rollout to
    rollout), calling ``progress("<name> on <env_id>")`` after each
    rollout. Otherwise the rollouts fan out over the parallel task engine
    (``None`` = one process per CPU) and each agent is reseeded per task,
    so the results are the same for any worker count; kernel schemes carry
    no RNG and match the serial path bit for bit. Results come back in
    the serial order either way.
    """
    if workers == 1:
        results = []
        for env in envs:
            for p in participants:
                results.append(run_participant(p, env, tick=tick))
                if progress is not None:
                    progress(f"{p.name} on {env.env_id}")
        return results
    tasks = [
        LeagueTask(index=i, participant=p, env=env, tick=tick, seed=derive_seed(0, i))
        for i, (env, p) in enumerate(
            (env, p) for env in envs for p in participants
        )
    ]
    results, report = run_tasks(
        tasks,
        fn=_run_league_task,
        workers=workers,
        progress=(None if progress is None else (lambda ev: progress(ev.label))),
    )
    report.raise_on_failure()
    return results


def run_league(
    participants: Sequence[Participant],
    set1: Optional[Sequence[EnvConfig]] = None,
    set2: Optional[Sequence[EnvConfig]] = None,
    margin: float = 0.10,
    alpha: float = 2.0,
    n_intervals: int = 4,
    tick: float = 0.02,
    progress=None,
    workers: int = 1,
) -> LeagueResult:
    """Run the full league and compute winning rates for both sets.

    ``workers`` fans the (participant, env) rollouts across processes
    (see :func:`play`): stochastic agents then draw a different — equally
    valid, and worker-count independent — action sequence than the
    serial path.
    """
    if set1 is None:
        set1 = set1_environments(
            bws=(24.0, 48.0), rtts=(0.02, 0.06), buffers=(1.0, 4.0),
            step_ms=(0.5, 2.0), duration=12.0,
        )
    if set2 is None:
        set2 = set2_environments(
            bws=(24.0, 48.0), rtts=(0.02, 0.06), buffers=(2.0, 8.0), duration=16.0,
        )

    def scored(envs: Sequence[EnvConfig]) -> List[ScoreEntry]:
        return [
            entry
            for result in play(participants, envs, tick, workers, progress)
            for entry in interval_scores(result, alpha=alpha, n_intervals=n_intervals)
        ]

    set1_entries, set2_entries = scored(set1), scored(set2)
    return LeagueResult(
        set1_rates=winning_rates(set1_entries, margin=margin),
        set2_rates=winning_rates(set2_entries, margin=margin),
        set1_entries=set1_entries,
        set2_entries=set2_entries,
    )
