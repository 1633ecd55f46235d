"""The pool of policies: Sage's offline dataset.

The pool stores trajectories ``(states, actions, rewards)`` labeled with the
scheme and environment that produced them. It supports:

- building from rollouts (:meth:`PolicyPool.add`);
- batch sampling of fixed-length sequence windows for the recurrent CRR
  learner (:meth:`sample_sequences`);
- filtering by scheme (Sage-Top / Sage-Top4 pool-diversity ablations).

This is the in-memory pool. On disk a pool is always a sharded store
(:mod:`repro.datastore`), written once and then sampled by every training
run: data is collected *once*, then every environment is "unplugged".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


def draw_window_starts(
    lengths: np.ndarray,
    seq_len: int,
    batch_size: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``batch_size`` window starts over trajectories of ``lengths``.

    Returns ``(traj_idx, local_starts)``: which trajectory each window came
    from and the start row *within* that trajectory. Windows cover
    ``seq_len + 1`` consecutive rows; trajectories shorter than that are
    never drawn, and eligible ones are weighted by their number of valid
    starts (every window position in the pool is equally likely).

    This is the single source of the sampling RNG stream: both
    :class:`PolicyPool` and the out-of-core ``repro.datastore.ShardedPool``
    call it, which is what makes their draws bit-identical for the same
    seed and trajectory ordering.
    """
    slack = lengths - seq_len  # number of valid window starts per traj
    eligible = np.nonzero(slack > 0)[0]
    if eligible.size == 0:
        raise ValueError(
            f"no trajectory longer than seq_len+1={seq_len + 1} in the pool"
        )
    weights = slack[eligible].astype(float)
    probs = weights / weights.sum()
    idx = eligible[rng.choice(eligible.size, size=batch_size, p=probs)]
    starts = rng.integers(0, slack[idx])
    return idx, starts


@dataclass
class Trajectory:
    """One scheme x environment trajectory."""

    scheme: str
    env_id: str
    multi_flow: bool
    states: np.ndarray  # (T, state_dim)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)

    def __post_init__(self) -> None:
        t = len(self.actions)
        if self.states.shape[0] != t or self.rewards.shape[0] != t:
            raise ValueError("states/actions/rewards length mismatch")

    @property
    def length(self) -> int:
        return len(self.actions)


class PolicyPool:
    """A collection of trajectories from many schemes in many environments."""

    def __init__(self, trajectories: Optional[List[Trajectory]] = None) -> None:
        self.trajectories: List[Trajectory] = list(trajectories or [])
        self._concat = None  # lazy (states, actions, rewards, offsets, lengths)

    # ------------------------------------------------------------------
    def add(self, traj: Trajectory) -> None:
        self.trajectories.append(traj)
        self._concat = None

    def add_rollout(self, rollout) -> None:
        """Append a :class:`~repro.collector.rollout.RolloutResult`."""
        self.add(
            Trajectory(
                scheme=rollout.scheme,
                env_id=rollout.env.env_id,
                multi_flow=rollout.env.is_multi_flow,
                states=rollout.states,
                actions=rollout.actions,
                rewards=rollout.rewards,
            )
        )

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_transitions(self) -> int:
        return sum(t.length for t in self.trajectories)

    def schemes(self) -> List[str]:
        return sorted({t.scheme for t in self.trajectories})

    def env_ids(self) -> List[str]:
        return sorted({t.env_id for t in self.trajectories})

    # ------------------------------------------------------------------
    def filter_schemes(self, keep: Iterable[str]) -> "PolicyPool":
        """A sub-pool containing only the given schemes (diversity ablation)."""
        keep_set = set(keep)
        return PolicyPool([t for t in self.trajectories if t.scheme in keep_set])

    def filter_env(self, predicate) -> "PolicyPool":
        """A sub-pool of trajectories whose env_id satisfies ``predicate``."""
        return PolicyPool([t for t in self.trajectories if predicate(t.env_id)])

    # ------------------------------------------------------------------
    def _concat_arrays(self):
        """Concatenated trajectory arrays for vectorized window sampling.

        Built lazily on first sample and invalidated by :meth:`add`. Windows
        never cross trajectory boundaries because starts are drawn within
        each trajectory's own span before adding its offset.
        """
        if self._concat is None:
            trajs = self.trajectories
            lengths = np.array([t.length for t in trajs], dtype=np.int64)
            offsets = np.zeros(len(trajs), dtype=np.int64)
            if len(trajs) > 1:
                offsets[1:] = np.cumsum(lengths[:-1])
            self._concat = (
                np.concatenate([t.states for t in trajs])
                if trajs
                else np.empty((0, 0)),
                np.concatenate([t.actions for t in trajs])
                if trajs
                else np.empty(0),
                np.concatenate([t.rewards for t in trajs])
                if trajs
                else np.empty(0),
                offsets,
                lengths,
            )
        return self._concat

    def sample_sequences(
        self,
        batch_size: int,
        seq_len: int,
        rng: np.random.Generator,
        normalize=None,
    ) -> Dict[str, np.ndarray]:
        """Sample ``batch_size`` windows of ``seq_len + 1`` consecutive steps.

        Returns arrays shaped for the recurrent learner:
        ``states (B, L, D)``, ``actions (B, L)``, ``rewards (B, L)``,
        ``next_states (B, L, D)``. Trajectories shorter than ``seq_len + 1``
        are skipped.

        The whole batch is one fancy-indexed gather from cached concatenated
        arrays — no per-window Python loop.
        """
        big_s, big_a, big_r, offsets, lengths = self._concat_arrays()
        idx, local_starts = draw_window_starts(lengths, seq_len, batch_size, rng)
        starts = offsets[idx] + local_starts
        rows = starts[:, None] + np.arange(seq_len + 1)
        s = big_s[rows]  # (B, L + 1, D)
        if normalize is not None:
            s = normalize(s)
        return {
            "states": s[:, :-1],
            "actions": big_a[rows[:, :-1]],
            "rewards": big_r[rows[:, :-1]],
            "next_states": s[:, 1:],
        }

    def drop_cache(self) -> None:
        """Release the concatenated-array cache.

        The cache holds a second full copy of every trajectory, so a pool
        that has been sampled keeps double its resident footprint until
        this is called. Training entry points call it once the epochs are
        done; the next :meth:`sample_sequences` rebuilds it transparently.
        """
        self._concat = None

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable pool inventory."""
        lines = [
            f"PolicyPool: {len(self)} trajectories, "
            f"{self.n_transitions} transitions"
        ]
        by_scheme: Dict[str, int] = {}
        for t in self.trajectories:
            by_scheme[t.scheme] = by_scheme.get(t.scheme, 0) + t.length
        for scheme in sorted(by_scheme):
            lines.append(f"  {scheme:12s} {by_scheme[scheme]:8d} transitions")
        return "\n".join(lines)
