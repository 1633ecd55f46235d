"""Aurora-like baseline (Jay et al., ICML 2019) and the Genet-like variant.

Aurora is *online on-policy* deep RL for CC: a feed-forward network (no
memory), trained by policy gradient on freshly collected rollouts only, with
a single-flow throughput/latency/loss reward — it never sees a
TCP-friendliness objective. Genet (Xia et al., SIGCOMM 2022) keeps the same
learner but feeds environments through a difficulty curriculum.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.collector.environments import EnvConfig, training_environments
from repro.collector.gr_unit import normalize_state
from repro.collector.rollout import RolloutResult, run_policy
from repro.core.agent import SageAgent
from repro.core.networks import NetworkConfig, SagePolicy, log_action
from repro.nn.autograd import Tensor
from repro.nn.optim import Adam, clip_grad_norm


def _returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


class AuroraTrainer:
    """On-policy policy gradient with a memoryless MLP policy."""

    def __init__(
        self,
        environments: Optional[Sequence[EnvConfig]] = None,
        net_config: Optional[NetworkConfig] = None,
        gamma: float = 0.95,
        lr: float = 3e-4,
        curriculum: bool = False,
        seed: int = 0,
    ) -> None:
        base_cfg = net_config if net_config is not None else NetworkConfig()
        # Aurora has no recurrent memory.
        self.net_cfg = replace(base_cfg, use_gru=False)
        self.gamma = gamma
        self.curriculum = curriculum
        self.rng = np.random.default_rng(seed)
        envs = (
            list(environments)
            if environments is not None
            else [e for e in training_environments("mini") if not e.is_multi_flow]
        )
        # Aurora's reward ignores multi-flow objectives entirely; it still
        # *runs* in multi-flow envs at evaluation, it just never trains there.
        self.envs = [e for e in envs if not e.is_multi_flow] or envs
        if self.curriculum:
            # Genet: order environments easy -> hard (stable, big-buffer flat
            # links first; steps and shallow buffers later).
            self.envs = sorted(
                self.envs,
                key=lambda e: (e.kind != "flat", -e.buffer_bdp, e.bw_mbps),
            )
        self.policy = SagePolicy(self.net_cfg, self.rng)
        self.opt = Adam(self.policy.parameters(), lr=lr)
        self.iterations_done = 0

    def _rollout(self) -> RolloutResult:
        if self.curriculum:
            # walk the curriculum: early iterations draw from the easy prefix
            frac = min((self.iterations_done + 1) / max(len(self.envs), 1), 1.0)
            hi = max(int(frac * len(self.envs)), 1)
            env = self.envs[int(self.rng.integers(hi))]
        else:
            env = self.envs[int(self.rng.integers(len(self.envs)))]
        explorer = SageAgent(
            self.policy,
            deterministic=False,
            seed=int(self.rng.integers(1 << 31)),
            name="aurora",
        )
        return run_policy(env, explorer)

    def train_iteration(self) -> float:
        """One on-policy iteration: a fresh rollout, one REINFORCE update."""
        result = self._rollout()
        states = normalize_state(result.states)
        log_a = log_action(result.actions)
        returns = _returns(result.rewards, self.gamma)
        adv = (returns - returns.mean()) / (returns.std() + 1e-6)

        # Feed-forward policy: every timestep is an independent sample.
        # Subsample long rollouts to keep updates cheap.
        t_idx = np.arange(len(log_a))
        if len(t_idx) > 128:
            t_idx = self.rng.choice(t_idx, size=128, replace=False)
        feats = self.policy.features_seq_fused(states[t_idx][:, None, :])
        logp = self.policy.log_prob(feats, log_a[t_idx])
        loss = (Tensor(adv[t_idx]) * logp * -1.0).mean()
        self.opt.zero_grad()
        loss.backward()
        clip_grad_norm(self.policy.parameters(), 10.0)
        self.opt.step()
        self.iterations_done += 1
        return float(loss.data)

    def train(self, n_iterations: int = 10) -> "AuroraTrainer":
        for _ in range(n_iterations):
            self.train_iteration()
        return self

    def agent(self, name: Optional[str] = None) -> SageAgent:
        default = "genet" if self.curriculum else "aurora"
        return SageAgent(self.policy, name=name or default)
