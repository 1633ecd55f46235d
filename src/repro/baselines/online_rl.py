"""OnlineRL: the online off-policy counterpart of Sage (Section 6.2).

Same input signals, same reward functions, same network architecture and
environments as Sage — but the data comes from *interacting* with the
environments during training: the current (stochastic) policy is rolled out
in sampled environments, transitions land in a replay buffer, and an
off-policy actor-critic update follows. This is exactly the experimental
control the paper builds to isolate the value of the data-driven/offline
formulation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.collector.environments import EnvConfig, training_environments
from repro.collector.pool import PolicyPool
from repro.collector.rollout import run_policy
from repro.core.agent import SageAgent
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig, log_action
from repro.nn.autograd import Tensor
from repro.train import fastpath as fp
from repro.train.engine import FastCRRTrainer


class OnlineRLTrainer(FastCRRTrainer):
    """Online off-policy actor-critic with experience replay.

    The CRR engine over a replay :class:`PolicyPool` that :meth:`collect`
    refills. Critic: the same distributional TD update Sage uses. Actor:
    likelihood-ratio improvement against the critic's Q on *self-sampled*
    actions (no advantage filter anchored to a behavior dataset — there is
    none).
    """

    def __init__(
        self,
        environments: Optional[Sequence[EnvConfig]] = None,
        net_config: Optional[NetworkConfig] = None,
        crr_config: Optional[CRRConfig] = None,
        replay_capacity: int = 200,
        seed: int = 0,
    ) -> None:
        super().__init__(PolicyPool(), net_config, crr_config, seed)
        self.envs = (
            list(environments)
            if environments is not None
            else training_environments("mini")
        )
        self.replay = self.pool
        self.replay_capacity = replay_capacity
        self.rollouts_done = 0

    # -- data collection (the "online" part) ------------------------------
    def collect(self, n_rollouts: int = 1) -> None:
        """Roll out the current stochastic policy in random environments."""
        explorer = SageAgent(
            self.policy, deterministic=False, seed=int(self.rng.integers(1 << 31)),
            name="online-rl",
        )
        for _ in range(n_rollouts):
            env = self.envs[int(self.rng.integers(len(self.envs)))]
            result = run_policy(env, explorer)
            self.replay.add_rollout(result)
            self.rollouts_done += 1
        while len(self.replay) > self.replay_capacity:
            self.replay.trajectories.pop(0)

    # -- learning -----------------------------------------------------------
    def _policy_backward(self, ctx: Dict, rng: np.random.Generator):
        """Actor loss/backward: REINFORCE-with-critic on self-sampled actions.

        One action per row, drawn t-major on ``rng``; its critic Q value,
        standardised over the batch, weights the action's log-likelihood.
        Returns ``(policy_loss, mean weight)``.
        """
        b, l, n = ctx["b"], ctx["l"], ctx["n"]
        states = ctx["states"]
        pol_feats = self.policy.features_seq_fused(states)
        plog, pmu, pls = fp.gmm_split(self.policy, pol_feats.data)
        pcdf = fp.gmm_cdf(plog)
        sampled = np.empty(n)
        for t in range(l):
            sl = slice(t * b, (t + 1) * b)
            sampled[sl] = fp.gmm_sample(plog[sl], pmu[sl], pls[sl], rng, cdf=pcdf[sl])
        rec = fp.critic_recurrent_seq(self.critic, states, self._bufs, "crit")
        weights = fp.critic_q_values(
            self.critic, rec, log_action(sampled), self._bufs, "crit"
        )
        weights = (weights - weights.mean()) / (weights.std() + 1e-6)

        logp = self.policy.log_prob(pol_feats, np.log(sampled))
        policy_loss = (Tensor(weights) * logp * -1.0).mean()
        self.opt_policy.zero_grad()
        policy_loss.backward()
        return float(policy_loss.data), float(weights.mean())

    def train(
        self, n_iterations: int = 10, rollouts_per_iter: int = 1, steps_per_iter: int = 10
    ) -> "OnlineRLTrainer":
        """Interleave environment interaction and learning."""
        for _ in range(n_iterations):
            self.collect(rollouts_per_iter)
            super().train(steps_per_iter)
        return self

    def agent(self, name: str = "online-rl") -> SageAgent:
        return SageAgent(self.policy, name=name)
