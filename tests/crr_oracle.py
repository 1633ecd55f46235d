"""The per-timestep reference CRR trainer: the oracle for the fused engine.

:class:`CRRTrainer` unrolls every loss of Sage's learner (PAPER.md §4.2,
Eq. 5/6; see :mod:`repro.core.crr`) into one autograd subgraph per
timestep. It is the readable statement of the algorithm, kept only to
check :class:`~repro.train.engine.FastCRRTrainer` against: with the same
seed both draw the identical random stream, and their metric trajectories
agree within the engine contract's 1e-6 relative tolerance
(``tests/test_train_engine.py``). Nothing in ``src/`` trains on it.

:func:`features_seq` and :func:`recurrent_seq` are its per-timestep
network path: the trunk's ``pre`` / ``recurrent`` / ``post`` stages
stepped once per timestep, the way ``SagePolicy.step`` runs them at
deployment. ``src/`` trains on the fused ``features_seq_fused`` /
``recurrent_seq_fused`` instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.collector.gr_unit import normalize_state
from repro.collector.pool import PolicyPool
from repro.core.crr import CRRConfig, MetricsCallback
from repro.core.networks import NetworkConfig, SageCritic, SagePolicy, log_action
from repro.nn.autograd import Tensor, no_grad, stack_rows
from repro.nn.functional import softmax_np
from repro.nn.optim import Adam, clip_grad_norm


def recurrent_seq(net, states: np.ndarray) -> List[Tensor]:
    """A ``(B, L, D)`` batch through ``net.trunk`` up to the recurrent
    stage, one timestep at a time: L ``(B, H)`` tensors. The critic injects
    the action after this stage."""
    trunk = net.trunk
    b, l, _ = states.shape
    h = trunk.initial_state(b)
    outs: List[Tensor] = []
    for t in range(l):
        g, h = trunk.recurrent(trunk.pre(Tensor(states[:, t, :])), h)
        outs.append(g)
    return outs


def features_seq(net, states: np.ndarray) -> List[Tensor]:
    """A ``(B, L, D)`` batch through the whole trunk of ``net``, one
    timestep at a time: L ``(B, E)`` feature tensors."""
    return [net.trunk.post(g) for g in recurrent_seq(net, states)]


class CRRTrainer:
    """Trains a :class:`SagePolicy` / :class:`SageCritic` pair offline."""

    def __init__(
        self,
        pool: PolicyPool,
        net_config: Optional[NetworkConfig] = None,
        config: Optional[CRRConfig] = None,
        seed: int = 0,
        state_mask: Optional[np.ndarray] = None,
    ) -> None:
        """``state_mask``: optional 0/1 vector over the 69 inputs; zeroed
        entries are removed from the agent's view (the Fig. 12 input
        ablations)."""
        self.pool = pool
        self.cfg = config if config is not None else CRRConfig()
        self.net_cfg = net_config if net_config is not None else NetworkConfig()
        self.state_mask = None if state_mask is None else np.asarray(state_mask, float)
        self.rng = np.random.default_rng(seed)

        self.policy = SagePolicy(self.net_cfg, self.rng)
        self.critic = SageCritic(self.net_cfg, self.rng)
        self.target_policy = SagePolicy(self.net_cfg, self.rng)
        self.target_critic = SageCritic(self.net_cfg, self.rng)
        self.target_policy.copy_from(self.policy)
        self.target_critic.copy_from(self.critic)

        self.opt_policy = Adam(self.policy.parameters(), lr=self.cfg.lr_policy)
        self.opt_critic = Adam(self.critic.parameters(), lr=self.cfg.lr_critic)
        self.steps_done = 0
        self.history: Dict[str, deque] = {
            k: deque(maxlen=self.cfg.history_limit)
            for k in ("critic_loss", "policy_loss", "mean_f")
        }

    # ------------------------------------------------------------------
    def _normalize(self, s: np.ndarray) -> np.ndarray:
        out = normalize_state(s)
        if self.state_mask is not None:
            out = out * self.state_mask
        return out

    def _sample_batch(self) -> Dict[str, np.ndarray]:
        return self.pool.sample_sequences(
            self.cfg.batch_size,
            self.cfg.seq_len,
            self.rng,
            normalize=self._normalize,
        )

    def train_step(self) -> Dict[str, float]:
        """One policy-evaluation + policy-improvement iteration."""
        cfg = self.cfg
        batch = self._sample_batch()
        states = batch["states"]  # (B, L, D), already normalized
        next_states = batch["next_states"]
        actions = batch["actions"]  # (B, L) cwnd ratios
        rewards = batch["rewards"] * cfg.reward_scale
        b, l, _ = states.shape
        log_a = log_action(actions)

        # ---- targets (no gradients) -----------------------------------
        with no_grad():
            tgt_pol_feats = features_seq(self.target_policy, next_states)
            tgt_rec = recurrent_seq(self.target_critic, next_states)
            target_probs = np.empty((b, l, self.critic.head.n_atoms))
            for t in range(l):
                a_next = self.target_policy.sample(tgt_pol_feats[t], self.rng)
                logits = self.target_critic.q_logits(tgt_rec[t], log_action(a_next))
                next_p = softmax_np(logits.data)
                target_probs[:, t, :] = self.critic.head.project_target(
                    rewards[:, t], cfg.gamma, next_p
                )

        # ---- policy evaluation (critic update, Eq. 5) -------------------
        rec = recurrent_seq(self.critic, states)
        critic_losses = []
        for t in range(l):
            feats = self.critic.q_features(rec[t], log_a[:, t])
            critic_losses.append(
                self.critic.head.cross_entropy(feats, target_probs[:, t, :])
            )
        critic_loss = stack_rows(critic_losses).mean()
        self.opt_critic.zero_grad()
        critic_loss.backward()
        clip_grad_norm(self.critic.parameters(), cfg.grad_clip)
        self.opt_critic.step()

        # ---- advantage filter (no gradients) ------------------------------
        # One policy trunk pass serves both the filter (values only; the
        # head's sample() runs under no_grad) and the improvement step below
        # (gradients) — the filter must NOT reuse the critic features from
        # the evaluation step though, because the critic was just updated.
        pol_feats = features_seq(self.policy, states)
        with no_grad():
            rec_ng = recurrent_seq(self.critic, states)
            f = np.empty((b, l))
            for t in range(l):
                q_data = self.critic.q_value(rec_ng[t], log_a[:, t]).data
                q_base = np.zeros(b)
                for _ in range(cfg.m_samples):
                    a_j = self.policy.sample(pol_feats[t], self.rng)
                    q_base += self.critic.q_value(rec_ng[t], log_action(a_j)).data
                adv = q_data - q_base / cfg.m_samples
                if cfg.filter_type == "binary":
                    f[:, t] = (adv > 0).astype(float)
                else:
                    f[:, t] = np.minimum(
                        np.exp(adv / cfg.adv_temperature), cfg.f_max
                    )

        # ---- policy improvement (Eq. 6) ----------------------------------
        pol_losses = []
        for t in range(l):
            logp = self.policy.log_prob(pol_feats[t], log_a[:, t])
            pol_losses.append((Tensor(f[:, t]) * logp * -1.0).mean())
        policy_loss = stack_rows(pol_losses).mean()
        self.opt_policy.zero_grad()
        policy_loss.backward()
        clip_grad_norm(self.policy.parameters(), cfg.grad_clip)
        self.opt_policy.step()

        # ---- target updates --------------------------------------------
        self.target_policy.soft_update(self.policy, cfg.target_tau)
        self.target_critic.soft_update(self.critic, cfg.target_tau)

        self.steps_done += 1
        metrics = {
            "critic_loss": float(critic_loss.data),
            "policy_loss": float(policy_loss.data),
            "mean_f": float(f.mean()),
        }
        for k, v in metrics.items():
            self.history[k].append(v)
        return metrics

    def train(
        self,
        n_steps: int,
        log_every: int = 0,
        metrics_callback: Optional[MetricsCallback] = None,
    ) -> Dict[str, float]:
        """Run ``n_steps`` iterations; returns the final step's metrics.

        ``metrics_callback(steps_done, metrics)`` replaces the default
        ``print`` logging: it fires every ``log_every`` steps, or after
        every step when ``log_every`` is 0.
        """
        metrics: Dict[str, float] = {}
        for i in range(n_steps):
            metrics = self.train_step()
            if metrics_callback is not None:
                if log_every == 0 or (i + 1) % log_every == 0:
                    metrics_callback(self.steps_done, metrics)
            elif log_every and (i + 1) % log_every == 0:
                print(
                    f"step {self.steps_done}: "
                    f"critic={metrics['critic_loss']:.4f} "
                    f"policy={metrics['policy_loss']:.4f} "
                    f"f={metrics['mean_f']:.3f}"
                )
        return metrics
