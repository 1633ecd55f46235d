"""Behavioral Cloning baselines (Section 6.2, "Compared to BC").

BC trains the *same* policy network as Sage by maximizing the
log-likelihood of the pool's state-action pairs — no critic, no advantage
filter, no reward. The paper builds four variants by filtering the pool:

- ``bc``      — all 13 schemes (maximum contradiction between policies);
- ``bc-top``  — only the top scheme of Set I and of Set II (Vegas, Cubic);
- ``bc-top3`` — the top three of each set;
- ``bcv2``    — only each scenario's *winner* trajectories.

All of them inherit BC's two failure modes the paper highlights: no
mechanism to out-perform the demonstrators, and averaging over
contradictory strategies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.collector.gr_unit import normalize_state
from repro.collector.pool import PolicyPool
from repro.core.agent import SageAgent
from repro.core.networks import NetworkConfig, SagePolicy, log_action
from repro.nn.optim import Adam, clip_grad_norm

#: The pool filters defining each BC variant (paper Section 6.2).
BC_VARIANTS: Dict[str, Optional[List[str]]] = {
    "bc": None,  # all schemes
    "bc-top": ["vegas", "cubic"],
    "bc-top3": ["vegas", "bbr2", "yeah", "cubic", "htcp", "bic"],
    "bcv2": "winners",  # special: per-scenario winner trajectories
}


class BCTrainer:
    """Maximum-likelihood cloning of the pool's state-action mapping."""

    def __init__(
        self,
        pool: PolicyPool,
        net_config: Optional[NetworkConfig] = None,
        batch_size: int = 16,
        seq_len: int = 8,
        lr: float = 3e-4,
        grad_clip: float = 10.0,
        seed: int = 0,
    ) -> None:
        self.pool = pool
        self.net_cfg = net_config if net_config is not None else NetworkConfig()
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.grad_clip = grad_clip
        self.rng = np.random.default_rng(seed)
        self.policy = SagePolicy(self.net_cfg, self.rng)
        self.opt = Adam(self.policy.parameters(), lr=lr)
        self.steps_done = 0
        self.history: List[float] = []

    def train_step(self) -> float:
        batch = self.pool.sample_sequences(
            self.batch_size, self.seq_len, self.rng, normalize=normalize_state
        )
        # the fused trunk's rows are t-major (row t*B + i is batch row i at
        # timestep t), so the actions are flattened the same way; one flat
        # mean equals the mean of per-timestep means at equal batch rows
        log_a = log_action(batch["actions"])
        log_a_flat = np.ascontiguousarray(log_a.T).reshape(-1)
        feats = self.policy.features_seq_fused(batch["states"])
        loss = (self.policy.log_prob(feats, log_a_flat) * -1.0).mean()
        self.opt.zero_grad()
        loss.backward()
        clip_grad_norm(self.policy.parameters(), self.grad_clip)
        self.opt.step()
        self.steps_done += 1
        value = float(loss.data)
        self.history.append(value)
        return value

    def train(self, n_steps: int) -> float:
        loss = float("nan")
        for _ in range(n_steps):
            loss = self.train_step()
        return loss

    def agent(self, name: str = "bc") -> SageAgent:
        return SageAgent(self.policy, name=name)


def _winner_pool(pool: PolicyPool) -> PolicyPool:
    """BCv2's filter: keep only each environment's best-reward trajectory."""
    best: Dict[str, object] = {}
    for traj in pool.trajectories:
        mean_r = float(np.mean(traj.rewards)) if traj.length else -np.inf
        cur = best.get(traj.env_id)
        if cur is None or mean_r > cur[0]:
            best[traj.env_id] = (mean_r, traj)
    return PolicyPool([t for _, t in best.values()])


def train_bc_variant(
    pool: PolicyPool,
    variant: str,
    n_steps: int = 200,
    net_config: Optional[NetworkConfig] = None,
    seed: int = 0,
) -> SageAgent:
    """Train one of the paper's four BC variants and return its agent."""
    if variant not in BC_VARIANTS:
        raise ValueError(f"unknown BC variant {variant!r}; choose from {sorted(BC_VARIANTS)}")
    selector = BC_VARIANTS[variant]
    if selector is None:
        sub = pool
    elif selector == "winners":
        sub = _winner_pool(pool)
    else:
        sub = pool.filter_schemes(selector)
    trainer = BCTrainer(sub, net_config=net_config, seed=seed)
    trainer.train(n_steps)
    return trainer.agent(name=variant)
