"""The deployable Sage agent — the user-space side of the Execution block.

Wraps a trained :class:`~repro.core.networks.SagePolicy`: at every control
tick it normalizes the GR state, advances the recurrent hidden state, and
emits a cwnd ratio. Satisfies the
:class:`~repro.collector.rollout.PolicyAgent` protocol.

Since the serving engine landed, ``SageAgent`` is a thin client of
:class:`~repro.serve.engine.PolicyServer`: ``reset()`` opens a single-flow
serving session (no deadline — offline rollouts always take the fresh
policy path) and ``act()`` is one ``serve_one`` call. A batch of one rides
the server's 1-D gemv path, so the agent's decision stream —
including the stochastic deployment mode's RNG consumption — is
bit-identical to the historical in-process implementation. Multi-flow
deployments should talk to a shared :class:`PolicyServer` directly (or via
:class:`~repro.serve.client.ServedAgent`) to get batched inference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.collector.gr_unit import normalize_state
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy
from repro.nn.autograd import no_grad
from repro.nn.serial import load_params, save_params


class SageAgent:
    """A trained policy, ready to drive a TCP sender.

    All inference runs through :class:`FastPolicy` (plain numpy, the
    analogue of the paper's frozen TF graph, fast enough for the 20 ms
    control tick). The default is *stochastic* deployment — the paper's
    Execution block samples the action from pi(a|s); the stochasticity
    doubles as bandwidth probing. ``deterministic=True`` switches to the
    mode of the most likely mixture component.
    """

    #: the server-side id of this agent's single flow
    FLOW_ID = 0

    def __init__(
        self,
        policy: SagePolicy,
        deterministic: bool = False,
        seed: int = 0,
        name: str = "sage",
        state_mask=None,
    ) -> None:
        self.policy = policy
        self.deterministic = deterministic
        self.rng = np.random.default_rng(seed)
        self.name = name
        #: optional 0/1 input mask matching the training-time ablation
        self.state_mask = None if state_mask is None else np.asarray(state_mask, float)
        self._fast: Optional[FastPolicy] = None  # rebuilt on reset (weights may train)
        self._server = None  # single-flow PolicyServer, opened by reset()

    # -- PolicyAgent protocol -------------------------------------------
    def reset(self) -> None:
        """Snapshot the weights and open a fresh serving session."""
        # imported here: repro.serve depends on repro.core.networks
        from repro.serve.engine import PolicyServer, ServeConfig

        self._fast = FastPolicy(self.policy)
        self._server = PolicyServer(
            self.policy,
            ServeConfig(
                deterministic=self.deterministic,
                tick_budget=None,
                state_mask=self.state_mask,
            ),
            fast=self._fast,
        )
        self._server.connect(self.FLOW_ID, rng=self.rng)
        self._slow_hidden = self.policy.initial_state(1)

    def act(self, state: np.ndarray) -> float:
        """Map one raw 69-dim GR state to a cwnd ratio."""
        if self._server is None:
            raise RuntimeError(
                "SageAgent.act() called before reset(); reset() snapshots the "
                "policy weights and opens the serving session"
            )
        return float(self._server.serve_one(self.FLOW_ID, state).ratio)

    # -- analysis hooks ----------------------------------------------------
    def hidden_features(self, state: np.ndarray) -> np.ndarray:
        """Last-hidden-layer features for one state (t-SNE, Fig. 16)."""
        x = normalize_state(state)
        with no_grad():
            feat, self._slow_hidden = self.policy.step(x, self._slow_hidden)
        return feat.data[0]

    # -- persistence ------------------------------------------------------
    def save(self, path) -> None:
        save_params(self.policy, path)

    @classmethod
    def load(
        cls,
        path,
        net_config: Optional[NetworkConfig] = None,
        name: str = "sage",
        deterministic: bool = False,
    ) -> "SageAgent":
        cfg = net_config if net_config is not None else NetworkConfig()
        policy = SagePolicy(cfg, np.random.default_rng(0))
        load_params(policy, path)
        return cls(policy, deterministic=deterministic, name=name)
