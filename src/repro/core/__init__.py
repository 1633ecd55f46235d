"""Sage's core learning block (Sections 4.2 and 5): the paper's contribution.

- :mod:`~repro.core.networks` — the Fig. 6 architecture: encoder → GRU →
  LayerNorm/LReLU → encoder → FC → 2x residual blocks → GMM head (policy)
  or C51 head (critic), with the ablation switches of Fig. 12.
- :mod:`~repro.core.crr` — Critic-Regularized Regression: distributional
  policy evaluation (Eq. 5) + exp-advantage-filtered policy improvement
  (Eq. 6).
- :mod:`~repro.core.agent` — the deployable :class:`SageAgent` (the
  Execution block's user-space side).
- :mod:`~repro.core.training` — end-to-end pipeline: collect the pool once,
  train offline, checkpoint per "day", evaluate winning rates (Fig. 7).
"""

from repro.core.networks import SagePolicy, SageCritic, NetworkConfig, FastPolicy
from repro.core.ablation import ABLATIONS, train_ablation
from repro.core.crr import CRRTrainer, CRRConfig
from repro.core.agent import SageAgent
from repro.core.training import (
    TrainingRun,
    collect_pool,
    train_sage_on_pool,
)

__all__ = [
    "SagePolicy",
    "SageCritic",
    "NetworkConfig",
    "FastPolicy",
    "ABLATIONS",
    "train_ablation",
    "CRRTrainer",
    "CRRConfig",
    "SageAgent",
    "TrainingRun",
    "collect_pool",
    "train_sage_on_pool",
]
