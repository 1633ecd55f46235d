"""The Fig. 12 ablation variants.

Six retrained models, matching the paper:

Input ablations (signals removed from the 69-dim vector):

- ``no-minmax``  — all min/max window statistics (33 inputs remain);
- ``no-rttvar``  — the rtt_rate_* and rtt_var_* blocks (Table 1 rows 23-40);
- ``no-loss-inf`` — the lost_* and inflight_* blocks (rows 41-58).

Architecture ablations:

- ``no-gru``     — the GRU block removed;
- ``no-encoder`` — the post-GRU encoder removed;
- ``no-gmm``     — the GMM head replaced by a single Gaussian.

Input ablations are realized by zero-masking the removed entries at both
training and deployment (equivalent to deleting the inputs, without
changing tensor shapes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.collector.gr_unit import (
    LOSS_INFLIGHT_INDICES,
    MINMAX_INDICES,
    RTTVAR_RATE_INDICES,
    STATE_DIM,
)
from repro.collector.pool import PolicyPool
from repro.core.agent import SageAgent
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig


def _mask_without(indices) -> np.ndarray:
    mask = np.ones(STATE_DIM)
    mask[list(indices)] = 0.0
    return mask


#: ablation name -> (net-config override dict, state mask or None)
ABLATIONS: Dict[str, tuple] = {
    "no-minmax": ({}, _mask_without(MINMAX_INDICES)),
    "no-rttvar": ({}, _mask_without(RTTVAR_RATE_INDICES)),
    "no-loss-inf": ({}, _mask_without(LOSS_INFLIGHT_INDICES)),
    "no-gru": ({"use_gru": False}, None),
    "no-encoder": ({"use_post_encoder": False}, None),
    "no-gmm": ({"use_gmm": False}, None),
}


def train_ablation(
    pool: PolicyPool,
    name: str,
    n_steps: int = 100,
    net_config: Optional[NetworkConfig] = None,
    crr_config: Optional[CRRConfig] = None,
    seed: int = 0,
) -> SageAgent:
    """Retrain one ablation variant under Sage's regime and return it.

    The variant trains on :class:`~repro.train.engine.FastCRRTrainer`, the
    engine that trains Sage itself, so Fig. 12 compares like with like.
    """
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; choose from {sorted(ABLATIONS)}")
    overrides, mask = ABLATIONS[name]
    base = net_config if net_config is not None else NetworkConfig()
    cfg = replace(base, **overrides)
    from repro.train.engine import FastCRRTrainer

    trainer = FastCRRTrainer(
        pool, net_config=cfg, config=crr_config, seed=seed, state_mask=mask
    )
    trainer.train(n_steps)
    return SageAgent(trainer.policy, name=name, state_mask=mask)
