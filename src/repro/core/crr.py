"""Critic-Regularized Regression (Wang et al. 2020) — Sage's learner.

Two iterated steps over the fixed pool ``D`` (Section 4.2):

**Policy evaluation** (Eq. 5): distributional TD — the critic's categorical
value distribution is regressed onto the projected Bellman target
``r + gamma * Z_target(s', a')`` with ``a' ~ pi_target(.|s')``.

**Policy improvement** (Eq. 6): advantage-filtered regression::

    maximize  E_D [ f(Q, pi, s, a) * log pi(a|s) ],
    f = exp(A(s, a)),   A = Q(s,a) - (1/m) sum_j Q(s, a_j),  a_j ~ pi(.|s)

The exponential filter keeps actions that the critic scores above the
policy's own average — learning *from* the pool without *imitating* it.

This module holds the learner's hyper-parameters; the learner itself is
:class:`repro.train.engine.FastCRRTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: ``metrics_callback`` signature: ``(steps_done, metrics) -> None``.
MetricsCallback = Callable[[int, Dict[str, float]], None]


@dataclass
class CRRConfig:
    """Learner hyper-parameters."""

    gamma: float = 0.99
    batch_size: int = 16
    seq_len: int = 8
    m_samples: int = 4  # actions sampled for the advantage baseline
    adv_temperature: float = 1.0
    f_max: float = 20.0  # clip on the exponential filter
    #: "exp" is the paper's f = exp(A) (Eq. 6); "binary" is the CRR paper's
    #: indicator variant f = 1[A > 0] — less sample-efficient but immune to
    #: advantage-scale noise on small pools.
    filter_type: str = "exp"
    lr_policy: float = 3e-4
    lr_critic: float = 3e-4
    grad_clip: float = 10.0
    target_tau: float = 0.01  # Polyak rate for target networks
    reward_scale: float = 10.0  # maps per-step rewards onto the atom support
    #: keep at most this many entries per metric in ``trainer.history``
    #: (``None`` = unbounded); multi-hundred-thousand-step runs should bound
    #: it so the metric lists don't grow with the run length.
    history_limit: Optional[int] = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.seq_len < 1 or self.batch_size < 1 or self.m_samples < 1:
            raise ValueError("batch/seq/m_samples must be positive")
        if self.filter_type not in ("exp", "binary"):
            raise ValueError(f"filter_type must be exp/binary, got {self.filter_type!r}")
        if self.history_limit is not None and self.history_limit < 1:
            raise ValueError("history_limit must be positive (or None)")
