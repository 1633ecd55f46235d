"""Symbolic distillation of the learned policy (`repro.distill`).

Compresses the GRU policy's deterministic serving path into a branchy
CART controller (per *Symbolic Distillation for Learned TCP Congestion
Control*) that answers a whole batch in one fixed-depth walk. The
serving engine mounts it as tier 0 of the tiered router; flows whose
leaf confidence clears the calibrated gate never pay the batched NN
forward.
"""

from repro.distill.dataset import (
    FEATURE_DIM,
    HIDDEN_SUMMARY_DIM,
    HIDDEN_SUMMARY_FIELDS,
    build_distill_dataset,
    feature_names,
    hidden_summary,
)
from repro.distill.model import (
    SCHEMA_VERSION,
    DistillConfig,
    DistilledPolicy,
    evaluate_distilled,
    fit_distilled,
)
from repro.distill.tree import RegressionTree, TreeConfig

__all__ = [
    "FEATURE_DIM",
    "HIDDEN_SUMMARY_DIM",
    "HIDDEN_SUMMARY_FIELDS",
    "SCHEMA_VERSION",
    "DistillConfig",
    "DistilledPolicy",
    "RegressionTree",
    "TreeConfig",
    "build_distill_dataset",
    "evaluate_distilled",
    "feature_names",
    "fit_distilled",
    "hidden_summary",
]
