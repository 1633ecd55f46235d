"""Model compression: the Section-8 overhead-reduction directions, realized.

The paper points at three orthogonal lines of work for cutting the deployed
model's CPU cost — pruning redundant units, quantization, and knowledge
distillation. The first two are implemented here against the numpy policy;
the distiller that is trained, saved, hot-reloaded and served is the
symbolic tree of :mod:`repro.distill`.

- :func:`prune_magnitude` — global magnitude pruning of weight matrices
  (Frankle & Carbin-style one-shot), keeping the top ``1 - sparsity``
  fraction of weights by absolute value.
- :func:`quantize_per_tensor` — symmetric per-tensor int8 simulation: each
  weight matrix is rounded onto a 256-level grid (the dequantized weights
  stay float so the FastPolicy path is unchanged).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.layers import Module


def prune_magnitude(module: Module, sparsity: float) -> Dict[str, float]:
    """Zero the smallest-magnitude fraction of every weight matrix in place.

    Bias vectors and LayerNorm scales are left untouched (standard
    practice — they are cheap and sensitive). Returns the per-parameter
    achieved sparsity.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    report: Dict[str, float] = {}
    for name, p in module.named_parameters():
        if p.data.ndim < 2:  # skip biases / norms
            continue
        flat = np.abs(p.data).ravel()
        k = int(sparsity * flat.size)
        if k == 0:
            report[name] = 0.0
            continue
        threshold = np.partition(flat, k - 1)[k - 1]
        mask = np.abs(p.data) > threshold
        p.data = p.data * mask
        report[name] = 1.0 - float(mask.mean())
    return report


def quantize_per_tensor(module: Module, n_bits: int = 8) -> Dict[str, float]:
    """Simulate symmetric per-tensor quantization of all weight matrices.

    Each matrix is snapped to ``2^n_bits - 1`` levels spanning
    ``[-max|w|, +max|w|]``. Returns per-parameter max absolute rounding
    error (useful for asserting accuracy bounds).
    """
    if n_bits < 2 or n_bits > 16:
        raise ValueError(f"n_bits must be in [2, 16], got {n_bits}")
    levels = 2 ** (n_bits - 1) - 1
    report: Dict[str, float] = {}
    for name, p in module.named_parameters():
        if p.data.ndim < 2:
            continue
        scale = np.abs(p.data).max() / levels
        if scale == 0:
            report[name] = 0.0
            continue
        quantized = np.round(p.data / scale) * scale
        report[name] = float(np.abs(quantized - p.data).max())
        p.data = quantized
    return report


def param_count(module: Module) -> int:
    """Total number of scalar parameters in a module tree."""
    return sum(p.data.size for p in module.parameters())


def nonzero_count(module: Module) -> int:
    """Number of nonzero parameters (post-pruning footprint)."""
    return int(sum(np.count_nonzero(p.data) for p in module.parameters()))
