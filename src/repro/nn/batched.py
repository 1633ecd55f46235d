"""Row-consistent batched inference primitives.

The serving engine folds N concurrent flows into one ``(N, D)`` forward
pass. For a flow's decision stream not to depend on which other flows
share its batch (the guarantee `tests/test_serve.py` enforces
bit-for-bit), every batched op must produce, for each row, the exact same
floats regardless of how many other rows share the batch.

The scope of that guarantee is NN-tier batches of two or more flows. A flow
that is alone in its tick's NN batch is served by
:class:`~repro.core.networks.FastPolicy`'s 1-D BLAS-gemv path instead,
which keeps single-flow serving bit-identical to ``SageAgent`` and differs
from these kernels by float rounding.

``@`` / ``np.matmul`` do not have that property: BLAS gemm picks different
blocking (and therefore different summation order) for different batch
sizes, so row i of a ``(64, D) @ (D, E)`` product can differ in the last
ulp from the same row pushed through a ``(1, D) @ (D, E)`` call. ``einsum``
(without ``optimize=``, which would route back to BLAS) reduces each output
element with a fixed-order loop over ``D``, independent of N — slower than
gemm on large batches, but deterministic across batch composition, which is
what a serving tier that must never change a flow's decision stream needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_linear", "batched_layer_norm", "batched_sigmoid"]


def batched_linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` for ``(N, D)`` inputs, bitwise row-consistent in N."""
    return np.einsum("nd,de->ne", x, w) + b


def batched_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """LayerNorm over the last axis; per-row reductions, consistent in N."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def batched_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
