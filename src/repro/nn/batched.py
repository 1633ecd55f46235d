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

A plain ``x @ w`` does not have that property. BLAS gemm picks its code
path (blocking, edge kernels, and therefore summation order) from the
problem shape, so row i of a ``(64, D) @ (D, E)`` product can differ in the
last ulp from the same row pushed through an ``(M, D) @ (D, E)`` call at
another M. With OpenBLAS 0.3.31 (numpy 2.4, x86-64 AVX-512) the narrow head
projection ``head.proj.W`` of shape ``(D, 9)`` shows it on 101-111 of the
8 127 rows of all M in 2..127 against the same rows at M = 128, at each of
GRU-16, GRU-128 and GRU-1024; at M = 1 numpy calls gemv, and every row
differs.

:func:`batched_linear` therefore never lets M vary: it cuts the batch into
blocks of :data:`ROWS` rows and issues one ``(ROWS, D) @ (D, E)`` gemm per
block, zero-padding the last partial block in a scratch buffer. Every gemm
call has the same shape, so each output row depends only on its own input
row and ``w`` — not on the batch size or the batch-mates — while the work
still runs on BLAS. ``tests/test_batched.py`` checks that contract on the
installed BLAS for every weight of real GRU-16/128/1024 policies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ROWS", "batched_linear", "batched_layer_norm", "batched_sigmoid"]

#: Rows per gemm block; every matmul the kernel issues is ``(ROWS, D) @ W``.
ROWS = 16


def batched_linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` for ``(N, D)`` inputs, bitwise row-consistent in N."""
    x = np.ascontiguousarray(x)
    n = len(x)
    out = np.empty((n, w.shape[1]), dtype=np.result_type(x, w))
    full = n - n % ROWS
    for i in range(0, full, ROWS):
        np.matmul(x[i : i + ROWS], w, out=out[i : i + ROWS])
    if full < n:
        block = np.zeros((ROWS, x.shape[1]), dtype=x.dtype)
        block[: n - full] = x[full:]
        out[full:] = (block @ w)[: n - full]
    out += b
    return out


def batched_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """LayerNorm over the last axis; per-row reductions, consistent in N."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def batched_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
