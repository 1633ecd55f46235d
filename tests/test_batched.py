"""The row-consistency contract of the batched serving kernel.

``repro.nn.batched.batched_linear`` runs on BLAS gemm over fixed-shape row
blocks. Its output rows must not depend on the batch size, the row's
position, or its batch-mates — on whatever BLAS numpy is linked against.
These tests check that on every weight matrix of real policies, so a BLAS
build that breaks the contract fails here before any serving test does.
"""

import numpy as np
import pytest

from repro.collector.gr_unit import STATE_DIM
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy
from repro.nn.batched import ROWS, batched_linear

CONFIGS = {
    "gru16": NetworkConfig(enc_dim=16, gru_dim=16),
    "gru128": NetworkConfig(enc_dim=128, gru_dim=128),
    "gru1024": NetworkConfig().paper_scale(),
}
SCALES = (1e-3, 1.0, 1e3)
MAX_BATCH = 70


@pytest.fixture(scope="module", params=list(CONFIGS))
def fast(request):
    return FastPolicy(SagePolicy(CONFIGS[request.param], np.random.default_rng(0)))


class EinsumPolicy(FastPolicy):
    """Oracle: the batched forward with a fixed-order einsum reduction."""

    def _blin(self, name, x):
        w, b = self._p[f"{name}.W"], self._p[f"{name}.b"]
        return np.einsum("nd,de->ne", x, w) + b


def test_every_weight_row_consistent(fast):
    """A row's floats depend only on the row: any batch size, position or
    batch-mates give the bits it gets when pushed through alone."""
    rng = np.random.default_rng(11)
    layers = [name[: -len(".W")] for name in fast._p if name.endswith(".W")]
    assert len(layers) >= 10
    for name in layers:
        w, b = fast._p[f"{name}.W"], fast._p[f"{name}.b"]
        for n in range(1, MAX_BATCH + 1):
            scale = SCALES[n % len(SCALES)]
            x = rng.standard_normal((n, w.shape[0])) * scale
            pos = int(rng.integers(n))
            y = batched_linear(x, w, b)
            alone = batched_linear(x[pos : pos + 1], w, b)
            assert np.array_equal(y[pos], alone[0]), (name, n, pos, scale)
            # the kernel computes x @ w + b up to rounding
            ref = x @ w + b
            bound = 1e-12 * (np.abs(x) @ np.abs(w) + np.abs(b))
            assert np.all(np.abs(y - ref) <= bound), (name, n, scale)


def test_blocks_cover_ragged_batches():
    """Full blocks, a partial tail and a batch below one block all agree."""
    rng = np.random.default_rng(12)
    w, b = rng.standard_normal((9, 5)), rng.standard_normal(5)
    x = rng.standard_normal((3 * ROWS + 5, 9))
    y = batched_linear(x, w, b)
    assert y.shape == (3 * ROWS + 5, 5)
    for n in (1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS):
        assert np.array_equal(batched_linear(x[:n], w, b), y[:n])
    assert batched_linear(x[:0], w, b).shape == (0, 5)


@pytest.mark.parametrize("cfg", ["gru16", "gru128"])
def test_drift_against_einsum_oracle(cfg):
    """Over 200 recurrent 64-flow ticks the gemm kernel and the einsum
    oracle differ by rounding only: it does not grow with the run."""
    policy = SagePolicy(CONFIGS[cfg], np.random.default_rng(0))
    fast, oracle = FastPolicy(policy), EinsumPolicy(policy)
    rng = np.random.default_rng(13)
    h, h_ref = fast.initial_state_batch(64), oracle.initial_state_batch(64)
    worst = 0.0
    for _ in range(200):
        states = rng.standard_normal((64, STATE_DIM))
        ratios, h = fast.step_batch(states, h)
        ref, h_ref = oracle.step_batch(states, h_ref)
        worst = max(worst, float(np.max(np.abs(np.log(ratios) - np.log(ref)))))
    assert worst <= 1e-12
