"""Fig. 6 — Sage's neural network.

Times a forward+backward pass through the full architecture (encoder ->
GRU -> LayerNorm -> encoder -> FC -> residual x2 -> GMM) on the fused
sequence path every learner trains on, and one real-time
inference step through the frozen fast path, asserting the inference
budget the Execution block needs (well under the 20 ms control tick).
"""

import time

import numpy as np

from conftest import BENCH_NET
from repro.collector.gr_unit import STATE_DIM
from repro.core.networks import FastPolicy, SagePolicy


def test_fig06_training_pass(benchmark):
    rng = np.random.default_rng(0)
    policy = SagePolicy(BENCH_NET, rng)
    states = rng.standard_normal((8, 6, STATE_DIM))
    actions = rng.uniform(-0.5, 0.5, size=(8, 6))
    # t-major, like the fused features: row t*B + i is batch row i at step t
    actions_flat = np.ascontiguousarray(actions.T).reshape(-1)

    def fwd_bwd():
        feats = policy.features_seq_fused(states)
        loss = (-1.0 * policy.log_prob(feats, actions_flat)).mean()
        policy.zero_grad()
        loss.backward()
        return float(loss.data)

    loss = benchmark(fwd_bwd)
    assert np.isfinite(loss)

    # Real-time inference budget: the Execution block runs every 20 ms and
    # the frozen fast path must fit comfortably inside that tick.
    rng2 = np.random.default_rng(1)
    fast = FastPolicy(policy)
    h = fast.initial_state()
    t0 = time.perf_counter()
    n = 500
    for _ in range(n):
        _, h = fast.sample_step(rng2.standard_normal(STATE_DIM), h, rng2)
    per_step = (time.perf_counter() - t0) / n
    print(f"\n=== Fig. 6: inference {per_step * 1e3:.3f} ms/step ===")
    assert per_step < 0.020
