"""Tests for pruning and quantization (Section 8)."""

import numpy as np
import pytest

from repro.collector.gr_unit import STATE_DIM
from repro.core.compress import (
    nonzero_count,
    param_count,
    prune_magnitude,
    quantize_per_tensor,
)
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


def make_policy(seed=0):
    return SagePolicy(TINY, np.random.default_rng(seed))


class TestPruning:
    def test_achieves_requested_sparsity(self):
        pol = make_policy()
        before = nonzero_count(pol)
        report = prune_magnitude(pol, 0.5)
        after = nonzero_count(pol)
        assert after < before <= param_count(pol)
        matrix_sparsities = [v for v in report.values()]
        assert np.mean(matrix_sparsities) == pytest.approx(0.5, abs=0.05)

    def test_zero_sparsity_is_noop(self):
        pol = make_policy()
        state = pol.state_dict()
        prune_magnitude(pol, 0.0)
        for k, v in pol.state_dict().items():
            np.testing.assert_array_equal(v, state[k])

    def test_biases_untouched(self):
        pol = make_policy()
        pol.trunk.fc.b.data[:] = 0.123
        prune_magnitude(pol, 0.9)
        np.testing.assert_allclose(pol.trunk.fc.b.data, 0.123)

    def test_pruned_policy_still_runs(self):
        pol = make_policy()
        prune_magnitude(pol, 0.7)
        fast = FastPolicy(pol)
        r, _ = fast.step(np.zeros(STATE_DIM), fast.initial_state())
        assert 1 / 3 <= r <= 3

    def test_mild_pruning_barely_changes_actions(self):
        pol = make_policy(seed=3)
        fast0 = FastPolicy(pol)
        h = fast0.initial_state()
        s = np.random.default_rng(1).standard_normal(STATE_DIM) * 0.1
        r0, _ = fast0.step(s, h)
        prune_magnitude(pol, 0.1)
        fast1 = FastPolicy(pol)
        r1, _ = fast1.step(s, fast1.initial_state())
        assert abs(r1 - r0) < 0.3

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            prune_magnitude(make_policy(), 1.0)


class TestQuantization:
    def test_error_bounded_by_step(self):
        pol = make_policy()
        report = quantize_per_tensor(pol, n_bits=8)
        for name, err in report.items():
            assert err < 0.05  # int8 on O(0.3) init weights

    def test_more_bits_less_error(self):
        err8 = max(quantize_per_tensor(make_policy(1), 8).values())
        err4 = max(quantize_per_tensor(make_policy(1), 4).values())
        assert err8 < err4

    def test_quantized_policy_close_to_original(self):
        pol = make_policy(seed=5)
        s = np.random.default_rng(2).standard_normal(STATE_DIM) * 0.1
        fast0 = FastPolicy(pol)
        r0, _ = fast0.step(s, fast0.initial_state())
        quantize_per_tensor(pol, n_bits=8)
        fast1 = FastPolicy(pol)
        r1, _ = fast1.step(s, fast1.initial_state())
        assert abs(r1 - r0) < 0.1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_per_tensor(make_policy(), 1)
