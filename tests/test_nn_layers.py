"""Tests for layers, GRU, heads, optimizer, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autograd import Tensor
from repro.nn.gru import GRU
from repro.nn.heads import (
    LOG_ACTION_HI,
    LOG_ACTION_LO,
    DistributionalHead,
    GMMHead,
)
from repro.nn.layers import (
    LayerNorm,
    LeakyReLU,
    Linear,
    Module,
    ResidualBlock,
    Sequential,
    Tanh,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.serial import load_params, save_params


RNG = np.random.default_rng(0)


class TestLinear:
    def test_shape(self):
        lin = Linear(4, 7, RNG)
        out = lin(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_gradients_reach_params(self):
        lin = Linear(4, 2, RNG)
        lin(Tensor(np.ones((3, 4)))).sum().backward()
        assert lin.W.grad is not None
        assert lin.b.grad is not None
        np.testing.assert_allclose(lin.b.grad, np.full(2, 3.0))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3, RNG)


class TestLayerNorm:
    def test_output_normalized(self):
        ln = LayerNorm(8)
        x = RNG.standard_normal((5, 8)) * 10 + 3
        out = ln(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_learned_scale_shift(self):
        ln = LayerNorm(4)
        ln.gamma.data[:] = 2.0
        ln.beta.data[:] = 1.0
        out = ln(Tensor(RNG.standard_normal((3, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradients_flow(self):
        ln = LayerNorm(4)
        ln(Tensor(RNG.standard_normal((3, 4)), requires_grad=True)).sum().backward()
        assert ln.gamma.grad is not None


class TestResidualAndSequential:
    def test_residual_is_identity_at_zero_weights(self):
        block = ResidualBlock(6, RNG)
        block.fc2.W.data[:] = 0.0
        block.fc2.b.data[:] = 0.0
        x = RNG.standard_normal((2, 6))
        np.testing.assert_allclose(block(Tensor(x)).data, x)

    def test_sequential_composes(self):
        seq = Sequential(Linear(3, 5, RNG), LeakyReLU(), Linear(5, 2, RNG), Tanh())
        out = seq(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert np.all(np.abs(out.data) <= 1.0)


class TestModuleTree:
    def test_named_parameters_cover_submodules(self):
        seq = Sequential(Linear(3, 4, RNG), ResidualBlock(4, RNG))
        names = [n for n, _ in seq.named_parameters()]
        assert "layers.0.W" in names
        assert "layers.1.norm.gamma" in names

    def test_state_dict_roundtrip(self):
        a = Sequential(Linear(3, 4, RNG), LayerNorm(4))
        b = Sequential(Linear(3, 4, RNG), LayerNorm(4))
        b.load_state_dict(a.state_dict())
        x = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_rejects_mismatched_keys(self):
        a = Linear(3, 4, RNG)
        with pytest.raises(ValueError):
            a.load_state_dict({"W": np.zeros((3, 4))})

    def test_load_rejects_shape_mismatch(self):
        a = Linear(3, 4, RNG)
        state = a.state_dict()
        state["W"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_soft_update_interpolates(self):
        a, b = Linear(2, 2, RNG), Linear(2, 2, RNG)
        wa, wb = a.W.data.copy(), b.W.data.copy()
        a.soft_update(b, tau=0.25)
        np.testing.assert_allclose(a.W.data, 0.75 * wa + 0.25 * wb)

    def test_zero_grad(self):
        lin = Linear(2, 2, RNG)
        lin(Tensor(np.ones((1, 2)))).sum().backward()
        lin.zero_grad()
        assert lin.W.grad is None


class TestGRU:
    def test_step_shape(self):
        gru = GRU(5, 8, RNG)
        h = gru.step(Tensor(np.ones((3, 5))), gru.initial_state(3))
        assert h.shape == (3, 8)

    def test_sequence_unroll(self):
        gru = GRU(5, 8, RNG)
        xs = [Tensor(RNG.standard_normal((2, 5))) for _ in range(4)]
        outs, h_final = gru(xs)
        assert len(outs) == 4
        np.testing.assert_allclose(outs[-1].data, h_final.data)

    def test_hidden_state_carries_memory(self):
        gru = GRU(2, 4, RNG)
        x = Tensor(np.ones((1, 2)))
        h1 = gru.step(x, gru.initial_state(1))
        h2 = gru.step(x, h1)
        assert not np.allclose(h1.data, h2.data)

    def test_gradients_flow_through_time(self):
        gru = GRU(2, 3, RNG)
        xs = [Tensor(np.ones((1, 2))) for _ in range(5)]
        outs, _ = gru(xs)
        outs[-1].sum().backward()
        assert gru.wz.W.grad is not None

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            GRU(2, 3, RNG)([])


class TestGMMHead:
    def _head(self, k=3):
        return GMMHead(8, k, np.random.default_rng(1))

    def test_log_prob_shape(self):
        head = self._head()
        lp = head.log_prob(Tensor(np.ones((4, 8))), np.zeros(4))
        assert lp.shape == (4,)

    def test_log_prob_matches_manual_single_component(self):
        head = self._head(k=1)
        h = Tensor(RNG.standard_normal((2, 8)))
        a = np.array([0.1, -0.2])
        lp = head.log_prob(h, a).data
        logits, means, log_std = head._split(h)
        sigma = np.exp(log_std.data[:, 0])
        mu = means.data[:, 0]
        manual = (
            -0.5 * ((a - mu) / sigma) ** 2
            - np.log(sigma)
            - 0.5 * np.log(2 * np.pi)
        )
        np.testing.assert_allclose(lp, manual, atol=1e-9)

    def test_log_prob_integrates_to_one(self):
        head = self._head()
        h = Tensor(RNG.standard_normal((1, 8)))
        grid = np.linspace(-5, 5, 4001)
        lp = np.array(
            [float(head.log_prob(h, np.array([u])).data[0]) for u in grid]
        )
        integral = np.trapezoid(np.exp(lp), grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_samples_within_action_bounds(self):
        head = self._head()
        samples = head.sample(Tensor(RNG.standard_normal((64, 8))), RNG)
        assert np.all(samples >= np.exp(LOG_ACTION_LO) - 1e-9)
        assert np.all(samples <= np.exp(LOG_ACTION_HI) + 1e-9)

    def test_mode_deterministic(self):
        head = self._head()
        h = Tensor(RNG.standard_normal((3, 8)))
        np.testing.assert_allclose(head.mode(h), head.mode(h))

    def test_rejects_zero_components(self):
        with pytest.raises(ValueError):
            GMMHead(8, 0, RNG)

    def test_gradient_flows_to_projection(self):
        head = self._head()
        lp = head.log_prob(Tensor(np.ones((2, 8))), np.zeros(2))
        (lp * -1.0).mean().backward()
        assert head.proj.W.grad is not None


class TestDistributionalHead:
    def _head(self, **kw):
        return DistributionalHead(8, np.random.default_rng(2), **kw)

    def test_expected_value_within_support(self):
        head = self._head(n_atoms=11, v_min=-1.0, v_max=3.0)
        v = head.expected_value(Tensor(RNG.standard_normal((5, 8)))).data
        assert np.all(v >= -1.0) and np.all(v <= 3.0)

    @given(r=st.floats(-5.0, 5.0), gamma=st.floats(0.5, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_projection_conserves_probability_mass(self, r, gamma):
        head = self._head(n_atoms=11, v_min=0.0, v_max=10.0)
        probs = np.random.default_rng(3).dirichlet(np.ones(11), size=4)
        target = head.project_target(np.full(4, r), gamma, probs)
        np.testing.assert_allclose(target.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(target >= -1e-12)

    def test_projection_of_point_mass(self):
        head = self._head(n_atoms=11, v_min=0.0, v_max=10.0)
        probs = np.zeros((1, 11))
        probs[0, 0] = 1.0  # all mass at atom 0 (value 0)
        target = head.project_target(np.array([5.0]), 0.0, probs)
        # r + gamma*0 = 5.0 lands exactly on atom 5
        assert target[0, 5] == pytest.approx(1.0)

    def test_projection_clips_to_support(self):
        head = self._head(n_atoms=11, v_min=0.0, v_max=10.0)
        probs = np.full((1, 11), 1.0 / 11)
        target = head.project_target(np.array([100.0]), 0.99, probs)
        assert target[0, -1] == pytest.approx(1.0)

    def test_cross_entropy_minimized_at_match(self):
        head = self._head(n_atoms=5)
        h = Tensor(RNG.standard_normal((3, 8)))
        with np.errstate(all="ignore"):
            pred = head.logits(h).softmax(axis=-1).data
        ce_match = float(head.cross_entropy(h, pred).data)
        other = np.roll(pred, 1, axis=1)
        ce_other = float(head.cross_entropy(h, other).data)
        assert ce_match <= ce_other

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            self._head(n_atoms=1)
        with pytest.raises(ValueError):
            self._head(v_min=5.0, v_max=1.0)


class TestOptim:
    def test_adam_minimizes_quadratic(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, 0.0, atol=1e-2)

    def test_clip_grad_norm_scales(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        pre = clip_grad_norm([w], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)

    def test_clip_noop_when_small(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 0.01)
        clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(w.grad, 0.01)

    def test_adam_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        a = Sequential(Linear(3, 4, RNG), LayerNorm(4))
        save_params(a, tmp_path / "model.npz")
        b = Sequential(Linear(3, 4, RNG), LayerNorm(4))
        load_params(b, tmp_path / "model.npz")
        x = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_corrupt_archive_raises_clear_error(self, tmp_path):
        # a truncated/garbage checkpoint must not surface a bare BadZipFile
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(b"not a zip archive at all")
        m = Sequential(Linear(3, 4, RNG))
        with pytest.raises(ValueError, match="corrupt.npz.*regenerate"):
            load_params(m, bad)

    def test_sidecar_refuses_a_flipped_byte(self, tmp_path):
        a = Sequential(Linear(3, 4, RNG))
        path = tmp_path / "model.npz"
        save_params(a, path)
        good = path.read_bytes()
        bad = bytearray(good)
        bad[len(bad) // 2] ^= 0xFF
        path.write_bytes(bytes(bad))
        b = Sequential(Linear(3, 4, RNG))
        with pytest.raises(ValueError, match="model.npz fails its integrity check"):
            load_params(b, path)
        # a file with no sidecar (the shipped model) is read unchecked
        path.write_bytes(good)
        (tmp_path / "model.npz.crc32").unlink()
        load_params(b, path)
        x = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_missing_file_still_file_not_found(self, tmp_path):
        m = Sequential(Linear(3, 4, RNG))
        with pytest.raises(FileNotFoundError):
            load_params(m, tmp_path / "does_not_exist.npz")
