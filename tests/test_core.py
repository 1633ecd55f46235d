"""Tests for the core learning block: networks, CRR, agent, training."""

import numpy as np
import pytest

from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.agent import SageAgent
from repro.core.crr import CRRConfig
from repro.core.networks import (
    FastPolicy,
    NetworkConfig,
    SageCritic,
    SagePolicy,
    log_action,
)
from repro.nn.autograd import Tensor, no_grad
from repro.train.engine import FastCRRTrainer
from tests.crr_oracle import features_seq, recurrent_seq

RNG = np.random.default_rng(0)
TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


def synthetic_pool(rng, n_traj=6, length=24, good_action=1.1):
    """A bandit-ish pool: reward is high when action ~ good_action."""
    trajs = []
    for i in range(n_traj):
        states = rng.standard_normal((length, STATE_DIM)) * 0.1
        actions = rng.uniform(0.6, 1.8, size=length)
        rewards = np.exp(-10.0 * (actions - good_action) ** 2)
        trajs.append(
            Trajectory(
                scheme=f"s{i}", env_id=f"e{i}", multi_flow=False,
                states=states, actions=actions, rewards=rewards,
            )
        )
    return PolicyPool(trajs)


class TestNetworks:
    def test_policy_sequence_shapes(self):
        # fused rows are t-major: (B, L, D) -> (L*B, E)
        pol = SagePolicy(TINY, RNG)
        feats = pol.features_seq_fused(np.zeros((3, 5, STATE_DIM)))
        assert feats.shape == (15, TINY.enc_dim)

    def test_policy_log_prob_finite(self):
        pol = SagePolicy(TINY, RNG)
        feats = pol.features_seq_fused(np.zeros((4, 2, STATE_DIM)))
        lp = pol.log_prob(feats, np.zeros(8))
        assert lp.shape == (8,)
        assert np.all(np.isfinite(lp.data))

    def test_critic_q_shapes(self):
        critic = SageCritic(TINY, RNG)
        rec = critic.recurrent_seq_fused(np.zeros((3, 4, STATE_DIM)))
        assert rec.shape == (12, TINY.gru_dim)
        q = critic.q_value(rec, np.zeros(12))
        assert q.shape == (12,)
        logits = critic.q_logits(rec, np.zeros(12))
        assert logits.shape == (12, TINY.n_atoms)

    def test_q_depends_on_action(self):
        critic = SageCritic(TINY, RNG)
        rec = critic.recurrent_seq_fused(np.ones((2, 1, STATE_DIM)))
        q1 = critic.q_value(rec, np.full(2, -0.5)).data
        q2 = critic.q_value(rec, np.full(2, 0.5)).data
        assert not np.allclose(q1, q2)

    @pytest.mark.parametrize("use_gru", [True, False])
    def test_fused_rows_match_per_timestep_oracle(self, use_gru):
        # row t*B + i of the fused path is batch row i at timestep t of
        # the per-timestep stages, to float rounding
        from dataclasses import replace

        cfg = replace(TINY, use_gru=use_gru)
        rng = np.random.default_rng(3)
        pol, critic = SagePolicy(cfg, rng), SageCritic(cfg, rng)
        states = rng.standard_normal((3, 4, STATE_DIM))
        for fused, steps in (
            (pol.features_seq_fused(states), features_seq(pol, states)),
            (critic.recurrent_seq_fused(states), recurrent_seq(critic, states)),
        ):
            assert len(steps) == 4
            np.testing.assert_allclose(
                fused.data, np.concatenate([s.data for s in steps]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize(
        "flag", ["use_gru", "use_post_encoder", "use_gmm"]
    )
    def test_ablation_configs_run(self, flag):
        from dataclasses import replace

        cfg = replace(TINY, **{flag: False})
        pol = SagePolicy(cfg, np.random.default_rng(1))
        feats = pol.features_seq_fused(np.zeros((2, 3, STATE_DIM)))
        ratios = pol.mode(feats)
        assert ratios.shape == (6,)

    def test_no_gmm_has_single_component(self):
        from dataclasses import replace

        pol = SagePolicy(replace(TINY, use_gmm=False), RNG)
        assert pol.head.n_components == 1

    def test_paper_scale_config(self):
        cfg = NetworkConfig().paper_scale()
        assert cfg.gru_dim == 1024 and cfg.enc_dim == 256 and cfg.n_atoms == 51

    def test_log_action_clips(self):
        out = log_action(np.array([0.0, 1.0, 1e9]))
        assert np.isfinite(out).all()


class TestFastPolicy:
    def test_matches_slow_path_over_sequence(self):
        pol = SagePolicy(TINY, np.random.default_rng(2))
        fast = FastPolicy(pol)
        h_f = fast.initial_state()
        h_s = pol.initial_state(1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.standard_normal(STATE_DIM)
            r_fast, h_f = fast.step(s, h_f)
            with no_grad():
                feat, h_s = pol.step(s, h_s)
                r_slow = float(pol.mode(feat)[0])
            assert r_fast == pytest.approx(r_slow, abs=1e-12)

    def test_matches_without_gru(self):
        from dataclasses import replace

        pol = SagePolicy(replace(TINY, use_gru=False), np.random.default_rng(4))
        fast = FastPolicy(pol)
        s = np.random.default_rng(5).standard_normal(STATE_DIM)
        r_fast, _ = fast.step(s, fast.initial_state())
        with no_grad():
            feat, _ = pol.step(s, None)
            r_slow = float(pol.mode(feat)[0])
        assert r_fast == pytest.approx(r_slow, abs=1e-12)

    def test_ratio_in_bounds(self):
        pol = SagePolicy(TINY, RNG)
        fast = FastPolicy(pol)
        r, _ = fast.step(np.zeros(STATE_DIM), fast.initial_state())
        assert 1 / 3 <= r <= 3


class TestCRR:
    def _trainer(self, seed=0):
        pool = synthetic_pool(np.random.default_rng(seed))
        cfg = CRRConfig(batch_size=4, seq_len=4)
        return FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=seed)

    def test_train_step_returns_finite_metrics(self):
        t = self._trainer()
        m = t.train_step()
        assert np.isfinite(m["critic_loss"])
        assert np.isfinite(m["policy_loss"])
        assert m["mean_f"] > 0

    def test_weights_change(self):
        t = self._trainer()
        before = t.policy.state_dict()
        t.train(3)
        after = t.policy.state_dict()
        changed = any(
            not np.allclose(before[k], after[k]) for k in before
        )
        assert changed

    def test_target_networks_lag(self):
        t = self._trainer()
        t.train(3)
        pol = t.policy.state_dict()
        tgt = t.target_policy.state_dict()
        assert any(not np.allclose(pol[k], tgt[k]) for k in pol)

    def test_learns_the_good_action(self):
        # The pool rewards action ~1.1; CRR's advantage filter should make
        # the policy prefer it over a bad-but-in-distribution action (1.8).
        pool = synthetic_pool(np.random.default_rng(1))
        cfg = CRRConfig(batch_size=8, seq_len=4, lr_policy=1e-3, lr_critic=1e-3)
        t = FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=1)
        t.train(150)
        feats = features_seq(t.policy, np.zeros((8, 3, STATE_DIM)))
        lp_good = t.policy.log_prob(feats[-1], log_action(np.full(8, 1.1))).data
        lp_bad = t.policy.log_prob(feats[-1], log_action(np.full(8, 1.8))).data
        assert lp_good.mean() > lp_bad.mean()
        modes = t.policy.mode(feats[-1])
        assert 0.7 < float(np.mean(modes)) < 1.6  # in the rewarding region

    def test_history_recorded(self):
        t = self._trainer()
        t.train(3)
        assert len(t.history["critic_loss"]) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CRRConfig(gamma=1.5)
        with pytest.raises(ValueError):
            CRRConfig(gamma=0.0)
        with pytest.raises(ValueError):
            CRRConfig(batch_size=0)
        with pytest.raises(ValueError):
            CRRConfig(seq_len=0)
        with pytest.raises(ValueError):
            CRRConfig(m_samples=0)
        with pytest.raises(ValueError):
            CRRConfig(filter_type="softmax")
        with pytest.raises(ValueError):
            CRRConfig(history_limit=0)
        assert CRRConfig(history_limit=None).history_limit is None

    def test_policy_features_computed_once_per_step(self):
        # The train step reuses one fused trunk pass for both the
        # advantage filter and the improvement loss.
        t = self._trainer()
        calls = {"n": 0}
        orig = t.policy.features_seq_fused

        def counting(states):
            calls["n"] += 1
            return orig(states)

        t.policy.features_seq_fused = counting
        t.train_step()
        assert calls["n"] == 1

    def test_history_limit_bounds_metrics(self):
        pool = synthetic_pool(np.random.default_rng(3))
        cfg = CRRConfig(batch_size=4, seq_len=4, history_limit=3)
        t = FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=3)
        t.train(5)
        assert all(len(h) == 3 for h in t.history.values())

    def test_metrics_callback_replaces_print(self, capsys):
        t = self._trainer()
        seen = []
        t.train(4, log_every=2, metrics_callback=lambda s, m: seen.append(s))
        assert seen == [2, 4]
        assert capsys.readouterr().out == ""
        # log_every=0 with a callback fires every step
        seen.clear()
        t.train(2, metrics_callback=lambda s, m: seen.append(s))
        assert len(seen) == 2

    def test_binary_filter_trains(self):
        pool = synthetic_pool(np.random.default_rng(4))
        cfg = CRRConfig(batch_size=4, seq_len=4, filter_type="binary")
        t = FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=4)
        m = t.train_step()
        assert np.isfinite(m["policy_loss"])
        # the binary filter is an indicator: mean weight within [0, 1]
        assert 0.0 <= m["mean_f"] <= 1.0


class TestAgent:
    def test_act_returns_bounded_ratio(self):
        agent = SageAgent(SagePolicy(TINY, RNG))
        agent.reset()
        r = agent.act(np.zeros(STATE_DIM))
        assert 1 / 3 <= r <= 3

    def test_deterministic_repeatable(self):
        agent = SageAgent(SagePolicy(TINY, np.random.default_rng(6)), deterministic=True)
        agent.reset()
        a1 = [agent.act(np.ones(STATE_DIM)) for _ in range(5)]
        agent.reset()
        a2 = [agent.act(np.ones(STATE_DIM)) for _ in range(5)]
        assert a1 == a2

    def test_stochastic_varies(self):
        agent = SageAgent(
            SagePolicy(TINY, np.random.default_rng(7)), deterministic=False
        )
        agent.reset()
        acts = {round(agent.act(np.ones(STATE_DIM)), 6) for _ in range(20)}
        assert len(acts) > 1

    def test_save_load_roundtrip(self, tmp_path):
        pol = SagePolicy(TINY, np.random.default_rng(8))
        agent = SageAgent(pol, name="sage")
        agent.save(tmp_path / "sage.npz")
        loaded = SageAgent.load(tmp_path / "sage.npz", net_config=TINY)
        agent.reset()
        loaded.reset()
        s = np.ones(STATE_DIM)
        assert agent.act(s) == pytest.approx(loaded.act(s))

    def test_hidden_features_shape(self):
        agent = SageAgent(SagePolicy(TINY, RNG))
        agent.reset()
        feat = agent.hidden_features(np.zeros(STATE_DIM))
        assert feat.shape == (TINY.enc_dim,)


class TestTrainingPipeline:
    def test_collect_and_train_mini(self):
        from repro.collector.environments import EnvConfig
        from repro.core.training import collect_pool, train_sage_on_pool

        envs = [
            EnvConfig(env_id="t1", kind="flat", bw_mbps=12.0, min_rtt=0.04,
                      buffer_bdp=2.0, duration=3.0)
        ]
        pool = collect_pool(envs, schemes=["cubic", "vegas"])
        assert len(pool) == 2
        run = train_sage_on_pool(
            pool, n_steps=4, n_checkpoints=2, net_config=TINY,
            crr_config=CRRConfig(batch_size=4, seq_len=4),
        )
        assert len(run.checkpoints) == 2
        assert run.checkpoint_steps == [2, 4]
        ckpt_agent = run.agent_at(0)
        ckpt_agent.reset()
        assert 1 / 3 <= ckpt_agent.act(np.zeros(STATE_DIM)) <= 3

    def test_checkpoint_validation(self):
        from repro.core.training import train_sage_on_pool

        pool = synthetic_pool(np.random.default_rng(9))
        with pytest.raises(ValueError):
            train_sage_on_pool(pool, n_steps=2, n_checkpoints=5)

    def test_agent_at_reconstruction_deterministic(self):
        # agent_at must rebuild each "day" exactly: two reconstructions of
        # the same checkpoint make identical decisions, and a later
        # checkpoint (more training) decides differently.
        from repro.core.training import train_sage_on_pool

        pool = synthetic_pool(np.random.default_rng(10))
        run = train_sage_on_pool(
            pool, n_steps=6, n_checkpoints=3, net_config=TINY,
            crr_config=CRRConfig(batch_size=4, seq_len=4), seed=10,
        )
        rng = np.random.default_rng(11)
        states = rng.standard_normal((10, STATE_DIM))

        def decisions(agent):
            agent.reset()
            return [agent.act(s) for s in states]

        d0a = decisions(run.agent_at(0, deterministic=True))
        d0b = decisions(run.agent_at(0, deterministic=True))
        assert d0a == d0b
        d2 = decisions(run.agent_at(2, deterministic=True))
        assert d0a != d2
        # final checkpoint matches the live policy's weights
        last = run.checkpoints[-1]
        live = run.trainer.policy.state_dict()
        for k in last:
            np.testing.assert_array_equal(last[k], live[k])
