"""Tests for the rollout runner and the policy pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.environments import EnvConfig
from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.collector.rollout import collect_trajectory, run_policy
from repro.datastore import ShardedPool, pack_pool


def mini_env(multi=False, duration=4.0):
    return EnvConfig(
        env_id="mini-multi" if multi else "mini",
        kind="flat",
        bw_mbps=12.0,
        min_rtt=0.04,
        buffer_bdp=2.0,
        n_competing_cubic=1 if multi else 0,
        duration=duration,
    )


class ConstantAgent:
    """Always emits the same cwnd ratio."""

    name = "const"

    def __init__(self, ratio=1.0):
        self.ratio = ratio

    def reset(self):
        pass

    def act(self, state):
        return self.ratio


class TestCollectTrajectory:
    def test_shapes_consistent(self):
        r = collect_trajectory(mini_env(), "cubic")
        assert r.states.shape == (r.length, STATE_DIM)
        assert r.actions.shape == (r.length,)
        assert r.rewards.shape == (r.length,)
        assert r.length == pytest.approx(4.0 / 0.02, abs=2)

    def test_rewards_in_range(self):
        r = collect_trajectory(mini_env(), "vegas")
        assert np.all(r.rewards >= 0.0)
        assert np.all(r.rewards <= 2.0)

    def test_actions_in_ratio_range(self):
        r = collect_trajectory(mini_env(), "cubic")
        assert np.all(r.actions >= 1 / 3 - 1e-9)
        assert np.all(r.actions <= 3 + 1e-9)

    def test_good_scheme_earns_reward(self):
        r = collect_trajectory(mini_env(duration=6.0), "vegas")
        assert r.rewards[len(r.rewards) // 2:].mean() > 0.3

    def test_multi_flow_has_competitor(self):
        r = collect_trajectory(mini_env(multi=True, duration=6.0), "cubic")
        assert len(r.competitor_stats) == 1
        assert r.competitor_stats[0].avg_throughput_bps > 0

    def test_multi_flow_uses_friendliness_reward(self):
        # a starving flow should score near zero on R2
        r = collect_trajectory(mini_env(multi=True, duration=8.0), "vegas")
        assert r.rewards.mean() < 0.9


class TestRunPolicy:
    def test_agent_controls_cwnd(self):
        env = mini_env()
        r = run_policy(env, ConstantAgent(ratio=1.0))
        assert r.scheme == "const"
        # ratio 1.0 forever: cwnd pinned at initial value
        assert np.allclose(r.actions, 1.0)
        assert r.stats.avg_throughput_bps > 0

    def test_growing_agent_fills_link(self):
        env = mini_env(duration=6.0)
        r = run_policy(env, ConstantAgent(ratio=1.05))
        assert r.stats.avg_throughput_bps > 0.5 * 12e6


def random_pool(rng, n_traj=5, length=30):
    trajs = []
    for i in range(n_traj):
        trajs.append(
            Trajectory(
                scheme=f"s{i % 2}",
                env_id=f"e{i}",
                multi_flow=bool(i % 2),
                states=rng.standard_normal((length, STATE_DIM)),
                actions=rng.uniform(0.5, 2.0, size=length),
                rewards=rng.uniform(0, 1, size=length),
            )
        )
    return PolicyPool(trajs)


class TestPolicyPool:
    def test_counts(self):
        pool = random_pool(np.random.default_rng(0))
        assert len(pool) == 5
        assert pool.n_transitions == 150

    def test_add_rollout(self):
        pool = PolicyPool()
        r = collect_trajectory(mini_env(duration=2.0), "newreno")
        pool.add_rollout(r)
        assert pool.schemes() == ["newreno"]

    def test_filter_schemes(self):
        pool = random_pool(np.random.default_rng(0))
        sub = pool.filter_schemes(["s0"])
        assert all(t.scheme == "s0" for t in sub.trajectories)
        assert len(sub) == 3

    def test_filter_env(self):
        pool = random_pool(np.random.default_rng(0))
        sub = pool.filter_env(lambda eid: eid == "e1")
        assert len(sub) == 1

    def test_sample_sequences_shapes(self):
        rng = np.random.default_rng(1)
        pool = random_pool(rng)
        batch = pool.sample_sequences(8, 6, rng)
        assert batch["states"].shape == (8, 6, STATE_DIM)
        assert batch["next_states"].shape == (8, 6, STATE_DIM)
        assert batch["actions"].shape == (8, 6)
        assert batch["rewards"].shape == (8, 6)

    def test_sample_sequences_are_consecutive(self):
        rng = np.random.default_rng(2)
        pool = random_pool(rng, n_traj=1)
        batch = pool.sample_sequences(4, 5, rng)
        np.testing.assert_allclose(
            batch["states"][:, 1:, :], batch["next_states"][:, :-1, :]
        )

    def test_sample_rejects_too_long(self):
        rng = np.random.default_rng(3)
        pool = random_pool(rng, length=5)
        with pytest.raises(ValueError):
            pool.sample_sequences(2, 10, rng)

    def test_sample_applies_normalizer(self):
        rng = np.random.default_rng(4)
        pool = random_pool(rng)
        batch = pool.sample_sequences(2, 3, rng, normalize=lambda s: s * 0.0)
        assert np.all(batch["states"] == 0.0)

    def test_trajectory_validates_lengths(self):
        with pytest.raises(ValueError):
            Trajectory(
                scheme="x", env_id="e", multi_flow=False,
                states=np.zeros((5, STATE_DIM)),
                actions=np.zeros(4),
                rewards=np.zeros(4),
            )

    def test_save_load_roundtrip(self, tmp_path):
        pool = random_pool(np.random.default_rng(5))
        pack_pool(pool, tmp_path / "st")
        loaded = ShardedPool.open(tmp_path / "st")
        assert len(loaded) == len(pool)
        for a, b in zip(pool.trajectories, loaded.iter_trajectories()):
            assert a.scheme == b.scheme
            assert a.env_id == b.env_id
            assert a.multi_flow == b.multi_flow
            np.testing.assert_allclose(a.states, b.states)
            np.testing.assert_allclose(a.actions, b.actions)

    def test_summary_mentions_schemes(self):
        pool = random_pool(np.random.default_rng(6))
        text = pool.summary()
        assert "s0" in text and "s1" in text

    def test_save_load_env_id_with_pipes(self, tmp_path):
        pool = random_pool(np.random.default_rng(8), n_traj=2)
        pool.trajectories[0].env_id = "step|24mbps|codel"
        pool.trajectories[1].env_id = "trailing\\"
        pack_pool(pool, tmp_path / "st")
        loaded = list(ShardedPool.open(tmp_path / "st").iter_trajectories())
        assert loaded[0].env_id == "step|24mbps|codel"
        assert loaded[1].env_id == "trailing\\"
        assert loaded[0].multi_flow == pool.trajectories[0].multi_flow

    def test_drop_cache_releases_concat(self):
        rng = np.random.default_rng(9)
        pool = random_pool(rng)
        pool.sample_sequences(4, 5, rng)
        assert pool._concat is not None
        pool.drop_cache()
        assert pool._concat is None
        # sampling transparently rebuilds the cache
        batch = pool.sample_sequences(4, 5, rng)
        assert batch["states"].shape == (4, 5, STATE_DIM)

    @given(batch=st.integers(1, 16), seq=st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_sampling_never_exceeds_bounds(self, batch, seq):
        rng = np.random.default_rng(7)
        pool = random_pool(rng, length=12)
        if seq >= 12:
            with pytest.raises(ValueError):
                pool.sample_sequences(batch, seq, rng)
        else:
            out = pool.sample_sequences(batch, seq, rng)
            assert np.all(np.isfinite(out["states"]))
