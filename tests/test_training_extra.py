"""Extra training-pipeline coverage: windows, checkpoints, CLI league path."""

import numpy as np
import pytest

from repro.cli import main
from repro.collector.environments import EnvConfig
from repro.collector.gr_unit import STATE_DIM, WindowConfig
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.core.training import collect_pool, train_sage_on_pool

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)
TINY_CRR = CRRConfig(batch_size=4, seq_len=4)


def env(duration=3.0, env_id="tx"):
    return EnvConfig(env_id=env_id, kind="flat", bw_mbps=12.0, min_rtt=0.04,
                     buffer_bdp=2.0, duration=duration)


class TestWindowedCollection:
    def test_custom_windows_plumbed_through(self):
        pool = collect_pool(
            [env()], schemes=["cubic"],
            windows=WindowConfig(small=2, medium=2, large=2),
        )
        # with a 2-tick window, the long-window stats track recent values:
        # rtt_l.max equals rtt_s.max at every step
        traj = pool.trajectories[0]
        from repro.collector.gr_unit import STATE_FIELDS

        s_max = traj.states[:, STATE_FIELDS.index("rtt_s.max")]
        l_max = traj.states[:, STATE_FIELDS.index("rtt_l.max")]
        np.testing.assert_allclose(s_max, l_max)

    def test_default_windows_differ(self):
        pool = collect_pool([env(duration=6.0)], schemes=["cubic"])
        traj = pool.trajectories[0]
        from repro.collector.gr_unit import STATE_FIELDS

        s_min = traj.states[-1, STATE_FIELDS.index("rtt_s.min")]
        l_min = traj.states[-1, STATE_FIELDS.index("rtt_l.min")]
        assert l_min <= s_min  # the long window has seen lower RTTs


class TestCheckpoints:
    def test_checkpoints_are_distinct_snapshots(self):
        pool = collect_pool([env()], schemes=["cubic", "vegas"])
        run = train_sage_on_pool(
            pool, n_steps=6, n_checkpoints=3, net_config=TINY,
            crr_config=TINY_CRR,
        )
        assert len(run.checkpoints) == 3
        # weights keep moving between checkpoints
        k0, k2 = run.checkpoints[0], run.checkpoints[2]
        assert any(not np.allclose(k0[k], k2[k]) for k in k0)

    def test_uneven_split_trains_every_step(self):
        # 300 steps over 7 days does not divide: day k ends at
        # (k + 1) * 300 // 7, so no remainder step is dropped
        rng = np.random.default_rng(0)
        pool = PolicyPool([
            Trajectory(
                scheme="s", env_id=f"e{i}", multi_flow=False,
                states=rng.standard_normal((16, STATE_DIM)),
                actions=rng.uniform(0.8, 1.2, size=16),
                rewards=rng.uniform(0, 1, size=16),
            )
            for i in range(2)
        ])
        run = train_sage_on_pool(
            pool, n_steps=300, n_checkpoints=7, net_config=TINY,
            crr_config=CRRConfig(batch_size=2, seq_len=2),
        )
        assert run.trainer.steps_done == 300
        assert run.checkpoint_steps == [42, 85, 128, 171, 214, 257, 300]

    def test_agent_at_is_stochastic_by_default(self):
        pool = collect_pool([env()], schemes=["cubic"])
        run = train_sage_on_pool(
            pool, n_steps=2, n_checkpoints=1, net_config=TINY,
            crr_config=TINY_CRR,
        )
        agent = run.agent_at(0)
        assert not agent.deterministic


class TestCliLeague:
    def test_league_subcommand(self, capsys, monkeypatch):
        # shrink the default grids so the CLI path stays unit-test fast
        import repro.evalx.leagues as leagues

        monkeypatch.setattr(
            leagues, "set1_environments",
            lambda **kw: [env(duration=4.0, env_id="cli1")],
        )
        monkeypatch.setattr(
            leagues, "set2_environments",
            lambda **kw: [
                EnvConfig(env_id="cli2", kind="flat", bw_mbps=12.0,
                          min_rtt=0.04, buffer_bdp=2.0, n_competing_cubic=1,
                          duration=5.0)
            ],
        )
        code = main(["league", "--schemes", "cubic,vegas"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cubic" in out and "vegas" in out
