"""Integration tests: paper-level qualitative behaviours, end to end.

These assert the *shape* findings the paper's evaluation rests on — the
same invariants the benchmark harness regenerates at larger scale.
"""

import numpy as np
import pytest

from repro.collector.environments import EnvConfig
from repro.collector.rollout import collect_trajectory, run_policy
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.core.training import collect_pool, train_sage_on_pool

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


def flat_env(bw=24.0, rtt=0.04, buf=1.0, dur=10.0, n_cubic=0, env_id="it"):
    return EnvConfig(
        env_id=env_id, kind="flat", bw_mbps=bw, min_rtt=rtt, buffer_bdp=buf,
        n_competing_cubic=n_cubic, duration=dur,
    )


class TestSingleFlowLandscape:
    """Set-I-style facts: who utilizes, who keeps delay low."""

    @pytest.mark.parametrize("scheme", ["cubic", "vegas", "bbr2", "newreno", "yeah"])
    def test_schemes_utilize_the_link(self, scheme):
        r = collect_trajectory(flat_env(), scheme)
        assert r.stats.avg_throughput_bps > 0.7 * 24e6

    def test_vegas_keeps_delay_near_propagation(self):
        r = collect_trajectory(flat_env(buf=4.0), "vegas")
        # vegas holds only a few packets of backlog
        assert r.stats.avg_rtt < 0.04 * 1.5

    def test_cubic_fills_deep_buffers(self):
        r = collect_trajectory(flat_env(buf=4.0), "cubic")
        assert r.stats.avg_rtt > 0.04 * 1.5  # standing queue

    def test_delay_ranking_vegas_beats_cubic(self):
        rv = collect_trajectory(flat_env(buf=4.0), "vegas")
        rc = collect_trajectory(flat_env(buf=4.0), "cubic")
        assert rv.stats.avg_owd < rc.stats.avg_owd


class TestFriendlinessLandscape:
    """Set-II-style facts: who coexists with Cubic, who starves."""

    def test_vegas_starves_against_cubic(self):
        r = collect_trajectory(flat_env(buf=4.0, dur=20.0, n_cubic=1), "vegas")
        cubic_thr = r.competitor_stats[0].avg_throughput_bps
        assert r.stats.avg_throughput_bps < 0.5 * cubic_thr

    def test_cubic_coexists_with_cubic(self):
        r = collect_trajectory(flat_env(buf=2.0, dur=30.0, n_cubic=1), "cubic")
        mine = r.stats.avg_throughput_bps
        theirs = r.competitor_stats[0].avg_throughput_bps
        assert 0.3 < mine / max(theirs, 1.0) < 3.0

    def test_rankings_invert_between_sets(self):
        # The Fig. 1 headline: Vegas wins Set I, loses Set II; Cubic reverse.
        v1 = collect_trajectory(flat_env(buf=4.0, env_id="s1"), "vegas")
        c1 = collect_trajectory(flat_env(buf=4.0, env_id="s1"), "cubic")
        from repro.evalx.scores import power_score

        sp_vegas = power_score(v1.stats.avg_throughput_bps, v1.stats.avg_rtt)
        sp_cubic = power_score(c1.stats.avg_throughput_bps, c1.stats.avg_rtt)
        assert sp_vegas > sp_cubic  # vegas better in single flow
        v2 = collect_trajectory(flat_env(buf=4.0, dur=20.0, n_cubic=1), "vegas")
        c2 = collect_trajectory(flat_env(buf=4.0, dur=20.0, n_cubic=1), "cubic")
        fair = 12e6
        assert abs(c2.stats.avg_throughput_bps - fair) < abs(
            v2.stats.avg_throughput_bps - fair
        )  # cubic friendlier than vegas


class TestStepScenarios:
    def test_schemes_track_capacity_increase(self):
        env = EnvConfig(
            env_id="step-up", kind="step", bw_mbps=12.0, min_rtt=0.04,
            buffer_bdp=2.0, step_m=2.0, step_at=6.0, duration=12.0,
        )
        r = collect_trajectory(env, "cubic")
        series = np.asarray(r.stats.throughput_series)
        times = np.asarray(r.stats.times)
        before = series[(times > 3.0) & (times < 6.0)].mean()
        after = series[times > 9.0].mean()
        assert after > 1.3 * before

    def test_schemes_back_off_on_capacity_drop(self):
        env = EnvConfig(
            env_id="step-down", kind="step", bw_mbps=24.0, min_rtt=0.04,
            buffer_bdp=2.0, step_m=0.5, step_at=6.0, duration=12.0,
        )
        r = collect_trajectory(env, "cubic")
        series = np.asarray(r.stats.throughput_series)
        times = np.asarray(r.stats.times)
        after = series[times > 9.0].mean()
        assert after < 0.7 * 24e6


class TestOfflinePipeline:
    def test_pool_to_policy_to_deployment(self):
        envs = [flat_env(bw=12.0, dur=4.0, env_id="p1")]
        pool = collect_pool(envs, schemes=["cubic", "vegas", "bbr2"])
        assert pool.n_transitions > 400
        run = train_sage_on_pool(
            pool, n_steps=10, n_checkpoints=2, net_config=TINY,
            crr_config=CRRConfig(batch_size=4, seq_len=4),
        )
        result = run_policy(envs[0], run.agent)
        assert result.stats.avg_throughput_bps > 0
        assert result.length > 100

    def test_pool_save_load_then_train(self, tmp_path):
        from repro.datastore import ShardedPool

        envs = [flat_env(bw=12.0, dur=3.0, env_id="p2")]
        collect_pool(envs, schemes=["cubic"], store=tmp_path / "pool")
        loaded = ShardedPool.open(tmp_path / "pool")
        assert len(loaded) == 1
        run = train_sage_on_pool(
            loaded, n_steps=4, n_checkpoints=2, net_config=TINY,
            crr_config=CRRConfig(batch_size=4, seq_len=4),
        )
        assert run.trainer.steps_done == 4


class TestAQMRobustness:
    @pytest.mark.parametrize("aqm", ["taildrop", "headdrop", "codel", "pie", "bode"])
    def test_transport_survives_every_aqm(self, aqm):
        env = EnvConfig(
            env_id=f"aqm-{aqm}", kind="flat", bw_mbps=12.0, min_rtt=0.02,
            buffer_bdp=4.0, duration=6.0, aqm=aqm,
        )
        r = collect_trajectory(env, "cubic")
        assert r.stats.avg_throughput_bps > 0.4 * 12e6

    def test_codel_cuts_standing_delay(self):
        deep = flat_env(buf=8.0, dur=8.0, env_id="td")
        r_td = collect_trajectory(deep, "cubic")
        env_codel = EnvConfig(
            env_id="cd", kind="flat", bw_mbps=24.0, min_rtt=0.04,
            buffer_bdp=8.0, duration=8.0, aqm="codel",
        )
        r_cd = collect_trajectory(env_codel, "cubic")
        assert r_cd.stats.avg_owd < r_td.stats.avg_owd


class TestCellular:
    def test_variable_link_is_survivable(self):
        env = EnvConfig(
            env_id="cell", kind="cellular", bw_mbps=8.0, min_rtt=0.04,
            buffer_bdp=6.0, duration=10.0, trace_seed=5,
        )
        r = collect_trajectory(env, "cubic")
        assert r.stats.avg_throughput_bps > 1e6

    def test_delay_sensitive_scheme_keeps_delay_lower(self):
        env = EnvConfig(
            env_id="cell2", kind="cellular", bw_mbps=8.0, min_rtt=0.04,
            buffer_bdp=6.0, duration=10.0, trace_seed=6,
        )
        r_cubic = collect_trajectory(env, "cubic")
        r_vegas = collect_trajectory(env, "vegas")
        assert r_vegas.stats.avg_owd < r_cubic.stats.avg_owd * 1.1
