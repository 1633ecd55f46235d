"""Tests for environment configs and the Set I / Set II grids."""

import pytest

from repro.collector.environments import (
    EnvConfig,
    build_network,
    set1_environments,
    set2_environments,
    training_environments,
)


class TestEnvConfig:
    def test_bdp_math(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=48.0, min_rtt=0.04, buffer_bdp=1.0
        )
        assert env.bdp_bytes == pytest.approx(48e6 * 0.04 / 8)
        assert env.buffer_bytes == int(env.bdp_bytes)

    def test_buffer_floor(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=1.0, min_rtt=0.001, buffer_bdp=0.5
        )
        assert env.buffer_bytes >= 3 * 1500

    def test_fair_share(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=24.0, min_rtt=0.04, buffer_bdp=2.0,
            n_competing_cubic=1,
        )
        assert env.fair_share_bps(2) == pytest.approx(12e6)
        with pytest.raises(ValueError):
            env.fair_share_bps(0)

    def test_multi_flow_flag(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=24.0, min_rtt=0.04, buffer_bdp=2.0,
            n_competing_cubic=2,
        )
        assert env.is_multi_flow

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            EnvConfig(env_id="e", kind="flat", bw_mbps=0, min_rtt=0.04, buffer_bdp=1)
        with pytest.raises(ValueError):
            EnvConfig(env_id="e", kind="warp", bw_mbps=1, min_rtt=0.04, buffer_bdp=1)

    @pytest.mark.parametrize("kind", ["flat", "step", "cellular", "internet"])
    def test_rate_process_positive(self, kind):
        env = EnvConfig(
            env_id="e", kind=kind, bw_mbps=24.0, min_rtt=0.04, buffer_bdp=2.0,
            step_m=2.0, step_at=5.0,
        )
        rp = env.rate_process()
        assert rp.rate_at(0.0) > 0
        assert rp.rate_at(7.5) > 0

    def test_build_network(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=24.0, min_rtt=0.04, buffer_bdp=2.0,
            aqm="codel",
        )
        loop, net = build_network(env)
        assert net.topology.links[0].aqm.name == "codel"
        assert net.topology.links[0].aqm.capacity_bytes == env.buffer_bytes

    def test_build_network_with_ecn(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=24.0, min_rtt=0.04,
            buffer_bdp=4.0, ecn_threshold_bdp=0.25,
        )
        loop, net = build_network(env)
        assert net.topology.links[0].aqm.ecn_threshold_bytes == int(0.25 * env.bdp_bytes)

    def test_ecn_requires_taildrop(self):
        env = EnvConfig(
            env_id="e", kind="flat", bw_mbps=24.0, min_rtt=0.04,
            buffer_bdp=4.0, aqm="codel", ecn_threshold_bdp=0.25,
        )
        with pytest.raises(ValueError):
            build_network(env)

    def test_dctcp_end_to_end_on_ecn_env(self):
        from repro.collector.rollout import collect_trajectory

        env = EnvConfig(
            env_id="dctcp-e2e", kind="flat", bw_mbps=24.0, min_rtt=0.02,
            buffer_bdp=8.0, ecn_threshold_bdp=0.5, duration=6.0,
        )
        r = collect_trajectory(env, "dctcp")
        assert r.stats.avg_throughput_bps > 0.6 * 24e6
        # ECN keeps the standing queue near the marking threshold, far
        # below the 8-BDP buffer
        assert r.stats.avg_owd < 0.02 / 2 + 0.5 * (8 * 0.02)


class TestGrids:
    def test_set1_has_flat_and_step(self):
        envs = set1_environments()
        kinds = {e.kind for e in envs}
        assert kinds == {"flat", "step"}
        assert all(not e.is_multi_flow for e in envs)

    def test_set1_step_targets_capped(self):
        envs = set1_environments(bws=(96.0,), step_ms=(4.0, 2.0, 0.5))
        for e in envs:
            if e.kind == "step":
                assert e.bw_mbps * e.step_m < 200.0

    def test_set2_all_multi_flow(self):
        envs = set2_environments()
        assert all(e.n_competing_cubic == 1 for e in envs)
        assert all(e.buffer_bdp >= 1.0 for e in envs)  # Appendix C.2

    def test_env_ids_unique(self):
        envs = set1_environments() + set2_environments()
        ids = [e.env_id for e in envs]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("scale", ["mini", "small", "full"])
    def test_training_scales(self, scale):
        envs = training_environments(scale)
        assert len(envs) > 0
        assert any(e.is_multi_flow for e in envs)
        assert any(not e.is_multi_flow for e in envs)

    def test_scales_grow(self):
        assert (
            len(training_environments("mini"))
            < len(training_environments("small"))
            < len(training_environments("full"))
        )

    def test_full_scale_covers_paper_ranges(self):
        envs = training_environments("full")
        bws = {e.bw_mbps for e in envs}
        rtts = {e.min_rtt for e in envs}
        assert min(bws) == 12.0 and max(bws) == 192.0
        assert min(rtts) == 0.010 and max(rtts) == 0.160

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            training_environments("galactic")
