"""End-to-end tests for the multi-flow serving harness and its clients."""

import numpy as np
import pytest

from repro.collector.environments import EnvConfig, set1_environments
from repro.collector.pool import PolicyPool
from repro.collector.rollout import run_policy
from repro.core.agent import SageAgent
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy
from repro.distill import DistillConfig, fit_distilled
from repro.evalx.leagues import Participant, run_league
from repro.serve.client import ServedAgent
from repro.serve.engine import PolicyServer, ServeConfig
from repro.serve.harness import MultiFlowConfig, jain_index, run_served_flows

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=3, n_atoms=7)


@pytest.fixture()
def policy():
    return SagePolicy(TINY, np.random.default_rng(0))


def _tiny_env(duration=2.0):
    return EnvConfig(
        env_id="serve-test", kind="flat", bw_mbps=24.0, min_rtt=0.04,
        buffer_bdp=2.0, duration=duration,
    )


class TestJainIndex:
    def test_even_shares(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty(self):
        assert jain_index([]) == 0.0


class TestMultiFlowHarness:
    def test_served_flows_share_the_bottleneck(self, policy):
        cfg = MultiFlowConfig(n_flows=4, bw_mbps=48.0, duration=2.0)
        result = run_served_flows(policy, cfg)
        assert len(result.stats) == 4
        # the four flows together move real traffic through the link
        assert 0.0 < result.aggregate_throughput_bps < 48e6 * 1.05
        assert 0.0 < result.jain_fairness <= 1.0
        # every decision came from the live policy (no budget pressure)
        assert result.sources.get("heuristic", 0) == 0
        # all ticks with every flow started ran one (4, 69) forward
        assert result.metrics["batch_hist"].get("4", 0) > 0

    def test_staggered_starts_shrink_early_batches(self, policy):
        cfg = MultiFlowConfig(
            n_flows=3, bw_mbps=48.0, duration=1.5, start_stagger=0.5
        )
        result = run_served_flows(policy, cfg)
        hist = result.metrics["batch_hist"]
        assert all(k in {"1", "2", "3"} for k in hist)
        assert hist.get("1", 0) > 0 and hist.get("3", 0) > 0

    def test_degraded_run_still_moves_traffic(self, policy):
        """With an impossible budget, flows fall back and still progress."""
        server = PolicyServer(
            policy, ServeConfig(tick_budget=1e-9, max_misses=2)
        )
        cfg = MultiFlowConfig(n_flows=2, bw_mbps=24.0, duration=2.0)
        result = run_served_flows(policy, cfg, server=server)
        assert result.sources.get("heuristic", 0) > 0
        assert result.metrics["fallback_rate"] > 0.5
        assert result.aggregate_throughput_bps > 0.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            MultiFlowConfig(n_flows=0)


class TestServedAgent:
    def test_matches_sage_agent_deterministic(self, policy):
        env = _tiny_env()
        base = run_policy(env, SageAgent(policy, deterministic=True))
        served = run_policy(env, ServedAgent(policy, deterministic=True))
        assert np.array_equal(base.actions, served.actions)

    def test_matches_sage_agent_stochastic(self, policy):
        env = _tiny_env()
        base = run_policy(env, SageAgent(policy, seed=7))
        served = run_policy(env, ServedAgent(policy, seed=7))
        assert np.array_equal(base.actions, served.actions)

    def test_act_before_reset_raises(self, policy):
        with pytest.raises(RuntimeError, match="before reset"):
            ServedAgent(policy).act(np.zeros(69))

    def test_metrics_snapshot_after_rollout(self, policy):
        agent = ServedAgent(policy, deterministic=True)
        assert agent.metrics_snapshot() == {}
        run_policy(_tiny_env(duration=1.0), agent)
        snap = agent.metrics_snapshot()
        assert snap["decisions"] > 0 and snap["fallback_rate"] == 0.0

    def test_reset_reopens_session(self, policy):
        agent = ServedAgent(policy, deterministic=True)
        agent.reset()
        first = agent.act(np.zeros(69))
        agent.act(np.zeros(69))
        agent.reset()  # fresh hidden state
        assert agent.act(np.zeros(69)) == first


class TestServedLeague:
    def test_from_served_participates(self, policy):
        envs = [_tiny_env(duration=1.5)]
        result = run_league(
            [
                Participant.from_scheme("cubic"),
                Participant.from_served(policy, deterministic=True),
            ],
            set1=envs,
            set2=envs,
            n_intervals=2,
        )
        assert set(result.set1_rates) == {"cubic", "sage-served"}

    def test_served_league_matches_agent_league(self, policy):
        envs = [_tiny_env(duration=1.5)]
        kwargs = dict(set1=envs, set2=envs, n_intervals=2)
        via_agent = run_league(
            [Participant.from_agent(SageAgent(policy, deterministic=True))],
            **kwargs,
        )
        via_serve = run_league(
            [Participant.from_served(policy, deterministic=True, name="sage")],
            **kwargs,
        )
        assert via_agent.set1_rates == via_serve.set1_rates

    def test_tiered_league_fidelity(self, policy):
        """Tiered (distilled tree + GRU) vs NN-only serving of one policy.

        The gate for anything that changes the tiered decision stream. For
        this policy, seed and construction the tiered-router benchmark this
        test replaces printed "tiered 68.75% vs NN-only 75.00% (delta 6.25
        points)" at f788300: one of the 16 scenario-intervals, the
        resolution of a league this small.
        """
        pool = PolicyPool()
        agent = SageAgent(policy, deterministic=True)
        for env in set1_environments(
            bws=(24.0, 48.0), rtts=(0.04,), buffers=(2.0,), step_ms=(1.0,),
            duration=8.0,
        ):
            pool.add_rollout(run_policy(env, agent))
        distilled, _ = fit_distilled(
            policy, pool,
            DistillConfig(target_coverage=0.98, refresh_every=32, max_depth=10),
        )
        envs = set1_environments(
            bws=(32.0,), rtts=(0.03, 0.05), buffers=(1.5,), step_ms=(1.0,),
            duration=4.0,
        )
        tiered = Participant.from_served(
            policy, name="sage-tiered", deterministic=True, distilled=distilled
        )
        league = run_league(
            [
                Participant.from_served(
                    policy, name="sage-nn", deterministic=True
                ),
                tiered,
            ],
            set1=envs,
            set2=[],
        )
        rates = league.set1_rates
        assert abs(rates["sage-tiered"] - rates["sage-nn"]) <= 0.0625
        # the tree answered most decisions, so the two entrants really differ
        assert tiered.agent.metrics_snapshot()["symbolic_hit_rate"] > 0.5
