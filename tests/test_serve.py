"""Tests for the policy-serving engine (repro.serve)."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collector.gr_unit import STATE_DIM, normalize_state
from repro.core.agent import SageAgent
from repro.core.networks import FastPolicy, NetworkConfig, SagePolicy
from repro.serve.engine import PolicyServer, ServeConfig
from repro.serve.fallback import AimdFallback, CubicFallback, make_fallback
from repro.serve.metrics import ServingMetrics

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=3, n_atoms=7)


@pytest.fixture()
def policy():
    return SagePolicy(TINY, np.random.default_rng(0))


@pytest.fixture()
def fast(policy):
    return FastPolicy(policy)


class FakeClock:
    """Deterministic time source: each call advances by ``per_call``."""

    def __init__(self, per_call: float) -> None:
        self.t = 0.0
        self.per_call = per_call

    def __call__(self) -> float:
        self.t += self.per_call
        return self.t


class SlowFastPolicy(FastPolicy):
    """An artificially slow policy: every forward sleeps past any budget."""

    SLEEP = 0.002

    def step(self, state, h):
        time.sleep(self.SLEEP)
        return super().step(state, h)

    def step_batch(self, states, h):
        time.sleep(self.SLEEP)
        return super().step_batch(states, h)


# ---------------------------------------------------------------------------
# Satellite: batched-vs-serial equivalence
# ---------------------------------------------------------------------------


class TestBatchedEquivalence:
    def test_batched_identical_to_batch1(self, fast):
        """(N, 69) batched step == N independent batch=1 steps, bitwise."""
        rng = np.random.default_rng(1)
        n, t_steps = 13, 7
        states = rng.standard_normal((t_steps, n, STATE_DIM))
        h = fast.initial_state_batch(n)
        batched = np.empty((t_steps, n))
        for t in range(t_steps):
            r, h = fast.step_batch(states[t], h)
            batched[t] = r
        single = np.empty((t_steps, n))
        for i in range(n):
            hi = fast.initial_state_batch(1)
            for t in range(t_steps):
                r, hi = fast.step_batch(states[t, i : i + 1], hi)
                single[t, i] = r[0]
        assert np.array_equal(batched, single)

    def test_batched_close_to_legacy_1d(self, fast):
        """The fixed-block gemm path matches the 1-D gemv path to float
        rounding."""
        rng = np.random.default_rng(2)
        n, t_steps = 5, 6
        states = rng.standard_normal((t_steps, n, STATE_DIM))
        h = fast.initial_state_batch(n)
        batched = np.empty((t_steps, n))
        for t in range(t_steps):
            r, h = fast.step_batch(states[t], h)
            batched[t] = r
        legacy = np.empty((t_steps, n))
        for i in range(n):
            hl = fast.initial_state()
            for t in range(t_steps):
                r, hl = fast.step(states[t, i], hl)
                legacy[t, i] = r
        assert np.allclose(batched, legacy, rtol=1e-9, atol=1e-12)

    def test_sample_batch_matches_per_flow_rng_streams(self, fast):
        """A flow's sample stream is independent of its batch-mates."""
        rng = np.random.default_rng(3)
        n = 6
        states = rng.standard_normal((n, STATE_DIM))
        rngs = [np.random.default_rng(100 + i) for i in range(n)]
        ratios, _ = fast.sample_step_batch(states, fast.initial_state_batch(n), rngs)
        for i in range(n):
            r, _ = fast.sample_step(
                states[i], fast.initial_state(), np.random.default_rng(100 + i)
            )
            assert ratios[i] == pytest.approx(r, rel=1e-9)

    def test_no_gru_batched(self):
        cfg = NetworkConfig(enc_dim=16, gru_dim=16, n_atoms=7, use_gru=False)
        fast = FastPolicy(SagePolicy(cfg, np.random.default_rng(0)))
        assert fast.initial_state_batch(4) is None
        states = np.random.default_rng(4).standard_normal((4, STATE_DIM))
        ratios, h = fast.step_batch(states, None)
        assert h is None and ratios.shape == (4,)
        for i in range(4):
            r, _ = fast.step_batch(states[i : i + 1], None)
            assert ratios[i] == r[0]

    def test_server_batch_composition_invariant(self, policy):
        """Serving a flow alone or sharing a batch gives identical ratios."""
        rng = np.random.default_rng(5)
        states = rng.standard_normal((6, 3, STATE_DIM))
        cfg = ServeConfig(deterministic=True, tick_budget=None)

        shared = PolicyServer(policy, cfg)
        for fid in range(3):
            shared.connect(fid)
        together = []
        for t in range(6):
            for fid in range(3):
                shared.submit(fid, states[t, fid])
            together.append(shared.tick()[2].ratio)

        # flow 2 must see the exact same decisions when served by itself
        # through the batched kernel (batch >= 2 avoids the 1-D fast path)
        alone = PolicyServer(policy, cfg)
        alone.connect(2)
        alone.connect(7)  # one inert batch-mate with different inputs
        solo = []
        for t in range(6):
            alone.submit(2, states[t, 2])
            alone.submit(7, states[t, 0] * 0.5)
            solo.append(alone.tick()[2].ratio)
        assert together == solo


# ---------------------------------------------------------------------------
# Hidden-state table lifecycle
# ---------------------------------------------------------------------------


class TestHiddenTable:
    def test_connect_close_recycles_rows(self, policy):
        server = PolicyServer(policy, ServeConfig(initial_capacity=2))
        server.connect(10)
        server.connect(11)
        assert server.n_flows == 2 and server.capacity == 2
        server.close(10)
        server.connect(12)  # reuses the freed row, no growth
        assert server.capacity == 2

    def test_table_grows_on_demand(self, policy):
        server = PolicyServer(policy, ServeConfig(initial_capacity=2))
        for fid in range(5):
            server.connect(fid)
        assert server.n_flows == 5 and server.capacity >= 5

    def test_growth_preserves_hidden_state(self, policy):
        server = PolicyServer(
            policy, ServeConfig(deterministic=True, tick_budget=None,
                                initial_capacity=1)
        )
        ref = PolicyServer(
            policy, ServeConfig(deterministic=True, tick_budget=None)
        )
        rng = np.random.default_rng(6)
        states = rng.standard_normal((4, STATE_DIM))
        server.connect(0)
        ref.connect(0)
        r0 = server.serve_one(0, states[0]).ratio
        assert r0 == ref.serve_one(0, states[0]).ratio
        server.connect(1)  # forces a grow() mid-session
        server.connect(2)
        for t in range(1, 4):
            assert (
                server.serve_one(0, states[t]).ratio
                == ref.serve_one(0, states[t]).ratio
            )

    def test_nonfinite_rows_keep_previous_hidden_state(self, policy):
        """In a batch, only the flows whose hidden row came back non-finite
        keep their old state; their batch-mates advance as usual."""

        class PoisonRow1(FastPolicy):
            def step_batch(self, states, h):
                ratios, h_next = super().step_batch(states, h)
                h_next[1] = np.nan
                return ratios, h_next

        cfg = ServeConfig(deterministic=True, tick_budget=None)
        poisoned = PolicyServer(policy, cfg, fast=PoisonRow1(policy))
        ref = PolicyServer(policy, cfg)
        states = np.random.default_rng(8).standard_normal((3, STATE_DIM))
        for server in (poisoned, ref):
            for fid in range(3):
                server.connect(fid)
                server.submit(fid, states[fid])
            server.tick()

        def hidden(server, fid):
            return server._table[server._sessions[fid].row]

        np.testing.assert_array_equal(
            hidden(poisoned, 1), poisoned.fast.initial_state()
        )
        for fid in (0, 2):
            assert np.all(np.isfinite(hidden(poisoned, fid)))
            np.testing.assert_array_equal(hidden(poisoned, fid), hidden(ref, fid))

    def test_double_connect_rejected(self, policy):
        server = PolicyServer(policy)
        server.connect(0)
        with pytest.raises(ValueError):
            server.connect(0)

    def test_close_unknown_rejected(self, policy):
        with pytest.raises(KeyError):
            PolicyServer(policy).close(99)

    def test_submit_unknown_rejected(self, policy):
        with pytest.raises(KeyError):
            PolicyServer(policy).submit(99, np.zeros(STATE_DIM))

    def test_fresh_connection_gets_zero_hidden(self, policy):
        server = PolicyServer(policy, ServeConfig(deterministic=True,
                                                  tick_budget=None))
        s = np.random.default_rng(7).standard_normal(STATE_DIM)
        server.connect(0)
        first = server.serve_one(0, s).ratio
        second = server.serve_one(0, s).ratio  # hidden advanced
        server.close(0)
        server.connect(1)  # recycles row 0; must start from zeros again
        assert server.serve_one(1, s).ratio == first
        assert first != second or TINY.use_gru is False


# ---------------------------------------------------------------------------
# Satellite: deadline / fallback path
# ---------------------------------------------------------------------------


class TestDeadlineFallback:
    def _server(self, policy, per_call, budget=0.020, k=3):
        return PolicyServer(
            policy,
            ServeConfig(deterministic=True, tick_budget=budget, max_misses=k),
            clock=FakeClock(per_call),
        )

    def test_within_budget_serves_policy(self, policy):
        server = self._server(policy, per_call=0.001)
        server.connect(0)
        d = server.serve_one(0, np.zeros(STATE_DIM))
        assert d.source == "policy"

    def test_miss_serves_stale_ratio(self, policy):
        server = self._server(policy, per_call=0.001)
        server.connect(0)
        good = server.serve_one(0, np.zeros(STATE_DIM))
        server.clock.per_call = 0.030  # now every forward misses 20 ms
        d = server.serve_one(0, np.zeros(STATE_DIM))
        assert d.source == "stale"
        assert d.ratio == good.ratio  # holds the previous cwnd ratio

    def test_k_misses_degrade_then_recover(self, policy):
        k = 3
        server = self._server(policy, per_call=0.030, k=k)
        server.connect(0)
        sources = [
            server.serve_one(0, np.zeros(STATE_DIM), cwnd=20.0).source
            for _ in range(k + 2)
        ]
        assert sources[: k - 1] == ["stale"] * (k - 1)
        assert sources[k - 1 :] == ["heuristic"] * 3
        # inference becomes fast again -> flow returns to the policy
        server.clock.per_call = 0.001
        d = server.serve_one(0, np.zeros(STATE_DIM))
        assert d.source == "policy"
        # ...and a later brown-out restarts the miss count from zero
        server.clock.per_call = 0.030
        assert server.serve_one(0, np.zeros(STATE_DIM)).source == "stale"

    def test_slow_policy_injection(self, policy):
        """An actually-slow FastPolicy (wall clock) trips the deadline."""
        server = PolicyServer(
            policy,
            ServeConfig(deterministic=True, tick_budget=1e-4, max_misses=2),
            fast=SlowFastPolicy(policy),
        )
        server.connect(0)
        server.connect(1)
        for fid in (0, 1):
            server.submit(fid, np.zeros(STATE_DIM))
        first = server.tick()
        assert {d.source for d in first.values()} == {"stale"}
        for fid in (0, 1):
            server.submit(fid, np.zeros(STATE_DIM))
        second = server.tick()
        assert {d.source for d in second.values()} == {"heuristic"}
        assert server.metrics.fallback_rate == 1.0

    def test_per_flow_miss_streaks_are_individual(self, policy):
        """A flow joining mid-brown-out degrades on its own schedule."""
        server = self._server(policy, per_call=0.030, k=2)
        server.connect(0)
        server.serve_one(0, np.zeros(STATE_DIM))  # flow 0: miss #1
        server.connect(1)
        server.submit(0, np.zeros(STATE_DIM))
        server.submit(1, np.zeros(STATE_DIM))
        d = server.tick()
        assert d[0].source == "heuristic"  # second consecutive miss
        assert d[1].source == "stale"  # first miss only

    def test_no_budget_never_falls_back(self, policy):
        server = PolicyServer(
            policy,
            ServeConfig(deterministic=True, tick_budget=None),
            clock=FakeClock(10.0),  # absurdly slow clock; budget disabled
        )
        server.connect(0)
        assert server.serve_one(0, np.zeros(STATE_DIM)).source == "policy"


# ---------------------------------------------------------------------------
# Fallback heuristics
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _state(self, srtt=0.04, loss=0.0):
        s = np.zeros(STATE_DIM)
        s[0] = srtt
        s[60] = loss
        return s

    def test_cubic_cuts_on_loss(self):
        fb = CubicFallback()
        assert fb.ratio(self._state(loss=1500.0), cwnd=40.0, dt=0.02) == (
            pytest.approx(CubicFallback.BETA)
        )

    def test_cubic_regrows_toward_wmax(self):
        fb = CubicFallback()
        fb.ratio(self._state(loss=1500.0), cwnd=40.0, dt=0.02)
        cwnd = 28.0  # post-cut
        ratios = [fb.ratio(self._state(), cwnd, 0.02) for _ in range(5)]
        assert all(r >= 1.0 for r in ratios)  # concave regrowth, no cut

    def test_cubic_probes_before_first_loss(self):
        fb = CubicFallback()
        r = fb.ratio(self._state(srtt=0.02), cwnd=10.0, dt=0.02)
        assert 1.0 < r <= 2.0  # slow-start flavoured doubling per RTT

    def test_aimd_halves_on_loss_and_grows_additively(self):
        fb = AimdFallback()
        assert fb.ratio(self._state(loss=1500.0), 20.0, 0.02) == pytest.approx(0.5)
        grow = fb.ratio(self._state(srtt=0.02), 20.0, 0.02)
        assert grow == pytest.approx(1.0 + 0.02 / (0.02 * 20.0))

    def test_registry(self):
        assert isinstance(make_fallback("cubic"), CubicFallback)
        assert isinstance(make_fallback("aimd"), AimdFallback)
        with pytest.raises(ValueError):
            make_fallback("bbr99")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_snapshot_shape(self):
        m = ServingMetrics()
        m.record_tick(4, 0.001, missed_deadline=False)
        m.record_tick(2, 0.003, missed_deadline=True)
        for src in ("policy", "policy", "stale", "heuristic"):
            m.record_decision(src)
        snap = m.snapshot()
        assert snap["ticks"] == 2 and snap["decisions"] == 4
        assert snap["deadline_misses"] == 1
        assert snap["batch_hist"] == {"2": 1, "4": 1}
        assert snap["sources"] == {
            "policy": 2, "symbolic": 0, "stale": 1, "heuristic": 1
        }
        assert snap["tiers"]["nn"]["decisions"] == 3
        assert snap["tiers"]["symbolic"]["decisions"] == 0
        assert snap["tiers"]["heuristic"]["decisions"] == 1
        assert snap["symbolic_hit_rate"] == 0.0
        assert snap["fallback_rate"] == pytest.approx(0.5)
        assert snap["latency_p50_ms"] == pytest.approx(2.0)

    def test_empty_metrics(self):
        snap = ServingMetrics().snapshot()
        assert snap["fallback_rate"] == 0.0
        assert snap["latency_p50_ms"] == 0.0

    def test_server_records_batch_histogram(self, policy):
        server = PolicyServer(policy, ServeConfig(tick_budget=None))
        for fid in range(3):
            server.connect(fid)
        for fid in range(3):
            server.submit(fid, np.zeros(STATE_DIM))
        server.tick()
        server.submit(0, np.zeros(STATE_DIM))
        server.tick()
        assert server.metrics.snapshot()["batch_hist"] == {"1": 1, "3": 1}


# ---------------------------------------------------------------------------
# Satellite: SageAgent as a thin serving client
# ---------------------------------------------------------------------------


class TestSageAgentClient:
    def test_act_before_reset_raises(self, policy):
        agent = SageAgent(policy)
        with pytest.raises(RuntimeError, match="before reset"):
            agent.act(np.zeros(STATE_DIM))

    def test_act_matches_legacy_inline_path(self, policy):
        """The served batch=1 path is bit-identical to the historical one."""
        fast = FastPolicy(policy)
        rng = np.random.default_rng(11)
        states = rng.standard_normal((20, STATE_DIM))
        h = fast.initial_state()
        legacy_rng = np.random.default_rng(42)
        legacy = []
        for s in states:
            r, h = fast.sample_step(normalize_state(s), h, legacy_rng)
            legacy.append(float(r))
        agent = SageAgent(policy, seed=42)
        agent.reset()
        assert [agent.act(s) for s in states] == legacy

    def test_state_mask_applied(self, policy):
        mask = np.ones(STATE_DIM)
        mask[5] = 0.0
        agent = SageAgent(policy, deterministic=True, state_mask=mask)
        agent.reset()
        base = np.zeros(STATE_DIM)
        r1 = agent.act(base)
        agent.reset()
        poked = base.copy()
        poked[5] = 100.0
        assert agent.act(poked) == pytest.approx(r1)


# ---------------------------------------------------------------------------
# Tentpole: the tiered router (symbolic tier 0 in front of the batched NN)
# ---------------------------------------------------------------------------


def make_leaf_tree(value: float, conf: float):
    """A single-leaf tree: answers ``exp(value)`` with fixed confidence."""
    from repro.distill import FEATURE_DIM
    from repro.distill.tree import RegressionTree

    return RegressionTree(
        feature=np.array([-1]), threshold=np.array([0.0]),
        left=np.array([-1]), right=np.array([-1]),
        value=np.array([value]), conf=np.array([conf]),
        n_features=FEATURE_DIM, depth=0,
    )


def make_split_tree(feature: int, threshold: float, conf_low: float,
                    conf_high: float, value: float = 0.0):
    """Depth-1 tree: rows with x[feature] <= threshold get ``conf_low``."""
    from repro.distill import FEATURE_DIM
    from repro.distill.tree import RegressionTree

    return RegressionTree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
        value=np.array([0.0, value, value]),
        conf=np.array([1.0, conf_low, conf_high]),
        n_features=FEATURE_DIM, depth=1,
    )


class TestTieredRouter:
    def _distilled(self, tree, threshold=0.5, refresh=1000):
        from repro.distill import DistilledPolicy

        return DistilledPolicy(
            tree, conf_threshold=threshold, refresh_every=refresh
        )

    def _run(self, policy, distilled, flows=6, ticks=12, seed=0, **cfg_kwargs):
        cfg = ServeConfig(
            deterministic=True, tick_budget=None, seed=seed, **cfg_kwargs
        )
        server = PolicyServer(policy, cfg, distilled=distilled)
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((ticks, flows, STATE_DIM)) * 50
        for i in range(flows):
            server.connect(i)
        stream = []
        for t in range(ticks):
            for i in range(flows):
                server.submit(i, states[t, i])
            stream.append(server.tick())
        return server, stream

    def test_nn_decisions_bitwise_identical_when_tier_disabled(self, policy):
        """Satellite: gate shut (threshold > 1) == no symbolic tier at all."""
        never_passes = self._distilled(make_leaf_tree(0.0, conf=0.9),
                                       threshold=2.0)
        _, with_tier = self._run(policy, never_passes)
        _, without = self._run(policy, None)
        for d_tier, d_none in zip(with_tier, without):
            assert set(d_tier) == set(d_none)
            for fid in d_tier:
                assert d_tier[fid].ratio == d_none[fid].ratio
                assert d_tier[fid].source == d_none[fid].source

    def test_confident_flows_answered_symbolically(self, policy):
        distilled = self._distilled(make_leaf_tree(0.1, conf=0.9))
        server, stream = self._run(policy, distilled)
        # tick 1: everyone takes the NN (ages start at the refresh wall's
        # worth of history only after the first forward)... the leaf gate
        # passes from the first tick, so all decisions are symbolic
        for decisions in stream:
            for d in decisions.values():
                assert d.source == "symbolic"
                assert d.ratio == pytest.approx(np.exp(0.1))
        snap = server.metrics.snapshot()
        assert snap["symbolic_hit_rate"] == 1.0
        assert snap["tiers"]["nn"]["decisions"] == 0

    def test_uncertainty_gate_property(self, policy):
        """A flow whose leaf confidence is below threshold never gets a
        tree answer — it always pays the NN forward."""
        # split on the first *state* feature, so each flow's leaf (and
        # therefore its confidence) is computable from the submitted state
        tree = make_split_tree(0, 0.0, conf_low=0.2, conf_high=0.95)
        distilled = self._distilled(tree, threshold=0.5)
        cfg = ServeConfig(deterministic=True, tick_budget=None, seed=0)
        server = PolicyServer(policy, cfg, distilled=distilled)
        rng = np.random.default_rng(0)
        flows, ticks = 8, 20
        states = rng.standard_normal((ticks, flows, STATE_DIM)) * 50
        for i in range(flows):
            server.connect(i)
        saw_low, saw_sym = 0, 0
        for t in range(ticks):
            for i in range(flows):
                server.submit(i, states[t, i])
            decisions = server.tick()
            for i, d in decisions.items():
                below = normalize_state(states[t, i])[0] <= 0.0
                if below:
                    saw_low += 1
                    assert d.source != "symbolic", (
                        f"below-threshold flow {i} answered by the tree "
                        f"at tick {t}"
                    )
                if d.source == "symbolic":
                    saw_sym += 1
                    assert not below
        # the property must actually have been exercised from both sides
        assert saw_low > 0 and saw_sym > 0

    def test_refresh_forces_periodic_nn_forward(self, policy):
        """Even an always-confident tree yields to the NN every R ticks."""
        refresh = 4
        distilled = self._distilled(make_leaf_tree(0.0, conf=0.99),
                                    refresh=refresh)
        _, stream = self._run(policy, distilled, flows=3, ticks=12)
        for fid in range(3):
            sources = [ds[fid].source for ds in stream]
            for start in range(0, 12, refresh):
                window = sources[start : start + refresh]
                assert "policy" in window, (
                    f"flow {fid} went {refresh} ticks without an NN refresh: "
                    f"{sources}"
                )

    def test_symbolic_answers_advance_cwnd_estimate(self, policy):
        """Tier-0 ratio commits update the fallback's cwnd estimate."""
        distilled = self._distilled(make_leaf_tree(0.2, conf=0.9))
        cfg = ServeConfig(deterministic=True, tick_budget=None)
        server = PolicyServer(policy, cfg, distilled=distilled)
        server.connect(0)
        server.submit(0, np.zeros(STATE_DIM), cwnd=100.0)
        server.tick()
        row = server._sessions[0].row
        assert server._cwnd_est[row] == pytest.approx(100.0 * np.exp(0.2))

    def test_metrics_tier_accounting(self, policy):
        distilled = self._distilled(make_leaf_tree(0.0, conf=0.9),
                                    refresh=4)
        server, stream = self._run(policy, distilled, flows=4, ticks=8)
        snap = server.metrics.snapshot()
        assert snap["decisions"] == 32
        tiers = snap["tiers"]
        assert tiers["symbolic"]["decisions"] + tiers["nn"]["decisions"] == 32
        assert tiers["symbolic"]["decisions"] > 0
        assert tiers["nn"]["decisions"] > 0  # refresh forwards
        assert snap["invalid_actions"] == 0
        # symbolic tier records its own latency samples
        assert tiers["symbolic"]["latency_p50_ms"] >= 0.0

    def test_served_agent_accepts_distilled(self, policy):
        from repro.serve.client import ServedAgent

        distilled = self._distilled(make_leaf_tree(0.05, conf=0.9))
        agent = ServedAgent(policy, deterministic=True, distilled=distilled)
        agent.reset()
        ratio = agent.act(np.zeros(STATE_DIM))
        assert ratio == pytest.approx(np.exp(0.05))
        assert agent.server.distilled is distilled

    def test_non_finite_symbolic_ratio_goes_to_nn(self, policy):
        """A poisoned tree value must never be served; the NN answers."""
        distilled = self._distilled(make_leaf_tree(np.nan, conf=0.99))
        _, stream = self._run(policy, distilled, flows=3, ticks=4)
        for ds in stream:
            for d in ds.values():
                assert d.source == "policy"
                assert np.isfinite(d.ratio)

    def test_config_overrides_beat_distilled_defaults(self, policy):
        distilled = self._distilled(make_leaf_tree(0.0, conf=0.6),
                                    threshold=0.5, refresh=1000)
        # override: impossible threshold -> no symbolic answers at all
        server, stream = self._run(
            policy, distilled, confidence_threshold=0.99
        )
        assert server.metrics.snapshot()["symbolic_hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# Decision-stream goldens: every (tick, flow) ratio and source, digested
# ---------------------------------------------------------------------------

GOLDEN_FLOWS = 9
GOLDEN_TICKS = 80


def golden_tree():
    """A depth-3 tree that reads both state and hidden-summary features.

    The splits sit inside the ranges ``TINY``'s hidden rows and the golden
    states actually take, so flows change leaves as their hidden state
    evolves; two leaves fall below the 0.5 gate.
    """
    from repro.distill import FEATURE_DIM
    from repro.distill.tree import RegressionTree

    h_mean, h_std, h_posfrac = 69, 70, 75
    return RegressionTree(
        feature=np.array([h_mean, 0, h_posfrac, h_std, -1, -1, 3,
                          -1, -1, -1, -1]),
        threshold=np.array([-0.1, 2.0, 0.45, 0.82, 0.0, 0.0, 0.5,
                            0.0, 0.0, 0.0, 0.0]),
        left=np.array([1, 3, 5, 7, -1, -1, 9, -1, -1, -1, -1]),
        right=np.array([2, 4, 6, 8, -1, -1, 10, -1, -1, -1, -1]),
        value=np.array([0.0, 0.0, 0.0, 0.0, -0.08, 0.05, 0.0,
                        0.12, -0.03, 0.2, -0.15]),
        conf=np.array([1.0, 1.0, 1.0, 1.0, 0.3, 0.9, 1.0,
                       0.8, 0.7, 0.4, 0.95]),
        n_features=FEATURE_DIM, depth=3,
    )


def decision_stream(tiered: bool, deterministic: bool):
    """Drive one server through the golden schedule; yield every decision.

    The schedule grows the table twice (once with live hidden rows),
    closes and re-connects a flow onto a recycled row, leaves one flow out
    of every odd tick, and — on the tiered server — unmounts the tree for
    twelve ticks and mounts it again.
    """
    from repro.distill import DistilledPolicy

    policy = SagePolicy(TINY, np.random.default_rng(0))
    distilled = DistilledPolicy(golden_tree(), conf_threshold=0.5,
                                refresh_every=6)
    cfg = ServeConfig(deterministic=deterministic, tick_budget=None, seed=3,
                      initial_capacity=4)
    server = PolicyServer(policy, cfg, distilled=distilled if tiered else None)
    rng = np.random.default_rng(11)
    states = np.abs(rng.standard_normal((GOLDEN_TICKS, GOLDEN_FLOWS, STATE_DIM)))
    live = list(range(6))
    for fid in live:
        server.connect(fid)
    for t in range(GOLDEN_TICKS):
        if t == 12:
            for fid in (6, 7, 8):
                server.connect(fid)
                live.append(fid)
        if t == 25:
            server.close(2)
            live.remove(2)
        if t == 31:
            server.connect(2)
            live.append(2)
        if tiered and t == 40:
            server.mount_distilled(None)
        if tiered and t == 52:
            server.mount_distilled(distilled)
        for fid in live:
            if fid == 7 and t % 2:
                continue
            server.submit(fid, states[t, fid], cwnd=20.0 if fid % 3 else None)
        for fid, d in sorted(server.tick().items()):
            yield t, fid, d.ratio, d.source


def decision_stream_digest(tiered: bool, deterministic: bool) -> str:
    h = hashlib.sha256()
    for t, fid, ratio, source in decision_stream(tiered, deterministic):
        h.update(f"{t} {fid} {float(ratio).hex()} {source}\n".encode())
    return h.hexdigest()[:16]


#: (tiered, deterministic) -> SHA-256 prefix of the decision stream. To
#: re-record after an *intended* change, run this file as a script
#: (``PYTHONPATH=src python tests/test_serve.py``) and paste its output.
GOLDEN_STREAMS = {(False, False): 'e62655ec9190b4f5',
                  (False, True): 'd4b30afb9ff67633',
                  (True, False): '0b56610da33ad96f',
                  (True, True): '9346cccfbc3fce40'}

STREAM_CASES = [(tiered, det) for tiered in (True, False) for det in (True, False)]


class TestDecisionStreamGolden:
    @pytest.mark.parametrize("tiered,deterministic", STREAM_CASES)
    def test_decision_stream_golden(self, tiered, deterministic):
        got = decision_stream_digest(tiered, deterministic)
        assert got == GOLDEN_STREAMS[(tiered, deterministic)]

    def test_golden_schedule_exercises_every_tier(self):
        """The tiered schedule is only a golden if it reaches every path:
        symbolic answers, NN refreshes, below-gate flows and the unmounted
        stretch all show up in the stream."""
        sources = {}
        for t, fid, _ratio, source in decision_stream(True, True):
            sources.setdefault(source, set()).add(t)
        assert {"symbolic", "policy"} <= set(sources)
        unmounted = set(range(40, 52))
        assert not sources["symbolic"] & unmounted
        # some NN answers come from the gate, not only from refreshes
        mounted_nn = sources["policy"] - unmounted
        assert len(mounted_nn) > GOLDEN_TICKS // 6


# ---------------------------------------------------------------------------
# The per-row hidden-summary cache behind tier 0
# ---------------------------------------------------------------------------


class TestSummaryCache:
    def test_nn_only_server_computes_no_hidden_summary(self, policy,
                                                        monkeypatch):
        import repro.distill.model as model

        calls = []
        real = model.hidden_summary

        def counted(h, n):
            calls.append(n)
            return real(h, n)

        monkeypatch.setattr(model, "hidden_summary", counted)
        for deterministic in (True, False):
            cfg = ServeConfig(deterministic=deterministic, tick_budget=None,
                              initial_capacity=2)
            server = PolicyServer(policy, cfg)
            states = np.abs(np.random.default_rng(1).standard_normal(
                (6, 5, STATE_DIM)))
            for fid in range(5):
                server.connect(fid)
            for t in range(6):
                for fid in range(5):
                    server.submit(fid, states[t, fid])
                server.tick()
            server.close(3)
            server.connect(3)
            assert server._hsum.shape == (server.capacity, 0)
        assert calls == []
        # ...while the tiered server does compute them (the counter works)
        from repro.distill import DistilledPolicy

        tiered = PolicyServer(
            policy, ServeConfig(deterministic=True, tick_budget=None),
            distilled=DistilledPolicy(golden_tree(), conf_threshold=0.5),
        )
        tiered.connect(0)
        tiered.submit(0, np.ones(STATE_DIM))
        tiered.tick()
        assert calls

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=st.lists(
        st.sampled_from(["connect", "close", "tick", "tick", "tick",
                         "mount", "unmount", "restore"]),
        min_size=1, max_size=40,
    ), seed=st.integers(0, 2**16))
    def test_cached_summary_tracks_hidden_table(self, policy, ops, seed):
        """After any sequence of lifecycle operations, every live row's
        cached summary is bitwise ``hidden_summary`` of its hidden row."""
        import tempfile

        from repro.distill import DistilledPolicy, hidden_summary

        distilled = DistilledPolicy(golden_tree(), conf_threshold=0.5,
                                    refresh_every=3)
        cfg = ServeConfig(deterministic=True, tick_budget=None,
                          initial_capacity=2)
        server = PolicyServer(policy, cfg, distilled=distilled)
        rng = np.random.default_rng(seed)
        next_id = 0
        with tempfile.TemporaryDirectory() as tmp:
            snap = f"{tmp}/snap.npz"
            for op in ops:
                live = sorted(server._sessions)
                if op == "connect":  # past capacity 2, this grows the table
                    server.connect(next_id)
                    next_id += 1
                elif op == "close" and live:
                    server.close(int(rng.choice(live)))
                elif op == "tick":
                    for fid in live:
                        if rng.random() < 0.8:
                            server.submit(fid, np.abs(
                                rng.standard_normal(STATE_DIM)))
                    server.tick()
                elif op == "mount":
                    server.mount_distilled(distilled)
                elif op == "unmount":
                    server.mount_distilled(None)
                elif op == "restore":
                    server.snapshot(snap)
                    server.connect(next_id)  # state the restore must drop
                    next_id += 1
                    server.restore(snap)
        assert len(server._hsum) == server.capacity
        if server.distilled is None:
            return
        for sess in server._sessions.values():
            want = hidden_summary(server._table[sess.row], 1)[0]
            got = server._hsum[sess.row]
            assert [v.hex() for v in got] == [v.hex() for v in want]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    import pprint

    print("GOLDEN_STREAMS = " + pprint.pformat(
        {c: decision_stream_digest(*c) for c in STREAM_CASES}, width=79
    ))
