"""The deterministic fault-injection layer (repro.chaos) and its defenses.

The contract under test, subsystem by subsystem:

- **Plans** are pure functions of their seed (same seed -> same faults)
  and round-trip through JSON;
- the **injector** dispenses each fault exactly once, so retries replay
  clean;
- the **collector** recovers injected worker crashes and hangs, and its
  retries re-seed so recovered results are bit-identical to fault-free;
- the **datastore** audit catches injected bit-flips / truncations;
- the **training guard** detects non-finite metrics, loss spikes, and
  step failures, rolls back bit-exactly, and caps the restart budget;
- the **serving engine** never lets a non-finite policy output reach a
  sender (heuristic fallback + invalid-action accounting).
"""

import warnings

import numpy as np
import pytest

from repro.chaos import (
    DEFAULT_PARAMS,
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.collector.gr_unit import STATE_DIM
from repro.collector.parallel import run_tasks
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig, SagePolicy
from repro.datastore.manifest import verify_store
from repro.datastore.writer import ShardWriter
from repro.serve.engine import PolicyServer, ServeConfig
from repro.train.engine import FastCRRTrainer
from repro.train.guard import (
    DivergenceGuard,
    GuardConfig,
    TrainingDiverged,
)

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


# ---------------------------------------------------------------------------
# FaultPlan: determinism + serialization
# ---------------------------------------------------------------------------


class TestFaultPlan:
    COUNTS = {
        "collector.crash": 1,
        "collector.hang": 1,
        "datastore.bitflip": 1,
        "train.nan": 2,
    }

    def test_same_seed_same_faults(self):
        a = FaultPlan.generate(seed=11, counts=self.COUNTS)
        b = FaultPlan.generate(seed=11, counts=self.COUNTS)
        assert a == b
        assert [f.to_json() for f in a.faults] == [
            f.to_json() for f in b.faults
        ]

    def test_different_seed_different_plan(self):
        plans = {
            tuple(
                (f.site, f.target)
                for f in FaultPlan.generate(seed=s, counts=self.COUNTS).faults
            )
            for s in range(8)
        }
        assert len(plans) > 1

    def test_targets_distinct_within_subsystem(self):
        plan = FaultPlan.generate(
            seed=5,
            counts={"collector.crash": 3, "collector.hang": 3},
            universes={"collector": 6},
        )
        targets = [f.target for f in plan.faults]
        assert sorted(set(targets)) == sorted(targets)
        assert all(0 <= t < 6 for t in targets)

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan.generate(seed=9, counts=self.COUNTS)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.generate(seed=0, counts={"collector.meteor": 1})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope.nope", target=0)

    def test_universe_overflow_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            FaultPlan.generate(
                seed=0,
                counts={"collector.crash": 5},
                universes={"collector": 4},
            )

    def test_default_params_applied(self):
        plan = FaultPlan.generate(seed=1, counts={"collector.hang": 1})
        assert plan.faults[0].param == DEFAULT_PARAMS["collector.hang"]

    def test_every_site_documented(self):
        plan = FaultPlan.generate(seed=2, counts={s: 1 for s in SITES})
        assert {f.site for f in plan.faults} == set(SITES)


class TestFaultInjector:
    def test_one_shot(self):
        plan = FaultPlan(seed=0, faults=[FaultSpec("train.nan", target=3)])
        inj = FaultInjector(plan)
        assert not inj.exhausted
        spec = inj.take("train.nan", 3, detail="batch 3")
        assert spec is not None and spec.target == 3
        assert inj.take("train.nan", 3) is None  # replay runs clean
        assert inj.exhausted
        assert [f.site for f in inj.fired] == ["train.nan"]

    def test_wrong_target_does_not_fire(self):
        inj = FaultInjector(
            FaultPlan(seed=0, faults=[FaultSpec("serve.nan", target=5)])
        )
        assert inj.take("serve.nan", 4) is None
        assert inj.pending("serve.nan")


# ---------------------------------------------------------------------------
# Collector: crash / hang recovery + retry determinism
# ---------------------------------------------------------------------------


class _SeededTask:
    """Minimal task: run_tasks only needs a ``seed`` attribute."""

    def __init__(self, seed):
        self.seed = seed


def _draw(task):
    # consumes the global generator: only correct if every attempt re-seeds
    return float(np.random.random())


class TestCollectorChaos:
    def _plan(self, **counts):
        return FaultInjector(
            FaultPlan.generate(
                seed=4, counts=counts, universes={"collector": 6}
            )
        )

    def test_serial_crash_recovered_and_bit_identical(self):
        tasks = [_SeededTask(100 + i) for i in range(6)]
        clean, r0 = run_tasks(tasks, _draw, workers=1)
        chaos = self._plan(**{"collector.crash": 1})
        faulty, report = run_tasks(tasks, _draw, workers=1, chaos=chaos)
        assert faulty == clean
        assert not report.failures
        assert report.n_crashes == 1
        assert any(e["kind"] == "crash" for e in report.events)
        assert chaos.exhausted

    def test_serial_hang_skipped_but_logged(self):
        tasks = [_SeededTask(i) for i in range(6)]
        chaos = self._plan(**{"collector.hang": 1})
        results, report = run_tasks(tasks, _draw, workers=1, chaos=chaos)
        assert len(results) == 6
        assert any(e["kind"] == "hang" for e in report.events)

    def test_pool_crash_and_hang_recovered(self):
        tasks = [_SeededTask(7 + i) for i in range(6)]
        clean, _ = run_tasks(tasks, _draw, workers=1)
        chaos = FaultInjector(
            FaultPlan(
                seed=0,
                faults=[
                    FaultSpec("collector.crash", target=1),
                    FaultSpec("collector.hang", target=4, param=30.0),
                ],
            )
        )
        faulty, report = run_tasks(
            tasks,
            _draw,
            workers=2,
            chunksize=1,
            max_task_seconds=1.0,
            max_rounds=3,
            chaos=chaos,
        )
        assert faulty == clean
        assert not report.failures
        assert report.n_crashes >= 1
        # the crash breaks the whole pool round, so the hung task is
        # re-dispatched with everything else — both faults are masked
        assert any(e["kind"] == "crash" for e in report.events)

    def test_pool_hang_tripped_by_watchdog(self):
        tasks = [_SeededTask(50 + i) for i in range(4)]
        clean, _ = run_tasks(tasks, _draw, workers=1)
        chaos = FaultInjector(
            FaultPlan(
                seed=0,
                faults=[FaultSpec("collector.hang", target=2, param=30.0)],
            )
        )
        faulty, report = run_tasks(
            tasks,
            _draw,
            workers=2,
            chunksize=1,
            max_task_seconds=0.8,
            max_rounds=3,
            chaos=chaos,
        )
        assert faulty == clean
        assert not report.failures
        assert report.n_timeouts >= 1
        assert any(e["kind"] == "timeout" for e in report.events)


# ---------------------------------------------------------------------------
# Datastore: injected corruption is exactly what the audit catches
# ---------------------------------------------------------------------------


def _tiny_traj(i, length=8):
    rng = np.random.default_rng(i)
    return Trajectory(
        scheme="cubic",
        env_id=f"env-{i}",
        multi_flow=False,
        states=rng.standard_normal((length, 4)),
        actions=rng.uniform(0.5, 2.0, size=length),
        rewards=rng.standard_normal(length),
    )


class TestDatastoreChaos:
    def _write(self, root, chaos):
        with ShardWriter(root, shard_bytes=1, chaos=chaos) as w:
            for i in range(3):  # shard_bytes=1 -> one shard per trajectory
                w.add(_tiny_traj(i))

    def test_bitflip_caught_and_quarantined(self, tmp_path):
        chaos = FaultInjector(
            FaultPlan(seed=0, faults=[FaultSpec("datastore.bitflip", 1)])
        )
        self._write(tmp_path / "store", chaos)
        assert chaos.exhausted
        report = verify_store(tmp_path / "store", quarantine=True)
        assert report.quarantined == ["shard-00001"]
        assert report.dropped_trajectories == 1
        assert verify_store(tmp_path / "store", quarantine=False).clean

    def test_truncation_caught(self, tmp_path):
        chaos = FaultInjector(
            FaultPlan(
                seed=0,
                faults=[FaultSpec("datastore.truncate", 0, param=16.0)],
            )
        )
        self._write(tmp_path / "store", chaos)
        report = verify_store(tmp_path / "store", quarantine=True)
        assert report.quarantined == ["shard-00000"]

    def test_no_chaos_store_is_clean(self, tmp_path):
        self._write(tmp_path / "store", None)
        assert verify_store(tmp_path / "store", quarantine=False).clean


# ---------------------------------------------------------------------------
# DivergenceGuard: detection, budget, bit-exact rollback
# ---------------------------------------------------------------------------


class TestDivergenceGuard:
    def test_non_finite_detected(self):
        guard = DivergenceGuard(GuardConfig())
        ev = guard.check(0, {"critic_loss": float("nan"), "policy_loss": 0.1})
        assert ev is not None and ev.reason == "non-finite"
        assert guard.rollbacks_used == 1

    def test_spike_detected_after_warmup(self):
        guard = DivergenceGuard(GuardConfig(spike_factor=10.0, warmup_steps=3))
        for step in range(4):
            assert guard.check(
                step, {"critic_loss": 1.0, "policy_loss": 1.0}
            ) is None
        ev = guard.check(4, {"critic_loss": 100.0, "policy_loss": 1.0})
        assert ev is not None and ev.reason == "loss-spike"

    def test_spike_unarmed_during_warmup(self):
        guard = DivergenceGuard(GuardConfig(spike_factor=10.0, warmup_steps=5))
        guard.check(0, {"critic_loss": 1.0, "policy_loss": 1.0})
        assert guard.check(
            1, {"critic_loss": 100.0, "policy_loss": 1.0}
        ) is None

    def test_budget_exhaustion_raises(self):
        guard = DivergenceGuard(GuardConfig(max_rollbacks=2))
        bad = {"critic_loss": float("inf"), "policy_loss": 0.0}
        guard.check(0, bad)
        guard.check(1, bad)
        with pytest.raises(TrainingDiverged) as err:
            guard.check(2, bad)
        assert len(err.value.events) == 3

    def test_step_failure_spends_same_budget(self):
        guard = DivergenceGuard(GuardConfig(max_rollbacks=1))
        ev = guard.record_failure(3, "ValueError: NaN in projection")
        assert ev.reason == "step-failure"
        with pytest.raises(TrainingDiverged):
            guard.record_failure(3, "again")


def _synthetic_pool(seed=0, n_traj=6, length=24):
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(n_traj):
        actions = rng.uniform(0.6, 1.8, size=length)
        trajs.append(
            Trajectory(
                scheme=f"s{i}", env_id=f"e{i}", multi_flow=False,
                states=rng.standard_normal((length, STATE_DIM)) * 0.1,
                actions=actions,
                rewards=np.exp(-10.0 * (actions - 1.1) ** 2),
            )
        )
    return PolicyPool(trajs)


class TestTrainChaos:
    CFG = CRRConfig(batch_size=4, seq_len=4, m_samples=2)

    def _trainer(self, chaos=None):
        return FastCRRTrainer(
            _synthetic_pool(), net_config=TINY, config=self.CFG, seed=3,
            chaos=chaos,
        )

    def test_nan_batch_rolled_back_bit_identical(self):
        # the NaN batch is refused before any math touches it: no numpy
        # RuntimeWarning, and the guard names it for what it is
        clean = self._trainer()
        clean.train(8)
        chaos = FaultInjector(
            FaultPlan(seed=0, faults=[FaultSpec("train.nan", target=4)])
        )
        guard = DivergenceGuard(GuardConfig())
        faulty = self._trainer(chaos=chaos)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            faulty.train(8, guard=guard)
        assert chaos.exhausted
        assert guard.rollbacks_used == 1
        assert guard.events[0].reason == "non-finite"
        assert "batch 4" in guard.events[0].detail
        a, b = clean._state_payload(), faulty._state_payload()
        assert set(a) == set(b)
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_nan_batch_without_guard_names_the_batch(self):
        chaos = FaultInjector(
            FaultPlan(seed=0, faults=[FaultSpec("train.nan", target=2)])
        )
        trainer = self._trainer(chaos=chaos)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                FloatingPointError, match="batch 2 has non-finite rewards"
            ):
                trainer.train(4)
        assert trainer.steps_done == 2

    def test_non_finite_bellman_targets_refused(self):
        # a diverged target critic: finite batch, NaN target distribution
        trainer = self._trainer()
        trainer.train(1)
        name, param = next(iter(trainer.target_critic.named_parameters()))
        param.data = np.full_like(param.data, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(
                FloatingPointError, match="batch 1: .*Bellman target"
            ):
                trainer.train_step()

    def test_spike_batch_absorbed_without_divergence(self):
        # Every batch input is sanitized on entry (log_action clips ratios,
        # the C51 projection clamps rewards to the atom support, LayerNorm
        # absorbs state scaling), so a *finite* mis-scaled batch is
        # gracefully absorbed: training completes, metrics stay finite, and
        # the guard never needs to spend budget.
        chaos = FaultInjector(
            FaultPlan(
                seed=0, faults=[FaultSpec("train.spike", target=7, param=1e6)]
            )
        )
        guard = DivergenceGuard(GuardConfig())
        trainer = self._trainer(chaos=chaos)
        with np.errstate(invalid="ignore", over="ignore"):
            metrics = trainer.train(10, guard=guard)
        assert chaos.exhausted
        assert guard.rollbacks_used == 0
        assert all(np.isfinite(v) for v in metrics.values())

    def test_loss_spike_metric_rolled_back_bit_identical(self):
        # The metric-level rollback path: a step whose *reported* loss
        # spikes is undone bit-exactly, independent of what poisoned it.
        clean = self._trainer()
        clean.train(8)
        guard = DivergenceGuard(GuardConfig(spike_factor=50.0, warmup_steps=2))
        faulty = self._trainer()
        real_step = faulty.train_step
        calls = [0]

        def spiky_step():
            metrics = real_step()
            if calls[0] == 4:
                metrics = dict(
                    metrics, critic_loss=metrics["critic_loss"] * 1e6
                )
            calls[0] += 1
            return metrics

        faulty.train_step = spiky_step
        faulty.train(8, guard=guard)
        assert guard.rollbacks_used == 1
        assert guard.events[0].reason == "loss-spike"
        a, b = clean._state_payload(), faulty._state_payload()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_checkpoint_crc_rejects_corruption(self, tmp_path):
        trainer = self._trainer()
        trainer.train(2)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        fresh = self._trainer()
        fresh.load_checkpoint(path)  # valid round-trip
        assert fresh.steps_done == 2
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="integrity"):
            self._trainer().load_checkpoint(path)


# ---------------------------------------------------------------------------
# Serving: non-finite outputs never reach a sender
# ---------------------------------------------------------------------------


class TestServeChaos:
    def _server(self, chaos):
        policy = SagePolicy(TINY, np.random.default_rng(0))
        cfg = ServeConfig(deterministic=True, tick_budget=None)
        return PolicyServer(policy, cfg, chaos=chaos)

    def test_nan_tick_served_by_fallback(self):
        chaos = FaultInjector(
            FaultPlan(seed=0, faults=[FaultSpec("serve.nan", target=1)])
        )
        server = self._server(chaos)
        server.connect(0)
        state = np.zeros(STATE_DIM)
        first = server.serve_one(0, state, cwnd=10.0)
        assert first.source == "policy"
        hidden_before = server._table[server._sessions[0].row].copy()
        poisoned = server.serve_one(0, state, cwnd=10.0)
        assert poisoned.source == "heuristic"
        assert np.isfinite(poisoned.ratio)
        assert server.metrics.invalid_actions == 1
        # the poisoned hidden state must not contaminate recurrent memory
        np.testing.assert_array_equal(
            server._table[server._sessions[0].row], hidden_before
        )
        recovered = server.serve_one(0, state, cwnd=10.0)
        assert recovered.source == "policy"

    def test_slow_tick_counts_deadline_miss(self):
        chaos = FaultInjector(
            FaultPlan(
                seed=0, faults=[FaultSpec("serve.slow", target=0, param=0.03)]
            )
        )
        policy = SagePolicy(TINY, np.random.default_rng(0))
        server = PolicyServer(
            policy,
            ServeConfig(deterministic=True, tick_budget=0.010),
            chaos=chaos,
        )
        server.connect(0)
        decision = server.serve_one(0, np.zeros(STATE_DIM))
        assert decision.source == "stale"  # first miss: hold previous ratio
        assert server.metrics.deadline_misses == 1
        assert chaos.exhausted
