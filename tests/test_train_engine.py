"""Tests for the fused training engine (repro.train).

The load-bearing guarantee: with the same seed, the fused
:class:`FastCRRTrainer` consumes the *identical RNG stream* as the
per-timestep oracle :class:`~tests.crr_oracle.CRRTrainer` and its metric
trajectories match within the pinned float tolerance (the fused path reorders float summations — BLAS
blocking on the larger matmuls, GRU gate-weight splitting — but changes
no math and no random draws).
"""

import numpy as np
import pytest

from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.train.engine import FastCRRTrainer
from tests.crr_oracle import CRRTrainer

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)
METRICS = ("critic_loss", "policy_loss", "mean_f")
#: Max per-step relative difference allowed between the engines' metric
#: trajectories (same seed). Float drift is summation-order
#: rounding only, so even accumulated over tens of steps it stays orders
#: of magnitude below this.
EQUIVALENCE_RTOL = 1e-6


def synthetic_pool(rng, n_traj=6, length=24, good_action=1.1):
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


def make_pair(seed=0, cfg=None, net=TINY, **fast_kw):
    pool = synthetic_pool(np.random.default_rng(seed))
    cfg = cfg if cfg is not None else CRRConfig(batch_size=4, seq_len=4)
    legacy = CRRTrainer(pool, net_config=net, config=cfg, seed=seed)
    fast = FastCRRTrainer(pool, net_config=net, config=cfg, seed=seed, **fast_kw)
    return legacy, fast


class TestEquivalence:
    """Fused vs reference: same seed, pinned tolerance."""

    def test_single_step_tight(self):
        legacy, fast = make_pair(seed=3)
        m0, m1 = legacy.train_step(), fast.train_step()
        for k in METRICS:
            assert m1[k] == pytest.approx(m0[k], rel=1e-9, abs=1e-12), k

    @pytest.mark.parametrize("filter_type", ["exp", "binary"])
    def test_trajectory_within_pinned_tolerance(self, filter_type):
        cfg = CRRConfig(batch_size=4, seq_len=4, filter_type=filter_type)
        legacy, fast = make_pair(seed=1, cfg=cfg)
        for step in range(12):
            m0, m1 = legacy.train_step(), fast.train_step()
            for k in METRICS:
                rel = abs(m0[k] - m1[k]) / (abs(m0[k]) + 1e-12)
                assert rel <= EQUIVALENCE_RTOL, (step, k, m0[k], m1[k])

    def test_rng_streams_bit_identical(self):
        # Every draw (pool sampling, target actions, the t-major m_samples
        # filter draws) must happen in the legacy order on the same
        # generator — the whole stream, not just the final state.
        legacy, fast = make_pair(seed=2)
        for step in range(6):
            legacy.train_step()
            fast.train_step()
            assert (
                legacy.rng.bit_generator.state == fast.rng.bit_generator.state
            ), f"RNG stream diverged at step {step}"

    def test_weights_track_legacy(self):
        legacy, fast = make_pair(seed=5)
        legacy.train(5)
        fast.train(5)
        p0 = legacy.policy.state_dict()
        p1 = fast.policy.state_dict()
        for k in p0:
            np.testing.assert_allclose(p1[k], p0[k], rtol=1e-6, atol=1e-9)

    def test_ablation_configs_equivalent(self):
        from dataclasses import replace

        for flag in ("use_gru", "use_post_encoder", "use_gmm"):
            net = replace(TINY, **{flag: False})
            legacy, fast = make_pair(seed=6, net=net)
            m0, m1 = legacy.train_step(), fast.train_step()
            for k in METRICS:
                assert m1[k] == pytest.approx(m0[k], rel=1e-7, abs=1e-10), (
                    flag, k,
                )


class TestEngine:
    def _fast(self, seed=0, **kw):
        pool = synthetic_pool(np.random.default_rng(seed))
        cfg = CRRConfig(batch_size=4, seq_len=4)
        return FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=seed, **kw)

    def test_timing_summary_phases(self):
        t = self._fast()
        t.train(2)
        timing = t.timing_summary()
        for phase in ("sample", "targets", "critic", "filter", "policy", "update"):
            assert timing[phase] >= 0.0
        assert timing["steps_per_s"] > 0

    def test_checkpoint_resume_continues_identically(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        pool = synthetic_pool(np.random.default_rng(4))
        cfg = CRRConfig(batch_size=4, seq_len=4)
        t1 = FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=4)
        t1.train(5)
        t1.save_checkpoint(path)
        cont = [t1.train_step() for _ in range(4)]

        # different seed: every weight, Adam moment, and RNG state differs
        # until the checkpoint overwrites them (the pool is the same — a
        # resumed run trains on the same data).
        t2 = FastCRRTrainer(pool, net_config=TINY, config=cfg, seed=99)
        t2.load_checkpoint(path)
        assert t2.steps_done == 5
        resumed = [t2.train_step() for _ in range(4)]
        # bitwise identical: same weights, same Adam state, same RNG stream
        for a, b in zip(cont, resumed):
            for k in METRICS:
                assert a[k] == b[k], k

    def test_periodic_checkpoint_written(self, tmp_path):
        path = tmp_path / "periodic.npz"
        t = self._fast()
        t.train(4, checkpoint_every=2, checkpoint_path=str(path))
        assert path.exists()
        with pytest.raises(ValueError):
            t.train(1, checkpoint_every=2)

    def test_train_sage_on_pool_engines(self):
        from repro.core.training import train_sage_on_pool

        pool = synthetic_pool(np.random.default_rng(8))
        cfg = CRRConfig(batch_size=4, seq_len=4)
        run_fast = train_sage_on_pool(
            pool, n_steps=4, n_checkpoints=2, net_config=TINY, crr_config=cfg
        )
        assert isinstance(run_fast.trainer, FastCRRTrainer)
        reference = CRRTrainer(pool, net_config=TINY, config=cfg, seed=0)
        reference.train(4)
        # same seed: the pipeline ends at the reference's weights
        p0 = reference.policy.state_dict()
        p1 = run_fast.trainer.policy.state_dict()
        for k in p0:
            np.testing.assert_allclose(p1[k], p0[k], rtol=1e-6, atol=1e-9)


class TestBench:
    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["train", "--pool", "p.npz"])
        assert args.pool == "p.npz"
        # one engine: neither an engine choice nor gradient workers exist
        for flag in (["--engine", "fast"], ["--grad-workers", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["train", "--pool", "p.npz", *flag])
            with pytest.raises(SystemExit):
                parser.parse_args(["pipeline", "run", "--workdir", "r/", *flag])


class TestCheckpointLayout:
    """``meta/grad_workers`` / ``meta/grad_grains``: the worker layout an
    older revision's data-parallel engine recorded. The engine writes them
    as zeros (the single-process layout), so checkpoint bytes are unchanged,
    and refuses any other layout."""

    @staticmethod
    def _trainer(pool, seed):
        return FastCRRTrainer(
            pool, net_config=TINY, config=CRRConfig(batch_size=4, seq_len=4),
            seed=seed,
        )

    def _trained(self):
        pool = synthetic_pool(np.random.default_rng(5))
        t = self._trainer(pool, seed=0)
        t.train(1)
        return pool, t

    def test_layout_keys_are_constant_zeros(self):
        _, t = self._trained()
        payload = t._state_payload()
        for key in ("meta/grad_workers", "meta/grad_grains"):
            assert payload[key].dtype == np.int64
            assert payload[key].tolist() == [0]

    def test_pre_layout_checkpoints_still_load(self, tmp_path):
        # checkpoints written before the layout keys existed load as
        # single-process (missing keys mean layout (0, 0))
        pool, a = self._trained()
        payload = {
            k: v for k, v in a._state_payload().items()
            if not k.startswith("meta/grad_")
        }
        ckpt = tmp_path / "old.npz"
        np.savez_compressed(ckpt, **payload)
        b = self._trainer(pool, seed=9)
        b.load_checkpoint(ckpt)
        assert b.steps_done == 1

    def test_data_parallel_checkpoint_refused(self, tmp_path):
        from repro.persist import write_npz_atomic

        pool, a = self._trained()
        payload = a._state_payload()
        payload["meta/grad_workers"] = np.array([2], dtype=np.int64)
        payload["meta/grad_grains"] = np.array([4], dtype=np.int64)
        ckpt = tmp_path / "parallel.npz"
        write_npz_atomic(ckpt, payload)
        b = self._trainer(pool, seed=9)
        before = b.capture_state()
        with pytest.raises(ValueError, match="data-parallel run") as exc:
            b.load_checkpoint(ckpt)
        assert "meta/grad_workers=2" in str(exc.value)
        after = b.capture_state()
        for key in before:
            assert after[key].tobytes() == before[key].tobytes(), key


class TestPools:
    def test_sharded_store_trains_identically_to_in_memory(self, tmp_path):
        from repro.datastore.convert import pack_pool
        from repro.datastore.reader import ShardedPool

        pool = synthetic_pool(np.random.default_rng(6))
        pack_pool(pool, tmp_path / "store")
        sharded = ShardedPool.open(tmp_path / "store")
        cfg = CRRConfig(batch_size=4, seq_len=4)
        try:
            runs = []
            for p in (pool, sharded):
                t = FastCRRTrainer(p, net_config=TINY, config=cfg, seed=0)
                t.train(4)
                runs.append(t.capture_state())
        finally:
            sharded.drop_cache()
        mem, store = runs
        assert set(mem) == set(store)
        for key in mem:
            assert mem[key].tobytes() == store[key].tobytes(), key

    def test_train_sage_on_pool_needs_a_step_per_checkpoint(self):
        from repro.core.training import train_sage_on_pool

        pool = synthetic_pool(np.random.default_rng(6))
        with pytest.raises(ValueError, match="one step per checkpoint"):
            train_sage_on_pool(pool, n_steps=2, n_checkpoints=3)
