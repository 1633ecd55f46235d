"""Data-parallel gradient workers (repro.train.parallel).

The contract under test:

- for any worker count dividing the grain width, losses, parameters and
  per-(step, grain) seed streams are **bit-identical** — for the
  in-memory pool and the sharded on-disk store alike;
- an injected worker crash (``train.workercrash``) is recovered by
  respawn + same-seed replay, leaving the run bit-identical to a
  fault-free one;
- a poisoned batch under a :class:`DivergenceGuard` is masked exactly as
  in the single-process engine;
- checkpoints record the worker layout and refuse to resume under a
  different one, and a real ``kill -9`` mid-train resumes to the
  uninterrupted run's exact bytes through the pipeline supervisor.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.collector.gr_unit import STATE_DIM
from repro.collector.parallel import derive_seed
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.core.training import train_sage_on_pool
from repro.train.engine import FastCRRTrainer
from repro.train.guard import DivergenceGuard, GuardConfig
from repro.train.parallel import (
    DEFAULT_GRAINS,
    DataParallelTrainer,
    grain_seed,
)

REPO = Path(__file__).resolve().parent.parent

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)
CFG = CRRConfig(batch_size=8, seq_len=4)


def synthetic_pool(seed: int = 0, n_traj: int = 6, length: int = 24) -> PolicyPool:
    rng = np.random.default_rng(seed)
    pool = PolicyPool()
    for i in range(n_traj):
        pool.add(
            Trajectory(
                scheme=f"s{i % 3}", env_id=f"e{i}", multi_flow=False,
                states=rng.normal(size=(length, STATE_DIM)),
                actions=np.abs(rng.normal(size=length)) + 0.5,
                rewards=rng.normal(size=length),
            )
        )
    return pool


def _params(trainer):
    out = {}
    for tag, net in (
        ("policy", trainer.policy),
        ("critic", trainer.critic),
        ("target_policy", trainer.target_policy),
        ("target_critic", trainer.target_critic),
    ):
        for name, p in sorted(net.named_parameters()):
            out[f"{tag}/{name}"] = np.asarray(p.data).tobytes()
    return out


def _run(pool, workers, steps=5, seed=0, chaos=None, guard=None):
    trainer = DataParallelTrainer(
        pool, net_config=TINY, config=CFG, seed=seed,
        grad_workers=workers, chaos=chaos,
    )
    try:
        trainer.train(steps, guard=guard)
        return (
            {k: list(v) for k, v in trainer.history.items()},
            _params(trainer),
            trainer,
        )
    finally:
        trainer.close()


# ---------------------------------------------------------------------------
# bit-identity across worker counts
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_seed_stream_is_per_step_grain(self):
        # the documented derivation: one SplitMix64 stream per (step, grain)
        for step in (0, 3):
            for g in range(DEFAULT_GRAINS):
                assert grain_seed(7, step, g, DEFAULT_GRAINS) == derive_seed(
                    7, step * DEFAULT_GRAINS + g
                )
        # distinct across both axes
        seeds = {
            grain_seed(0, s, g, DEFAULT_GRAINS)
            for s in range(4) for g in range(DEFAULT_GRAINS)
        }
        assert len(seeds) == 16

    def test_in_memory_identical_for_1_2_4_workers(self):
        pool = synthetic_pool()
        h1, p1, _ = _run(pool, 1)
        h2, p2, _ = _run(pool, 2)
        h4, p4, _ = _run(pool, 4)
        assert h1 == h2 == h4
        assert p1 == p2 == p4

    def test_sharded_pool_identical_to_in_memory(self, tmp_path):
        from repro.datastore.convert import pack_pool
        from repro.datastore.reader import ShardedPool

        pool = synthetic_pool()
        pack_pool(pool, tmp_path / "store")
        sharded = ShardedPool.open(tmp_path / "store")
        try:
            h_mem, p_mem, _ = _run(pool, 4)
            h_st, p_st, _ = _run(sharded, 2)
            assert h_mem == h_st
            assert p_mem == p_st
        finally:
            sharded.drop_cache()

    def test_different_stream_than_single_process(self):
        # grad_workers >= 1 is a deliberately different (per-grain) seed
        # trajectory than the single-process interleaved stream
        pool = synthetic_pool()
        single = FastCRRTrainer(pool, net_config=TINY, config=CFG, seed=0)
        single.train(3)
        h1, _, _ = _run(pool, 1, steps=3)
        assert h1["critic_loss"] != list(single.history["critic_loss"])


# ---------------------------------------------------------------------------
# crash recovery + chaos + guard
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_workercrash_recovery_bit_identical(self):
        pool = synthetic_pool()
        h_clean, p_clean, _ = _run(pool, 2)
        plan = FaultPlan(
            seed=0, faults=[FaultSpec("train.workercrash", target=2, param=1.0)]
        )
        h, p, trainer = _run(pool, 2, chaos=FaultInjector(plan))
        assert trainer.respawns == 1
        assert h == h_clean
        assert p == p_clean

    def test_nan_fault_masked_by_guard(self):
        pool = synthetic_pool()
        h_clean, p_clean, _ = _run(pool, 4, steps=4)
        plan = FaultPlan(seed=0, faults=[FaultSpec("train.nan", target=1)])
        guard = DivergenceGuard(GuardConfig(max_rollbacks=4))
        with np.errstate(invalid="ignore"):
            h, p, _ = _run(
                pool, 4, steps=4, chaos=FaultInjector(plan), guard=guard
            )
        assert h == h_clean
        assert p == p_clean
        assert [e.reason for e in guard.events].count("step-failure") == 1


# ---------------------------------------------------------------------------
# checkpoint layout contract
# ---------------------------------------------------------------------------


class TestCheckpointLayout:
    def test_resume_bit_identical(self, tmp_path):
        pool = synthetic_pool()
        _, p_ref, _ = _run(pool, 2, steps=6)

        ckpt = tmp_path / "ckpt.npz"
        a = DataParallelTrainer(
            pool, net_config=TINY, config=CFG, seed=0, grad_workers=2
        )
        try:
            a.train(3)
            a.save_checkpoint(ckpt)
        finally:
            a.close()
        b = DataParallelTrainer(
            pool, net_config=TINY, config=CFG, seed=0, grad_workers=2
        )
        try:
            b.load_checkpoint(ckpt)
            b.train(3)
            assert _params(b) == p_ref
        finally:
            b.close()

    def test_layout_mismatch_refused(self, tmp_path):
        pool = synthetic_pool()
        ckpt = tmp_path / "ckpt.npz"
        a = DataParallelTrainer(
            pool, net_config=TINY, config=CFG, seed=0, grad_workers=2
        )
        try:
            a.train(1)
            a.save_checkpoint(ckpt)
        finally:
            a.close()
        # parallel trainer with a different worker count
        b = DataParallelTrainer(
            pool, net_config=TINY, config=CFG, seed=0, grad_workers=4
        )
        try:
            with pytest.raises(ValueError, match="grad-workers"):
                b.load_checkpoint(ckpt)
        finally:
            b.close()
        # and the single-process engine (layout 0)
        c = FastCRRTrainer(pool, net_config=TINY, config=CFG, seed=0)
        with pytest.raises(ValueError, match="grad-workers"):
            c.load_checkpoint(ckpt)

    def test_pre_layout_checkpoints_still_load(self, tmp_path):
        # checkpoints written before the layout fields existed load as
        # single-process (missing keys default to layout 0)
        pool = synthetic_pool()
        ckpt = tmp_path / "old.npz"
        a = FastCRRTrainer(pool, net_config=TINY, config=CFG, seed=0)
        a.train(1)
        a.save_checkpoint(ckpt)
        with np.load(ckpt, allow_pickle=False) as data:
            payload = {
                k: data[k] for k in data.files
                if not k.startswith("meta/grad_")
            }
        np.savez_compressed(ckpt, **payload)
        ckpt.with_name(ckpt.name + ".crc32").unlink()  # rewrote the archive
        b = FastCRRTrainer(pool, net_config=TINY, config=CFG, seed=0)
        b.load_checkpoint(ckpt)
        assert b.steps_done == 1


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_worker_count_must_divide_grains(self):
        with pytest.raises(ValueError, match="divide grains"):
            DataParallelTrainer(
                synthetic_pool(), net_config=TINY, config=CFG, grad_workers=3
            )

    def test_batch_size_must_divide_into_grains(self):
        cfg = CRRConfig(batch_size=6, seq_len=4)
        with pytest.raises(ValueError, match="divisible"):
            DataParallelTrainer(
                synthetic_pool(), net_config=TINY, config=cfg, grad_workers=2
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            DataParallelTrainer(
                synthetic_pool(), net_config=TINY, config=CFG, grad_workers=0
            )

    def test_filtered_store_view_rejected(self, tmp_path):
        from repro.datastore.convert import pack_pool
        from repro.datastore.reader import ShardedPool

        pack_pool(synthetic_pool(), tmp_path / "store")
        sharded = ShardedPool.open(tmp_path / "store")
        view = sharded.filter_env(lambda env: env == "e0")
        try:
            with pytest.raises(ValueError, match="full store"):
                DataParallelTrainer(
                    view, net_config=TINY, config=CFG, grad_workers=2
                )
        finally:
            sharded.drop_cache()

    def test_grain_view_validates_index(self):
        pool = synthetic_pool()
        with pytest.raises(ValueError):
            pool.grain_view(4, 4)
        assert len(pool.grain_view(1, 3).trajectories) == 2

    def test_train_sage_on_pool_guards(self):
        pool = synthetic_pool()
        # rejected before any gradient worker is spawned
        with pytest.raises(ValueError, match="one step per checkpoint"):
            train_sage_on_pool(
                pool, n_steps=2, n_checkpoints=3, grad_workers=2,
            )

    def test_train_sage_on_pool_routes_to_parallel(self):
        run = train_sage_on_pool(
            synthetic_pool(), n_steps=2, n_checkpoints=1,
            net_config=TINY, crr_config=CFG, grad_workers=2,
        )
        assert isinstance(run.trainer, DataParallelTrainer)
        assert run.trainer.steps_done == 2


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


class TestCLI:
    def test_train_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["train", "--pool", "p.npz"])
        assert args.grad_workers == 0
        args = build_parser().parse_args(
            ["train", "--pool", "p.npz", "--grad-workers", "2"]
        )
        assert args.grad_workers == 2

    def test_pipeline_run_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["pipeline", "run", "--workdir", "r/", "--grad-workers", "2"]
        )
        assert args.grad_workers == 2


# ---------------------------------------------------------------------------
# pipeline: real kill -9 mid-train, data-parallel resume
# ---------------------------------------------------------------------------


PIPE_KW = dict(
    scale="mini", schemes=("cubic",), workers=1, n_steps=4,
    eval_duration=1.0, grad_workers=2,
)


class TestPipelineSigkill:
    def test_real_sigkill_mid_train_resumes_bit_identical(self, tmp_path):
        from repro.pipeline import PipelineConfig, build_supervisor
        from repro.pipeline.state import PipelineState

        def _arrays(path):
            with np.load(path, allow_pickle=False) as data:
                return {k: data[k].tobytes() for k in data.files}

        clean_cfg = PipelineConfig(workdir=str(tmp_path / "clean"), **PIPE_KW)
        build_supervisor(clean_cfg).run(config=clean_cfg.to_json())

        workdir = tmp_path / "killed"
        driver = f"""
import os, signal, sys
sys.path.insert(0, {str(REPO / "src")!r})
from repro.pipeline import PipelineConfig, build_supervisor
from repro.train.parallel import DataParallelTrainer
cfg = PipelineConfig(workdir={str(workdir)!r}, **{PIPE_KW!r})
real_train = DataParallelTrainer.train
def dying_train(self, n_steps, **kw):
    real_train(self, 2, **kw)  # checkpoint at steps 1, 2 commits first
    self.close()  # leave no gradient workers to orphan
    os.kill(os.getpid(), signal.SIGKILL)
DataParallelTrainer.train = dying_train
build_supervisor(cfg).run(config=cfg.to_json())
"""
        proc = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, timeout=300
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        journal = PipelineState.load(workdir / "pipeline_state.json")
        assert not journal.complete

        cfg = PipelineConfig(workdir=str(workdir), **PIPE_KW)
        state = build_supervisor(cfg).run(resume=True, config=cfg.to_json())
        assert state.complete
        a = _arrays(clean_cfg.checkpoint_path)
        b = _arrays(cfg.checkpoint_path)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], key
