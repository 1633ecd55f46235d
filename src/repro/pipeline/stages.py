"""The standard collect -> verify -> train -> eval pipeline stages.

Each stage is a plain function over the supervisor's context dict, reads
its inputs from the pipeline workdir, and leaves its artifacts there:

- ``collect``  -> ``<workdir>/store/``     (sharded trajectory store)
- ``verify``   -> the same store, audited; corrupt shards quarantined and
  the missing rollouts **re-collected**, rebuilding a store byte-identical
  to a fault-free run's
- ``train``    -> ``<workdir>/checkpoint.npz`` (+ ``.crc32`` sidecar)
- ``eval``     -> ``<workdir>/eval.json``  (served-policy rollout metrics)

Stages are **deterministic given the config**, so re-running one after a
crash (or after the verify stage repairs the store) converges on the same
bytes. Each stage's ``info`` carries a fault/recovery event list that
``repro pipeline status`` reports.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.persist import verify_sidecar, write_json_atomic
from repro.pipeline.supervisor import StageSpec, Supervisor

__all__ = ["PipelineConfig", "build_pipeline", "build_supervisor"]

STATE_FILE = "pipeline_state.json"


@dataclasses.dataclass
class PipelineConfig:
    """Everything a pipeline run needs — JSON-serializable so a resumed
    process can rebuild the exact same run from the state file alone."""

    workdir: str
    # collection
    scale: str = "mini"
    schemes: Optional[Tuple[str, ...]] = ("cubic",)  # None -> all pool schemes
    workers: int = 1
    chunksize: Optional[int] = None
    shard_bytes: int = 1 << 20
    base_seed: int = 0
    tick: float = 0.02
    max_task_seconds: Optional[float] = None
    max_rounds: int = 3
    retry_backoff_s: float = 0.0
    # training
    n_steps: int = 12
    checkpoint_every: int = 1
    train_seed: int = 0
    batch_size: int = 8
    seq_len: int = 8
    m_samples: int = 2
    enc_dim: int = 16
    gru_dim: int = 16
    n_components: int = 2
    n_atoms: int = 7
    max_rollbacks: int = 3
    snapshot_every: int = 1
    #: data-parallel gradient workers: 0 = single-process FastCRRTrainer,
    #: N >= 1 spawns a DataParallelTrainer (N must divide its grain count;
    #: the checkpoint records the layout, so resume keeps it)
    grad_workers: int = 0
    # evaluation
    eval_duration: float = 3.0
    # fault injection: path to a FaultPlan JSON (None = no chaos)
    fault_plan: Optional[str] = None

    def to_json(self) -> Dict:
        d = dataclasses.asdict(self)
        if d["schemes"] is not None:
            d["schemes"] = list(d["schemes"])
        return d

    @classmethod
    def from_json(cls, d: Dict) -> "PipelineConfig":
        d = dict(d)
        if d.get("schemes") is not None:
            d["schemes"] = tuple(d["schemes"])
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    # -- derived paths --------------------------------------------------
    @property
    def root(self) -> Path:
        return Path(self.workdir)

    @property
    def store_dir(self) -> Path:
        return self.root / "store"

    @property
    def checkpoint_path(self) -> Path:
        return self.root / "checkpoint.npz"

    @property
    def eval_path(self) -> Path:
        return self.root / "eval.json"

    @property
    def state_path(self) -> Path:
        return self.root / STATE_FILE


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _environments(cfg: PipelineConfig):
    from repro.collector.environments import training_environments

    return training_environments(cfg.scale)


def _schemes(cfg: PipelineConfig) -> List[str]:
    if cfg.schemes is not None:
        return list(cfg.schemes)
    from repro.tcp.cc_base import POOL_SCHEMES

    return list(POOL_SCHEMES)


def _expected_tasks(cfg: PipelineConfig):
    from repro.collector.parallel import make_rollout_tasks

    return make_rollout_tasks(
        _environments(cfg), _schemes(cfg), tick=cfg.tick,
        base_seed=cfg.base_seed,
    )


def _net_config(cfg: PipelineConfig):
    from repro.core.networks import NetworkConfig

    return NetworkConfig(
        enc_dim=cfg.enc_dim, gru_dim=cfg.gru_dim,
        n_components=cfg.n_components, n_atoms=cfg.n_atoms,
    )


def _crr_config(cfg: PipelineConfig):
    from repro.core.crr import CRRConfig

    return CRRConfig(
        batch_size=cfg.batch_size, seq_len=cfg.seq_len,
        m_samples=cfg.m_samples,
    )


def _make_trainer(cfg: PipelineConfig, pool, chaos=None):
    if cfg.grad_workers > 0:
        from repro.train.parallel import DataParallelTrainer

        return DataParallelTrainer(
            pool, net_config=_net_config(cfg), config=_crr_config(cfg),
            seed=cfg.train_seed, grad_workers=cfg.grad_workers, chaos=chaos,
        )
    from repro.train.engine import FastCRRTrainer

    return FastCRRTrainer(
        pool, net_config=_net_config(cfg), config=_crr_config(cfg),
        seed=cfg.train_seed, chaos=chaos,
    )


# --------------------------------------------------------------------------
# stage: collect
# --------------------------------------------------------------------------


def _stage_collect(ctx: Dict) -> Dict:
    """Roll every (env, scheme) pair into the sharded store.

    Restarting after a crash wipes any partial store first — collection is
    deterministic, so a clean redo converges on the same bytes as an
    uninterrupted run.
    """
    from repro.collector.parallel import collect_pool_to_store

    cfg: PipelineConfig = ctx["config"]
    if cfg.store_dir.exists():
        shutil.rmtree(cfg.store_dir)
    reports: List = []
    pool = collect_pool_to_store(
        _environments(cfg),
        _schemes(cfg),
        str(cfg.store_dir),
        tick=cfg.tick,
        workers=cfg.workers,
        chunksize=cfg.chunksize,
        base_seed=cfg.base_seed,
        shard_bytes=cfg.shard_bytes,
        max_task_seconds=cfg.max_task_seconds,
        max_rounds=cfg.max_rounds,
        retry_backoff_s=cfg.retry_backoff_s,
        chaos=ctx.get("chaos"),
        report_sink=reports.append,
    )
    n_traj = len(pool.records)
    pool.drop_cache()
    report = reports[0]
    return {
        "n_trajectories": n_traj,
        "n_retried": report.n_retried,
        "n_crashes": report.n_crashes,
        "n_timeouts": report.n_timeouts,
        "events": list(report.events),
    }


def _check_collect(ctx: Dict) -> bool:
    cfg: PipelineConfig = ctx["config"]
    try:
        from repro.datastore.manifest import Manifest

        manifest = Manifest.load(cfg.store_dir)
    except (FileNotFoundError, ValueError):
        return False
    return len(manifest.trajectories) == len(_expected_tasks(cfg))


# --------------------------------------------------------------------------
# stage: verify (+ repair)
# --------------------------------------------------------------------------


def _stage_verify(ctx: Dict) -> Dict:
    """Audit the store; quarantine corrupt shards and re-collect the loss.

    Repair rebuilds the *entire* store in expected task order with the same
    shard budget, so the repaired store is byte-identical to one from a
    fault-free collection — downstream training samples the same bits.
    """
    from repro.datastore.manifest import verify_store

    cfg: PipelineConfig = ctx["config"]
    report = verify_store(cfg.store_dir, quarantine=True)
    events: List[Dict] = []
    for problem in report.corrupt:
        events.append(
            {
                "kind": "corrupt-shard",
                "detail": f"{problem.name}: {problem.reason}",
                "action": "quarantined",
            }
        )
    info: Dict = {
        "n_shards": report.n_shards,
        "quarantined": list(report.quarantined),
        "dropped_trajectories": report.dropped_trajectories,
        "events": events,
    }
    if report.quarantined:
        recollected = _repair_store(cfg)
        events.append(
            {
                "kind": "store-repair",
                "detail": f"re-collected {recollected} dropped "
                          "trajectory(ies) and rebuilt the store in "
                          "canonical order",
                "action": "store restored byte-identical to a fault-free run",
            }
        )
        info["recollected"] = recollected
    return info


def _repair_store(cfg: PipelineConfig) -> int:
    """Rebuild the store: surviving rollouts + re-collected missing ones.

    Greedily matches the quarantined store's surviving trajectory records
    (their manifest order is collection order) against the expected
    (env, scheme) task list; gaps are re-collected — rollouts are pure
    functions of their task, so the redo bit-matches the original. The
    rebuilt directory then atomically replaces the damaged store.
    """
    from repro.collector.parallel import _reseed_for, _run_rollout_task
    from repro.datastore.reader import ShardedPool
    from repro.datastore.writer import ShardWriter

    tasks = _expected_tasks(cfg)
    pool = ShardedPool.open(cfg.store_dir)
    survivors = pool.records
    rebuild_dir = cfg.root / "store.rebuild"
    if rebuild_dir.exists():
        shutil.rmtree(rebuild_dir)
    recollected = 0
    cursor = 0
    with ShardWriter(rebuild_dir, shard_bytes=cfg.shard_bytes) as writer:
        for task in tasks:
            record = survivors[cursor] if cursor < len(survivors) else None
            if (
                record is not None
                and record.scheme == task.scheme
                and record.env_id == task.env.env_id
            ):
                writer.add(pool.trajectory(cursor))
                cursor += 1
            else:
                _reseed_for(task)
                writer.add_rollout(_run_rollout_task(task))
                recollected += 1
    pool.drop_cache()
    shutil.rmtree(cfg.store_dir)
    os.replace(rebuild_dir, cfg.store_dir)
    return recollected


def _check_verify(ctx: Dict) -> bool:
    from repro.datastore.manifest import verify_store

    cfg: PipelineConfig = ctx["config"]
    if not _check_collect(ctx):
        return False
    return verify_store(cfg.store_dir, quarantine=False).clean


# --------------------------------------------------------------------------
# stage: train
# --------------------------------------------------------------------------


def _stage_train(ctx: Dict) -> Dict:
    """Offline CRR under the DivergenceGuard, checkpointing atomically.

    A valid checkpoint from an interrupted run resumes mid-stream (the
    checkpoint carries the RNG and batch index, so the continuation
    is bit-identical to an uninterrupted run); a corrupt one is discarded
    and training restarts from scratch.
    """
    from repro.datastore.reader import ShardedPool
    from repro.train.guard import DivergenceGuard, GuardConfig

    cfg: PipelineConfig = ctx["config"]
    events: List[Dict] = []
    pool = ShardedPool.open(cfg.store_dir)
    trainer = None
    try:
        trainer = _make_trainer(cfg, pool, chaos=ctx.get("chaos"))
        if cfg.checkpoint_path.exists():
            try:
                trainer.load_checkpoint(cfg.checkpoint_path)
                events.append(
                    {
                        "kind": "train-resume",
                        "detail": f"found checkpoint at step "
                                  f"{trainer.steps_done}",
                        "action": "resumed mid-train (bit-identical "
                                  "continuation)",
                    }
                )
            except ValueError as exc:
                events.append(
                    {
                        "kind": "corrupt-checkpoint",
                        "detail": str(exc),
                        "action": "discarded; training restarts from step 0",
                    }
                )
        guard = DivergenceGuard(
            GuardConfig(
                max_rollbacks=cfg.max_rollbacks,
                snapshot_every=cfg.snapshot_every,
            )
        )
        remaining = cfg.n_steps - trainer.steps_done
        if remaining > 0:
            # train() writes every checkpoint_every-th step and the last
            # one, each once; 0 means the final state only
            trainer.train(
                remaining,
                checkpoint_every=cfg.checkpoint_every or remaining,
                checkpoint_path=str(cfg.checkpoint_path),
                guard=guard,
            )
        for ev in guard.events:
            events.append(
                {
                    "kind": f"train-{ev.reason}",
                    "detail": f"step {ev.step}: {ev.detail}",
                    "action": f"rolled back to step {ev.restored_step} "
                              "and replayed clean",
                }
            )
        respawns = getattr(trainer, "respawns", 0)
        if respawns:
            events.append(
                {
                    "kind": "train-worker-crash",
                    "detail": f"{respawns} gradient worker(s) died "
                              "mid-step",
                    "action": "respawned and replayed the step from the "
                              "same grain seeds (bit-identical recovery)",
                }
            )
        history = {
            k: (float(v[-1]) if len(v) else None)
            for k, v in trainer.history.items()
        }
    finally:
        if trainer is not None:
            trainer.close()  # stops gradient workers too
        pool.drop_cache()
    return {
        "steps_done": trainer.steps_done,
        "rollbacks": guard.rollbacks_used,
        "final_metrics": history,
        "events": events,
    }


def _check_train(ctx: Dict) -> bool:
    cfg: PipelineConfig = ctx["config"]
    if not cfg.checkpoint_path.exists():
        return False
    try:
        verify_sidecar(cfg.checkpoint_path, "checkpoint")
        with np.load(cfg.checkpoint_path, allow_pickle=False) as data:
            return int(data["meta/steps_done"][0]) >= cfg.n_steps
    except Exception:  # noqa: BLE001 - any unreadable checkpoint fails check
        return False


# --------------------------------------------------------------------------
# stage: eval
# --------------------------------------------------------------------------


def _stage_eval(ctx: Dict) -> Dict:
    """Serve the trained policy through one environment, end to end.

    Runs the *production* path — :class:`~repro.serve.engine.PolicyServer`
    with its deadline and NaN-fallback machinery — so injected ``serve.*``
    faults are exercised and their fallbacks observable in the metrics.
    """
    from repro.collector.rollout import run_policy
    from repro.core.networks import SagePolicy
    from repro.serve.client import ServedAgent
    from repro.serve.engine import PolicyServer, ServeConfig

    cfg: PipelineConfig = ctx["config"]
    policy = SagePolicy(_net_config(cfg), np.random.default_rng(0))
    verify_sidecar(cfg.checkpoint_path, "checkpoint")
    with np.load(cfg.checkpoint_path, allow_pickle=False) as data:
        policy.load_state_dict(
            {
                key[len("policy/"):]: data[key]
                for key in data.files
                if key.startswith("policy/")
            }
        )
    serve_cfg = ServeConfig(deterministic=True, tick_budget=None)
    server = PolicyServer(policy, serve_cfg, chaos=ctx.get("chaos"))
    agent = ServedAgent(
        policy, name="sage-pipeline", config=serve_cfg, server=server
    )
    env = dataclasses.replace(
        _environments(cfg)[0], duration=cfg.eval_duration
    )
    result = run_policy(env, agent, tick=cfg.tick)
    metrics = server.metrics.snapshot()
    events: List[Dict] = []
    if metrics["invalid_actions"]:
        events.append(
            {
                "kind": "serve-nan",
                "detail": f"{metrics['invalid_actions']} non-finite policy "
                          "output(s) caught before reaching a sender",
                "action": "served by the heuristic fallback; hidden state "
                          "held",
            }
        )
    chaos = ctx.get("chaos")
    if chaos is not None:
        for fired in chaos.fired:
            if fired.site == "serve.slow":
                events.append(
                    {
                        "kind": "serve-slow",
                        "detail": f"tick {fired.target} delayed "
                                  f"{fired.param:g}s by injection",
                        "action": "absorbed (deadline machinery governs "
                                  "late forwards)",
                    }
                )
    summary = {
        "env_id": env.env_id,
        "ticks": metrics["ticks"],
        "mean_reward": float(np.mean(result.rewards)),
        "serve": metrics,
    }
    write_json_atomic(cfg.eval_path, summary)
    summary["events"] = events
    return summary


def _check_eval(ctx: Dict) -> bool:
    cfg: PipelineConfig = ctx["config"]
    try:
        json.loads(cfg.eval_path.read_text())
    except (FileNotFoundError, ValueError):
        return False
    return True


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------


def build_pipeline(cfg: PipelineConfig) -> List[StageSpec]:
    """The standard stage sequence for ``cfg``."""
    return [
        StageSpec("collect", _stage_collect, check=_check_collect),
        StageSpec("verify", _stage_verify, check=_check_verify),
        StageSpec("train", _stage_train, check=_check_train),
        StageSpec("eval", _stage_eval, check=_check_eval),
    ]


def build_supervisor(cfg: PipelineConfig, after_stage=None) -> Supervisor:
    """Supervisor + context for ``cfg``, chaos injector included.

    The injector is rebuilt from the persisted fault-plan path on every
    (re)start; faults already absorbed by completed work cannot re-fire —
    their occurrence indices are behind the run's progress cursor.
    """
    context: Dict = {"config": cfg}
    if cfg.fault_plan:
        from repro.chaos import FaultInjector, FaultPlan

        context["chaos"] = FaultInjector(FaultPlan.load(cfg.fault_plan))
    return Supervisor(
        build_pipeline(cfg),
        cfg.state_path,
        context=context,
        after_stage=after_stage,
    )
