"""End-to-end training pipeline (Section 5).

Three phases, mirroring Fig. 3:

1. :func:`collect_pool` — run every pool scheme through every environment
   *once*; after this the environments are "unplugged".
2. :func:`train_sage_on_pool` — fully-offline CRR training on
   :class:`~repro.train.engine.FastCRRTrainer`, with periodic checkpoints
   standing in for the paper's per-day snapshots (Fig. 7).
3. Deployment — the returned :class:`~repro.core.agent.SageAgent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.collector.environments import EnvConfig, training_environments
from repro.collector.gr_unit import WindowConfig
from repro.collector.pool import PolicyPool
from repro.core.agent import SageAgent
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.tcp.cc_base import POOL_SCHEMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datastore.reader import ShardedPool
    from repro.train.engine import FastCRRTrainer

#: both pool flavors expose the same sampling API (see repro.datastore)
AnyPool = Union[PolicyPool, "ShardedPool"]


@dataclass
class TrainingRun:
    """Everything a training session produces."""

    agent: SageAgent
    trainer: "FastCRRTrainer"
    checkpoints: List[Dict[str, np.ndarray]] = field(default_factory=list)
    #: training-step index at which each checkpoint was taken
    checkpoint_steps: List[int] = field(default_factory=list)

    def agent_at(self, checkpoint: int, deterministic: bool = False) -> SageAgent:
        """Rebuild the agent as of checkpoint ``checkpoint`` ("day k")."""
        from repro.core.networks import SagePolicy

        policy = SagePolicy(self.trainer.net_cfg, np.random.default_rng(0))
        policy.load_state_dict(self.checkpoints[checkpoint])
        return SageAgent(
            policy, deterministic=deterministic, name=f"sage-ckpt{checkpoint}"
        )


def collect_pool(
    environments: Optional[Sequence[EnvConfig]] = None,
    schemes: Optional[Sequence[str]] = None,
    windows: Optional[WindowConfig] = None,
    tick: float = 0.02,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    chunksize: Optional[int] = None,
    store=None,
    shard_bytes: Optional[int] = None,
    max_task_seconds: Optional[float] = None,
    max_rounds: int = 2,
    retry_backoff_s: float = 0.0,
    chaos=None,
    report_sink: Optional[Callable] = None,
) -> AnyPool:
    """Phase 1: build the pool of policies (collection happens once).

    ``workers`` fans the ``(env, scheme)`` rollouts across processes via
    :mod:`repro.collector.parallel`; the resulting pool is bit-identical to
    the serial one (``workers=1``, the default) for the same environments
    and schemes. ``workers=None`` uses one process per CPU.

    With ``store`` set (a directory path), rollouts are streamed straight
    into a sharded on-disk store instead of accumulating in memory, and the
    returned pool is an out-of-core
    :class:`~repro.datastore.reader.ShardedPool` over it — same sampling
    API, same bits for the same seed. ``shard_bytes`` tunes the per-shard
    byte budget.

    ``max_task_seconds`` arms the collector watchdog (hung rollouts are
    re-dispatched), ``max_rounds`` / ``retry_backoff_s`` tune the retry
    policy, ``chaos`` threads a
    :class:`~repro.chaos.inject.FaultInjector` through collection, and
    ``report_sink`` receives the final
    :class:`~repro.collector.parallel.CollectionReport`.
    """
    from repro.collector.parallel import collect_pool_parallel, collect_pool_to_store

    envs = list(environments) if environments is not None else training_environments("mini")
    schemes = list(schemes) if schemes is not None else list(POOL_SCHEMES)
    progress_cb = (
        None if progress is None else (lambda ev: progress(f"collected {ev.label}"))
    )
    if store is not None:
        return collect_pool_to_store(
            envs,
            schemes,
            store,
            windows=windows,
            tick=tick,
            workers=workers,
            chunksize=chunksize,
            progress=progress_cb,
            shard_bytes=shard_bytes,
            max_task_seconds=max_task_seconds,
            max_rounds=max_rounds,
            retry_backoff_s=retry_backoff_s,
            chaos=chaos,
            report_sink=report_sink,
        )
    return collect_pool_parallel(
        envs,
        schemes,
        windows=windows,
        tick=tick,
        workers=workers,
        chunksize=chunksize,
        progress=progress_cb,
        max_task_seconds=max_task_seconds,
        max_rounds=max_rounds,
        retry_backoff_s=retry_backoff_s,
        chaos=chaos,
        report_sink=report_sink,
    )


def train_sage_on_pool(
    pool: AnyPool,
    n_steps: int = 300,
    n_checkpoints: int = 7,
    net_config: Optional[NetworkConfig] = None,
    crr_config: Optional[CRRConfig] = None,
    seed: int = 0,
    log_every: int = 0,
    chaos=None,
    guard=None,
) -> TrainingRun:
    """Phase 2: offline CRR training with per-"day" checkpoints.

    ``n_checkpoints`` evenly-spaced snapshots stand in for the paper's seven
    daily checkpoints in Fig. 7: day ``k`` ends at step
    ``(k + 1) * n_steps // n_checkpoints``, so the last one is ``n_steps``.

    Training runs on :class:`~repro.train.engine.FastCRRTrainer`, the
    learner's one engine; ``chaos`` and ``guard`` are passed through to it.
    """
    if n_steps < n_checkpoints:
        raise ValueError("need at least one step per checkpoint")
    from repro.train.engine import FastCRRTrainer

    trainer = FastCRRTrainer(
        pool,
        net_config=net_config,
        config=crr_config,
        seed=seed,
        chaos=chaos,
    )
    run = TrainingRun(
        agent=SageAgent(trainer.policy, name="sage"),
        trainer=trainer,
    )
    for day in range(n_checkpoints):
        end = (day + 1) * n_steps // n_checkpoints
        trainer.train(end - trainer.steps_done, log_every=log_every, guard=guard)
        run.checkpoints.append(trainer.policy.state_dict())
        run.checkpoint_steps.append(trainer.steps_done)
    # release the pool's concat cache (a second full copy of every
    # trajectory for an in-memory pool, open shard handles for a sharded
    # one) rather than pinning either for the process lifetime
    if hasattr(pool, "drop_cache"):
        pool.drop_cache()
    return run

