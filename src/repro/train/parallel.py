"""DataParallelTrainer: deterministic multi-process gradient workers.

Scales the fused CRR engine across N processes while keeping the result a
pure function of the seed — **bit-identical for any worker count**. The
trick is that the unit of parallelism is not the worker but the **grain**:

- Every step's batch is decomposed into ``grains`` fixed slices of
  ``batch_size / grains`` sequence windows each. Grain ``g`` of step ``s``
  samples its windows from the round-robin pool view
  ``pool.grain_view(g, grains)`` using a private generator seeded
  ``derive_seed(seed, s * grains + g)`` — the same SplitMix64 stream the
  parallel collector uses. Batches, target-action draws, and the
  ``m_samples`` filter draws all come from that per-(step, grain)
  generator, so the RNG streams never depend on process layout.
- Workers own grains round-robin (grain ``g`` → worker ``g % N``) and run
  the plain :class:`~repro.train.engine.FastCRRTrainer` forward/backward
  kernels on their slices. For a :class:`~repro.datastore.reader
  .ShardedPool` each grain view carries a private shard cache, so a worker
  memory-maps only the shards its slice touches.
- Gradients come back over pipes and the parent **all-reduces in
  canonical grain order** ``0..grains-1`` (mean), clips, applies the
  single Adam update, and broadcasts the new parameters. Because the
  reduction order is grain order — never worker order — the floating-point
  sum is identical whether one process computed all grains or four
  processes computed one each.

Each step runs a two-phase protocol (the Eq. 6 filter must read the
*updated* critic, exactly like the single-process engine):

``('critic', s)``
    workers: sample grain batches, Bellman targets, critic
    loss/backward → per-grain grads to parent; parent: all-reduce +
    clip + Adam on the critic.
``('policy', s, critic params)``
    workers: load the updated critic, advantage filter + policy
    loss/backward → per-grain grads; parent: all-reduce + clip + Adam
    on the policy, then Polyak target updates.
``('finish', policy params)``
    workers: load the updated policy and apply the same elementwise
    Polyak update locally — replicas stay bitwise in lockstep without
    shipping the target nets every step.

Crash recovery (the ``train.workercrash`` chaos site): a dead worker is
detected as EOF/EPIPE on its pipe. The parent rolls the step back to its
entry state (the critic update, if already applied, is undone from a
pre-update snapshot), respawns the dead process, re-broadcasts the full
parameter state to *every* worker, and replays the step from the same
per-(step, grain) seeds. Per-step state is otherwise stateless, so
recovery is bit-identical to a run that never crashed. A parent SIGKILL
orphans the workers with a closed pipe — they see EOF and exit, and the
checkpoint (which records the worker layout) resumes the run at the last
step boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.collector.parallel import derive_seed
from repro.collector.pool import PolicyPool
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig
from repro.nn.optim import clip_grad_norm
from repro.train.engine import FastCRRTrainer

__all__ = [
    "DataParallelTrainer",
    "WorkerCrashed",
    "DEFAULT_GRAINS",
    "grain_seed",
    "make_trainer",
]

#: canonical batch-decomposition width — every worker count must divide it
DEFAULT_GRAINS = 4

#: replays of one step before a crash loop is declared
_MAX_STEP_ATTEMPTS = 10

_WORKER_PHASES = ("sample", "targets", "critic", "filter", "policy")


def grain_seed(seed: int, step: int, grain: int, grains: int) -> int:
    """The RNG seed of grain ``grain`` at training step ``step``.

    A flat SplitMix64 stream indexed ``step * grains + grain`` — the same
    derivation the parallel collector uses for its tasks, and independent
    of which worker process computes the grain.
    """
    return derive_seed(seed, step * grains + grain)


class WorkerCrashed(RuntimeError):
    """Internal: one or more gradient workers died mid-step."""

    def __init__(self, workers: Set[int]) -> None:
        super().__init__(f"gradient worker(s) {sorted(workers)} died")
        self.workers = set(workers)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _set_params(net, blobs: Sequence[np.ndarray]) -> None:
    params = list(net.parameters())
    if len(params) != len(blobs):  # pragma: no cover - protocol bug guard
        raise ValueError("parameter blob does not match the network")
    for p, arr in zip(params, blobs):
        p.data = arr


def _get_params(net) -> List[np.ndarray]:
    return [p.data for p in net.parameters()]


def _grain_pools(spec, grains: int, my_grains: Sequence[int]) -> Dict[int, object]:
    """Open this worker's grain views from a picklable pool spec."""
    if spec[0] == "store":
        from repro.datastore.reader import ShardedPool

        base = ShardedPool.open(spec[1], max_open_shards=spec[2])
        return {g: base.grain_view(g, grains) for g in my_grains}
    return {g: spec[1].grain_view(g, grains) for g in my_grains}


def _worker_main(
    parent_conn,
    conn,
    spec,
    net_config: Optional[NetworkConfig],
    config: CRRConfig,
    seed: int,
    state_mask,
    grains: int,
    my_grains: Sequence[int],
    plan_json: Optional[Dict],
) -> None:
    # drop the inherited copy of the parent's pipe end: when the parent
    # dies (even SIGKILL) our recv() then sees EOF instead of blocking
    parent_conn.close()
    pools = _grain_pools(spec, grains, my_grains)
    trainer = FastCRRTrainer(
        pools[my_grains[0]],
        net_config=net_config,
        config=config,
        seed=seed,
        state_mask=state_mask,
    )
    chaos = None
    if plan_json is not None:
        from repro.chaos.inject import FaultInjector
        from repro.chaos.plan import FaultPlan

        chaos = FaultInjector(FaultPlan.from_json(plan_json))
    rows = config.batch_size // grains
    ctxs: Dict[int, Dict] = {}
    rngs: Dict[int, np.random.Generator] = {}

    def phase_delta(before: Dict[str, float]) -> Dict[str, float]:
        return {
            k: trainer.phase_seconds[k] - before.get(k, 0.0)
            for k in _WORKER_PHASES
        }

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone
        cmd = msg[0]
        if cmd == "stop":
            return
        if cmd == "die":  # chaos train.workercrash
            os._exit(1)
        if cmd == "sync":
            _set_params(trainer.policy, msg[1])
            _set_params(trainer.critic, msg[2])
            _set_params(trainer.target_policy, msg[3])
            _set_params(trainer.target_critic, msg[4])
            conn.send(("ok",))
        elif cmd == "critic":
            step = int(msg[1])
            before = dict(trainer.phase_seconds)
            out = []
            try:
                for g in my_grains:
                    rng = np.random.default_rng(grain_seed(seed, step, g, grains))
                    t0 = time.perf_counter()
                    batch = pools[g].sample_sequences(
                        rows, config.seq_len, rng, normalize=trainer._normalize
                    )
                    # batch faults target grain 0 only, so the poisoned
                    # slice is the same for every worker count
                    if chaos is not None and g == 0:
                        chaos.mutate_batch(step, batch)
                    ctx = trainer._batch_context(batch)
                    trainer.phase_seconds["sample"] += time.perf_counter() - t0
                    loss = trainer._critic_backward(ctx, rng)
                    grads = [
                        None if p.grad is None else np.array(p.grad, copy=True)
                        for p in trainer.critic.parameters()
                    ]
                    ctxs[g] = ctx
                    rngs[g] = rng
                    out.append((g, loss, grads))
                conn.send(("grads", out, phase_delta(before)))
            except Exception as exc:  # reported, recovered by the parent
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif cmd == "policy":
            _set_params(trainer.critic, msg[2])
            before = dict(trainer.phase_seconds)
            out = []
            try:
                for g in my_grains:
                    ploss, mean_f = trainer._policy_backward(ctxs[g], rngs[g])
                    grads = [
                        None if p.grad is None else np.array(p.grad, copy=True)
                        for p in trainer.policy.parameters()
                    ]
                    out.append((g, ploss, mean_f, grads))
                conn.send(("grads", out, phase_delta(before)))
            except Exception as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif cmd == "finish":
            _set_params(trainer.policy, msg[1])
            # same elementwise Polyak op on the same values as the parent:
            # the local target nets stay bitwise identical without ever
            # shipping them over the pipe
            trainer._polyak_update()


class _Worker:
    """Parent-side handle: process + pipe end, with dead-pipe detection."""

    def __init__(self, index: int, ctx, target, args) -> None:
        self.index = index
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=target, args=(self.conn, child_conn) + args, daemon=True
        )
        self.proc.start()
        # the child closed its copy of self.conn; close ours of child_conn
        # so a dead peer turns into EOF/EPIPE instead of a hang
        child_conn.close()

    def send(self, msg) -> bool:
        try:
            self.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def recv(self):
        """The next message, or ``None`` if the worker died."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self, timeout: float = 5.0) -> None:
        self.send(("stop",))
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.terminate()
            self.proc.join(timeout=timeout)
        self.conn.close()


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
class DataParallelTrainer(FastCRRTrainer):
    """The fused CRR trainer over ``grad_workers`` gradient processes.

    Construction spawns the workers (fork start method — the in-memory
    pool is shared copy-on-write; a sharded store is re-opened per
    worker). ``grains`` fixes the batch decomposition: any
    ``grad_workers`` dividing it yields bit-identical losses, parameters,
    and RNG streams. Call :meth:`close` when done (the ``train_sage_on_
    pool`` / pipeline entry points do).

    The parent's own ``rng`` is never consumed — sampling
    happens in the workers on per-(step, grain) generators — so the RNG
    stream *differs* from the single-process engine's interleaved stream:
    ``grad_workers >= 1`` is a different (still seed-deterministic)
    trajectory family than ``grad_workers = 0``. Checkpoints record the
    layout and refuse to resume under a different one.
    """

    def __init__(
        self,
        pool,
        net_config: Optional[NetworkConfig] = None,
        config: Optional[CRRConfig] = None,
        seed: int = 0,
        state_mask: Optional[np.ndarray] = None,
        grad_workers: int = 1,
        grains: int = DEFAULT_GRAINS,
        chaos=None,
    ) -> None:
        if grad_workers < 1:
            raise ValueError("grad_workers must be >= 1")
        if grains < 1 or grains % grad_workers != 0:
            raise ValueError(
                f"grad_workers ({grad_workers}) must divide grains ({grains}) "
                "so every worker owns the same number of grains"
            )
        cfg = config if config is not None else CRRConfig()
        if cfg.batch_size % grains != 0:
            raise ValueError(
                f"batch_size ({cfg.batch_size}) must be divisible by "
                f"grains ({grains})"
            )
        # the parent's chaos hooks are the parallel-specific ones
        # (train.workercrash); batch faults fire inside the workers
        super().__init__(pool, net_config, cfg, seed, state_mask, chaos=None)
        self.grad_workers = int(grad_workers)
        self.grad_grains = int(grains)
        self._parent_chaos = chaos
        self._plan_json = chaos.plan.to_json() if chaos is not None else None
        self._seed = int(seed)
        self._state_mask_arg = state_mask
        self._spec = self._pool_spec(pool)
        self._validate_grains(pool)
        self.phase_seconds["grad_comm"] = 0.0
        #: how many workers were respawned after a crash (audit/test hook)
        self.respawns = 0
        self._critic_applied = False
        self._pre_critic = None
        self._mp = mp.get_context("fork")
        self._workers: List[Optional[_Worker]] = [None] * self.grad_workers
        self._grains_of = {
            w: tuple(g for g in range(grains) if g % grad_workers == w)
            for w in range(grad_workers)
        }
        for w in range(self.grad_workers):
            self._spawn(w)
        # one initial broadcast so replicas are in lockstep no matter when
        # (or after what parent-side mutations) the processes forked
        dead = self._sync_workers()
        if dead:  # pragma: no cover - spawn failed outright
            raise RuntimeError(f"gradient worker(s) {sorted(dead)} failed to start")

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_spec(pool):
        from repro.datastore.reader import ShardedPool

        if isinstance(pool, ShardedPool):
            if len(pool.records) != len(pool.manifest.trajectories):
                raise ValueError(
                    "data-parallel training needs the full store, not a "
                    "filtered view: grain decomposition is defined over "
                    "the manifest's trajectory order"
                )
            return ("store", str(pool.root), pool.cache.max_open)
        if isinstance(pool, PolicyPool):
            return ("memory", pool)
        raise ValueError(f"unsupported pool type {type(pool).__name__}")

    def _validate_grains(self, pool) -> None:
        span = self.cfg.seq_len + 1
        for g in range(self.grad_grains):
            view = pool.grain_view(g, self.grad_grains)
            if isinstance(view, PolicyPool):
                lengths = [t.length for t in view.trajectories]
            else:
                lengths = view._lengths.tolist()
            if not any(ln >= span for ln in lengths):
                raise ValueError(
                    f"grain {g}/{self.grad_grains} has no trajectory of "
                    f">= seq_len+1 = {span} steps; the pool is too small "
                    "for this grain count"
                )

    def _spawn(self, w: int) -> None:
        old = self._workers[w]
        if old is not None:
            try:
                old.conn.close()
            except OSError:  # pragma: no cover
                pass
            if old.proc.is_alive():  # pragma: no cover - defensive
                old.proc.terminate()
            old.proc.join(timeout=5.0)
        self._workers[w] = _Worker(
            w,
            self._mp,
            _worker_main,
            (
                self._spec,
                self.net_cfg,
                self.cfg,
                self._seed,
                self._state_mask_arg,
                self.grad_grains,
                self._grains_of[w],
                self._plan_json,
            ),
        )

    def _sync_blob(self):
        return (
            "sync",
            _get_params(self.policy),
            _get_params(self.critic),
            _get_params(self.target_policy),
            _get_params(self.target_critic),
        )

    def _sync_workers(self) -> Set[int]:
        """Broadcast the full parameter state; returns workers that died."""
        blob = self._sync_blob()
        dead: Set[int] = set()
        for w, h in enumerate(self._workers):
            if not h.send(blob):
                dead.add(w)
        for w, h in enumerate(self._workers):
            if w in dead:
                continue
            if h.recv() is None:
                dead.add(w)
        return dead

    # ------------------------------------------------------------------
    def _broadcast(self, msg) -> Set[int]:
        dead: Set[int] = set()
        for w, h in enumerate(self._workers):
            if not h.send(msg):
                dead.add(w)
        return dead

    def _collect(self, skip: Set[int]):
        """One reply per live worker; drains every pipe before reporting
        deaths so no stale reply can desynchronize the next phase."""
        replies: Dict[int, Tuple] = {}
        dead: Set[int] = set()
        for w, h in enumerate(self._workers):
            if w in skip:
                continue
            r = h.recv()
            if r is None:
                dead.add(w)
            else:
                replies[w] = r
        return replies, dead

    def _phase_roundtrip(self, msg):
        """Broadcast ``msg``, gather grads; raises on dead workers and
        turns worker-side step failures into ``ValueError`` (the type the
        ``DivergenceGuard`` recovery path in ``train()`` handles)."""
        t0 = time.perf_counter()
        dead = self._broadcast(msg)
        replies, rdead = self._collect(dead)
        wall = time.perf_counter() - t0
        dead |= rdead
        if dead:
            raise WorkerCrashed(dead)
        errors = [r[1] for r in replies.values() if r[0] == "error"]
        if errors:
            raise ValueError(
                "gradient worker step failed: " + "; ".join(sorted(errors))
            )
        compute = 0.0
        for r in replies.values():
            delta = r[2]
            for k, v in delta.items():
                self.phase_seconds[k] += v
            compute = max(compute, sum(delta.values()))
        # comm = round-trip wall minus the slowest worker's compute time
        self.phase_seconds["grad_comm"] += max(wall - compute, 0.0)
        per_grain: Dict[int, Tuple] = {}
        for r in replies.values():
            for entry in r[1]:
                per_grain[entry[0]] = entry[1:]
        return per_grain

    def _reduce_into(self, per_grain_grads: Dict[int, List[np.ndarray]], net) -> None:
        """Mean-reduce per-grain grads in canonical grain order onto
        ``net``'s ``.grad`` slots — the order (hence the bits) never
        depends on the worker count. A parameter that received no grad in
        any grain stays ``None`` (skipped by clip/Adam, matching the
        single-process engine)."""
        params = list(net.parameters())
        total: List[Optional[np.ndarray]] = [None] * len(params)
        for g in range(self.grad_grains):
            for i, a in enumerate(per_grain_grads[g]):
                if a is None:
                    continue
                if total[i] is None:
                    total[i] = np.array(a, copy=True)
                else:
                    total[i] += a
        inv = 1.0 / self.grad_grains
        for p, acc in zip(params, total):
            if acc is not None:
                acc *= inv
            p.grad = acc

    @staticmethod
    def _reduce_scalar(per_grain: Dict[int, Tuple], pos: int) -> float:
        total = 0.0
        for g in sorted(per_grain):
            total += per_grain[g][pos]
        return total / len(per_grain)

    # ------------------------------------------------------------------
    def _attempt_step(self, step: int) -> Dict[str, float]:
        cfg = self.cfg
        self._critic_applied = False

        # phase 1: per-grain critic grads -> reduced critic Adam update
        per_grain = self._phase_roundtrip(("critic", step))
        tu = time.perf_counter()
        # the step's only non-replayable mutation is the critic update;
        # snapshot what it overwrites so a crash later in the step can
        # rewind to the step boundary and replay from the same seeds
        self._pre_critic = (
            [np.array(p.data, copy=True) for p in self.critic.parameters()],
            self.opt_critic.t,
            [m.copy() for m in self.opt_critic._m],
            [v.copy() for v in self.opt_critic._v],
        )
        critic_loss = self._reduce_scalar(per_grain, 0)
        self._reduce_into({g: v[1] for g, v in per_grain.items()}, self.critic)
        clip_grad_norm(self.critic.parameters(), cfg.grad_clip)
        self.opt_critic.step()
        self._critic_applied = True
        self.phase_seconds["update"] += time.perf_counter() - tu

        # phase 2: per-grain policy grads (against the updated critic)
        per_grain = self._phase_roundtrip(
            ("policy", step, _get_params(self.critic))
        )
        tu = time.perf_counter()
        policy_loss = self._reduce_scalar(per_grain, 0)
        mean_f = self._reduce_scalar(per_grain, 1)
        self._reduce_into({g: v[2] for g, v in per_grain.items()}, self.policy)
        clip_grad_norm(self.policy.parameters(), cfg.grad_clip)
        self.opt_policy.step()
        self._polyak_update()
        self.phase_seconds["update"] += time.perf_counter() - tu

        # phase 3: new policy out; workers run the same Polyak update.
        # A death here is past the point of mutation — the step stands;
        # respawn + full re-sync instead of replaying.
        dead = self._broadcast(("finish", _get_params(self.policy)))
        if dead:
            self._respawn_and_sync(dead)
        return {
            "critic_loss": critic_loss,
            "policy_loss": policy_loss,
            "mean_f": mean_f,
        }

    def _respawn_and_sync(self, dead: Set[int]) -> None:
        while True:
            for w in sorted(dead):
                self.respawns += 1
                self._spawn(w)
            dead = self._sync_workers()
            if not dead:  # pragma: no branch
                return

    def _recover(self, crash: WorkerCrashed) -> None:
        if self._critic_applied:
            params, t, ms, vs = self._pre_critic
            for p, saved in zip(self.critic.parameters(), params):
                p.data = saved
            self.opt_critic.t = t
            self.opt_critic._m = ms
            self.opt_critic._v = vs
            self._critic_applied = False
        self._respawn_and_sync(crash.workers)

    def train_step(self) -> Dict[str, float]:
        t0 = time.perf_counter()
        step = self.steps_done
        if self._parent_chaos is not None:
            spec = self._parent_chaos.worker_crash(step)
            if spec is not None:
                victim = int(spec.param) % self.grad_workers
                self._workers[victim].send(("die",))
                self._workers[victim].proc.join(timeout=10.0)
        for _ in range(_MAX_STEP_ATTEMPTS):
            try:
                metrics = self._attempt_step(step)
                break
            except WorkerCrashed as crash:
                self._recover(crash)
        else:  # pragma: no cover - needs a persistent external killer
            raise RuntimeError(
                f"step {step}: gradient workers crashed "
                f"{_MAX_STEP_ATTEMPTS} times in a row; giving up"
            )
        self._train_seconds += time.perf_counter() - t0
        self.steps_done += 1
        for k, v in metrics.items():
            self.history[k].append(v)
        return metrics

    # ------------------------------------------------------------------
    # state management: any restored parent state is re-broadcast so the
    # replicas stay in lockstep (guard rollbacks, checkpoint resume)
    def restore_state(self, snapshot: Dict[str, np.ndarray]) -> None:
        super().restore_state(snapshot)
        dead = self._sync_workers()
        if dead:
            self._respawn_and_sync(dead)

    def load_checkpoint(self, path: str) -> None:
        super().load_checkpoint(path)
        dead = self._sync_workers()
        if dead:
            self._respawn_and_sync(dead)

    def close(self) -> None:
        for h in self._workers:
            if h is not None:
                h.stop()
        self._workers = [None] * self.grad_workers
        super().close()


def make_trainer(
    pool,
    net_config: Optional[NetworkConfig] = None,
    config: Optional[CRRConfig] = None,
    seed: int = 0,
    grad_workers: int = 0,
    chaos=None,
) -> FastCRRTrainer:
    """The CRR trainer for a worker layout.

    ``grad_workers=0`` is the single-process :class:`FastCRRTrainer`;
    ``N >= 1`` is a :class:`DataParallelTrainer` over N gradient processes,
    on the per-(step, grain) seed stream rather than the single-process
    one. Call ``close()`` on the result when done.
    """
    if grad_workers > 0:
        return DataParallelTrainer(
            pool, net_config=net_config, config=config, seed=seed,
            grad_workers=grad_workers, chaos=chaos,
        )
    return FastCRRTrainer(
        pool, net_config=net_config, config=config, seed=seed, chaos=chaos
    )
