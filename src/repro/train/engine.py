"""FastCRRTrainer: the fused sequence-level CRR training engine.

Same learner as :class:`~repro.core.crr.CRRTrainer` (Eq. 5 policy
evaluation + Eq. 6 advantage-filtered improvement), restructured for
throughput:

- **No-grad phases on raw numpy.** Bellman targets and the advantage
  filter run through :mod:`repro.train.fastpath` — plain arrays,
  preallocated scratch, no autograd dispatch.
- **Fused gradient phases.** The two losses that *do* need gradients run
  through the fused ``(L*B, ·)`` autograd path
  (``features_seq_fused`` / ``recurrent_seq_fused``): one graph over all
  timesteps instead of ``L`` per-timestep subgraphs.

Equivalence contract (vs the reference ``CRRTrainer``, same seed): batches
are drawn by the inherited ``CRRTrainer._sample_batch`` and every RNG draw
happens in the same order on the same generator — pool sampling, then
per-timestep target-action draws, then the ``t``-major ``m_samples``
filter draws — so the random *streams* are bit-identical. Floating-point
values differ only by summation-order rounding (BLAS blocking on the
larger fused matmuls, gate-weight splitting in the GRU), so
``critic_loss`` / ``policy_loss`` / ``mean_f`` trajectories track the
reference engine within accumulated float tolerance rather than bitwise; the
only mechanism that could amplify a rounding difference is a sampled
mixture component or binary-filter indicator flipping across the
boundary, which at float64 has negligible probability per step. The
regression test pins this tolerance.
"""

from __future__ import annotations

import json
import time
import zipfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.collector.pool import PolicyPool
from repro.core.crr import CRRConfig, CRRTrainer, MetricsCallback
from repro.core.networks import NetworkConfig, log_action
from repro.nn.autograd import Tensor
from repro.nn.functional import softmax_np
from repro.nn.optim import clip_grad_norm
from repro.persist import verify_sidecar, write_npz_atomic
from repro.train import fastpath as fp

__all__ = ["FastCRRTrainer"]

_PHASES = ("sample", "targets", "critic", "filter", "policy", "update")


class FastCRRTrainer(CRRTrainer):
    """Drop-in CRR trainer with the fused hot path.

    Extra parameters on top of :class:`CRRTrainer`:

    ``chaos``
        Optional :class:`~repro.chaos.inject.FaultInjector`; pending
        ``train.*`` faults (NaN / reward-spike batches) poison the matching
        sampled batch — the corruption a
        :class:`~repro.train.guard.DivergenceGuard` must catch.
    """

    def __init__(
        self,
        pool: PolicyPool,
        net_config: Optional[NetworkConfig] = None,
        config: Optional[CRRConfig] = None,
        seed: int = 0,
        state_mask: Optional[np.ndarray] = None,
        chaos=None,
        rss_soft_limit_mb: Optional[float] = None,
    ) -> None:
        super().__init__(pool, net_config, config, seed, state_mask)
        self._chaos = chaos
        self._bufs = fp.BufferPool()
        #: optional RSS watermark: crossing it drops the pool's hot-shard
        #: cache (recomputable state) instead of letting a long training
        #: run be OOM-killed mid-checkpoint
        self.memory_guard = None
        if rss_soft_limit_mb is not None:
            from repro.resources import MemoryGuard

            self.memory_guard = MemoryGuard(
                int(rss_soft_limit_mb * 1e6), check_every=16
            )
            if hasattr(pool, "drop_cache"):
                self.memory_guard.add_valve("pool.drop_cache", pool.drop_cache)
        #: Worker layout, recorded in checkpoints: ``(0, 0)`` for this
        #: single-process engine; :class:`~repro.train.parallel
        #: .DataParallelTrainer` overrides with ``(N, grains)``. The layout
        #: is part of the determinism contract (it selects the RNG-stream
        #: decomposition), so resuming under a different one is refused.
        self.grad_workers = 0
        self.grad_grains = 0
        #: batches drawn so far: the index chaos batch faults target, and
        #: checkpointed as ``meta/batch_index``
        self.batch_index = 0
        #: cumulative seconds per train-step phase, since construction
        self.phase_seconds: Dict[str, float] = {k: 0.0 for k in _PHASES}
        self._train_seconds = 0.0
        # Polyak pairs, resolved once: the Tensor objects are stable (only
        # their .data rebinds), so the name matching need not be repeated
        # every step the way Module.soft_update does.
        self._polyak_pairs = [
            (dict(tgt.named_parameters()), dict(src.named_parameters()))
            for tgt, src in (
                (self.target_policy, self.policy),
                (self.target_critic, self.critic),
            )
        ]
        self._polyak_pairs = [
            [(mine[name], theirs[name]) for name in mine]
            for mine, theirs in self._polyak_pairs
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker resources: nothing in this single-process engine;
        :class:`~repro.train.parallel.DataParallelTrainer` stops its
        gradient processes."""

    def timing_summary(self) -> Dict[str, float]:
        """Steps/sec plus the per-phase second totals."""
        out = dict(self.phase_seconds)
        out["total_s"] = self._train_seconds
        out["steps_per_s"] = (
            self.steps_done / self._train_seconds if self._train_seconds else 0.0
        )
        return out

    # ------------------------------------------------------------------
    # The step is split into gradient phases so the data-parallel engine
    # can run each phase on a batch *slice* in a worker process and keep
    # the optimizer/Polyak mutations in the parent. Op order is unchanged
    # from the original monolithic step — results are bit-identical.
    def _batch_context(self, batch: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Flat views shared by both gradient phases of one batch."""
        states = batch["states"]  # (B, L, D), already normalized
        rewards = batch["rewards"] * self.cfg.reward_scale
        b, l, _ = states.shape
        n = b * l
        # t-major flats: row t*B + i is batch row i at timestep t
        log_a = log_action(batch["actions"])
        return {
            "states": states,
            "next_states": batch["next_states"],
            "rewards": rewards,
            "b": b,
            "l": l,
            "n": n,
            "log_a_flat": np.ascontiguousarray(log_a.T).reshape(n),
        }

    def _critic_backward(self, ctx: Dict, rng: np.random.Generator) -> float:
        """Bellman targets + Eq. 5 critic loss/backward (no optimizer step).

        Leaves the loss gradients on ``self.critic``'s parameters and
        returns the scalar loss; the caller clips and applies the update
        (locally here, after an all-reduce in the parallel engine).
        """
        cfg = self.cfg
        bufs = self._bufs
        b, l, n = ctx["b"], ctx["l"], ctx["n"]
        next_states = ctx["next_states"]
        t1 = time.perf_counter()

        # ---- targets (raw numpy, no graph) ----------------------------
        # Same RNG order as the reference per-t loop: actions for timestep t
        # are drawn before timestep t+1's. The mixture CDF is precomputed
        # for all rows at once (consumes no RNG).
        p_tpol = fp.params_of(self.target_policy)
        tgt_feats = fp.policy_features_seq(
            self.target_policy, next_states, bufs, "tpol", p=p_tpol
        )
        glog, gmu, gls = fp.gmm_split(self.target_policy, tgt_feats, p=p_tpol)
        gcdf = fp.gmm_cdf(glog)
        a_next = np.empty(n)
        for t in range(l):
            sl = slice(t * b, (t + 1) * b)
            a_next[sl] = fp.gmm_sample(
                glog[sl], gmu[sl], gls[sl], rng, cdf=gcdf[sl]
            )
        p_tcrit = fp.params_of(self.target_critic)
        tgt_rec = fp.critic_recurrent_seq(
            self.target_critic, next_states, bufs, "tcrit", p=p_tcrit
        )
        next_logits = fp.critic_q_logits(
            self.target_critic, tgt_rec, log_action(a_next), bufs, "tcrit", p=p_tcrit
        )
        next_p = softmax_np(next_logits, out=bufs.get("tcrit.p", next_logits.shape))
        rewards_flat = np.ascontiguousarray(ctx["rewards"].T).reshape(n)
        target_probs = fp.project_target(
            self.critic.head, rewards_flat, cfg.gamma, next_p
        )
        t2 = time.perf_counter()

        # ---- policy evaluation (critic loss, Eq. 5) -------------------
        rec = self.critic.recurrent_seq_fused(ctx["states"])
        feats = self.critic.q_features(rec, ctx["log_a_flat"])
        # flat mean over L*B rows == reference mean of per-t means (equal B)
        critic_loss = self.critic.head.cross_entropy(feats, target_probs)
        self.opt_critic.zero_grad()
        critic_loss.backward()
        t3 = time.perf_counter()

        ph = self.phase_seconds
        ph["targets"] += t2 - t1
        ph["critic"] += t3 - t2
        return float(critic_loss.data)

    def _policy_backward(self, ctx: Dict, rng: np.random.Generator):
        """Advantage filter + Eq. 6 policy loss/backward (no optimizer step).

        Must run *after* the critic update for this batch: the filter reads
        the freshly-updated critic. Returns ``(policy_loss, mean_f)``.
        """
        cfg = self.cfg
        bufs = self._bufs
        b, l, n = ctx["b"], ctx["l"], ctx["n"]
        states = ctx["states"]
        log_a_flat = ctx["log_a_flat"]
        t3 = time.perf_counter()

        # ---- advantage filter (raw numpy, no graph) -------------------
        # The policy features are built on the autograd path because the
        # improvement step below reuses the same graph; the filter reads
        # only their .data. Critic features must be recomputed from the
        # *updated* critic (the optimizer just rebound its weights).
        pol_feats = self.policy.features_seq_fused(states)
        plog, pmu, pls = fp.gmm_split(self.policy, pol_feats.data)
        pcdf = fp.gmm_cdf(plog)
        p_crit = fp.params_of(self.critic)
        rec_np = fp.critic_recurrent_seq(self.critic, states, bufs, "crit", p=p_crit)
        # reference draw order: t outer, j in m_samples inner
        m = cfg.m_samples
        a_samp = np.empty((m, n))
        for t in range(l):
            sl = slice(t * b, (t + 1) * b)
            cdf_t, mu_t, ls_t = pcdf[sl], pmu[sl], pls[sl]
            for j in range(m):
                a_samp[j, sl] = fp.gmm_sample(
                    plog[sl], mu_t, ls_t, rng, cdf=cdf_t
                )
        # fold the data action + the m baseline draws into one
        # ((m+1)*N, ·) critic pass: rows [0:N] give Q(s, a_data), the
        # rest the baseline evaluations
        hdim = rec_np.shape[1]
        rec_all = bufs.get("filter.rec_all", ((m + 1) * n, hdim))
        rec_all.reshape(m + 1, n, hdim)[:] = rec_np
        la_all = bufs.get("filter.la_all", ((m + 1) * n,))
        la_all[:n] = log_a_flat
        la_all[n:] = log_action(a_samp.reshape(-1))
        q_all = fp.critic_q_values(
            self.critic, rec_all, la_all, bufs, "critm", p=p_crit
        )
        q_data = q_all[:n]
        q_base = q_all[n:].reshape(m, n)
        adv = q_data - q_base.sum(axis=0) / m
        if cfg.filter_type == "binary":
            f_flat = (adv > 0).astype(float)
        else:
            f_flat = np.minimum(np.exp(adv / cfg.adv_temperature), cfg.f_max)
        t4 = time.perf_counter()

        # ---- policy improvement (Eq. 6) -------------------------------
        logp = self.policy.log_prob(pol_feats, log_a_flat)
        policy_loss = (Tensor(f_flat) * logp * -1.0).mean()
        self.opt_policy.zero_grad()
        policy_loss.backward()
        t5 = time.perf_counter()

        ph = self.phase_seconds
        ph["filter"] += t4 - t3
        ph["policy"] += t5 - t4
        return float(policy_loss.data), float(f_flat.mean())

    def _polyak_update(self) -> None:
        """Soft target updates — same math and .data-rebinding semantics
        as ``Module.soft_update``, minus the per-step dict building."""
        tau = self.cfg.target_tau
        for pairs in self._polyak_pairs:
            for tgt, src in pairs:
                tgt.data = (1.0 - tau) * tgt.data + tau * src.data

    def train_step(self) -> Dict[str, float]:
        """One fused policy-evaluation + policy-improvement iteration."""
        cfg = self.cfg
        t0 = time.perf_counter()
        batch = self._sample_batch()
        self.batch_index += 1
        if self._chaos is not None:
            # sampled arrays are copies, mutation is safe
            self._chaos.mutate_batch(self.batch_index - 1, batch)
        ctx = self._batch_context(batch)
        self.phase_seconds["sample"] += time.perf_counter() - t0

        critic_loss = self._critic_backward(ctx, self.rng)
        tc = time.perf_counter()
        clip_grad_norm(self.critic.parameters(), cfg.grad_clip)
        self.opt_critic.step()
        self.phase_seconds["critic"] += time.perf_counter() - tc

        policy_loss, mean_f = self._policy_backward(ctx, self.rng)
        tp = time.perf_counter()
        clip_grad_norm(self.policy.parameters(), cfg.grad_clip)
        self.opt_policy.step()
        self.phase_seconds["policy"] += time.perf_counter() - tp

        tu = time.perf_counter()
        self._polyak_update()
        t_end = time.perf_counter()
        self.phase_seconds["update"] += t_end - tu
        self._train_seconds += t_end - t0

        self.steps_done += 1
        metrics = {
            "critic_loss": critic_loss,
            "policy_loss": policy_loss,
            "mean_f": mean_f,
        }
        for k, v in metrics.items():
            self.history[k].append(v)
        return metrics

    # ------------------------------------------------------------------
    def train(
        self,
        n_steps: int,
        log_every: int = 0,
        metrics_callback: Optional[MetricsCallback] = None,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        guard=None,
    ) -> Dict[str, float]:
        """Like :meth:`CRRTrainer.train`, plus periodic checkpointing:
        every ``checkpoint_every`` steps, and after the last one, the full
        training state is saved to ``checkpoint_path`` (overwritten in
        place) — each checkpointed step once, the final state always.

        ``guard`` arms a :class:`~repro.train.guard.DivergenceGuard`: each
        step's metrics are checked, and on divergence (non-finite values,
        loss explosion) the trainer restores its last clean in-memory
        snapshot and replays from there. A consumed poisoned batch (e.g.
        an injected ``train.nan`` fault) is therefore fully masked — the
        replayed steps are bit-identical to a run that never saw it.
        Exhausting the guard's rollback budget raises
        :class:`~repro.train.guard.TrainingDiverged`.
        """
        if checkpoint_every and not checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        start = self.steps_done
        end = start + n_steps
        snapshot = self.capture_state() if guard is not None else None
        metrics: Dict[str, float] = {}
        while self.steps_done < end:
            if self.memory_guard is not None:
                self.memory_guard.maybe_check()
            if guard is not None:
                restored = int(snapshot["meta/steps_done"][0])
                try:
                    metrics = self.train_step()
                except (ValueError, ArithmeticError) as exc:
                    # poisoned numbers can crash the step outright (NaN
                    # rewards break the C51 projection) — same recovery
                    guard.record_failure(
                        self.steps_done,
                        f"{type(exc).__name__}: {exc}",
                        restored_step=restored,
                    )
                    self.restore_state(snapshot)
                    continue
                event = guard.check(
                    self.steps_done - 1, metrics, restored_step=restored
                )
                if event is not None:
                    # the poisoned step is gone: parameters, optimizer
                    # moments, RNG, batch index, history all rewind
                    self.restore_state(snapshot)
                    continue
            else:
                metrics = self.train_step()
            i = self.steps_done - start  # clean steps completed this call
            if metrics_callback is not None:
                if log_every == 0 or i % log_every == 0:
                    metrics_callback(self.steps_done, metrics)
            elif log_every and i % log_every == 0:
                print(
                    f"step {self.steps_done}: "
                    f"critic={metrics['critic_loss']:.4f} "
                    f"policy={metrics['policy_loss']:.4f} "
                    f"f={metrics['mean_f']:.3f}"
                )
            if checkpoint_every and (
                i % checkpoint_every == 0 or self.steps_done == end
            ):
                self.save_checkpoint(checkpoint_path)
            if guard is not None and i % guard.config.snapshot_every == 0:
                snapshot = self.capture_state()
        return metrics

    # ------------------------------------------------------------------
    # Checkpointing: everything needed to resume a run mid-stream —
    # all four networks, both Adam states, the RNG stream, the batch
    # index, and the metric history — in one stored .npz. The same
    # payload doubles as the in-memory snapshot the DivergenceGuard
    # rollback restores.
    def _state_payload(self) -> Dict[str, np.ndarray]:
        payload: Dict[str, np.ndarray] = {}
        nets = (
            ("policy", self.policy),
            ("critic", self.critic),
            ("target_policy", self.target_policy),
            ("target_critic", self.target_critic),
        )
        for prefix, net in nets:
            for name, value in net.state_dict().items():
                payload[f"{prefix}/{name}"] = value
        for prefix, opt in (("opt_policy", self.opt_policy), ("opt_critic", self.opt_critic)):
            payload[f"{prefix}/t"] = np.array([opt.t], dtype=np.int64)
            for i, (m, v) in enumerate(zip(opt._m, opt._v)):
                payload[f"{prefix}/m{i}"] = m
                payload[f"{prefix}/v{i}"] = v
        payload["meta/steps_done"] = np.array([self.steps_done], dtype=np.int64)
        payload["meta/grad_workers"] = np.array([self.grad_workers], dtype=np.int64)
        payload["meta/grad_grains"] = np.array([self.grad_grains], dtype=np.int64)
        payload["meta/batch_index"] = np.array([self.batch_index], dtype=np.int64)
        payload["meta/rng_state"] = np.array(
            json.dumps(self.rng.bit_generator.state)
        )
        for key, values in self.history.items():
            payload[f"meta/history/{key}"] = np.asarray(values, dtype=np.float64)
        return payload

    def _apply_payload(self, data, keys) -> None:
        # The worker layout selects the RNG-stream decomposition (one
        # trainer stream vs per-(step, grain) streams), so a checkpoint is
        # only resumable under the layout that wrote it. Checked before any
        # state is mutated. Pre-parallel checkpoints carry no layout keys
        # and mean the single-process layout (0, 0).
        saved_workers = (
            int(data["meta/grad_workers"][0]) if "meta/grad_workers" in keys else 0
        )
        saved_grains = (
            int(data["meta/grad_grains"][0]) if "meta/grad_grains" in keys else 0
        )
        if (saved_workers, saved_grains) != (self.grad_workers, self.grad_grains):
            raise ValueError(
                f"checkpoint was saved with --grad-workers {saved_workers} "
                f"(grains={saved_grains}) but this trainer runs "
                f"--grad-workers {self.grad_workers} "
                f"(grains={self.grad_grains}); the worker layout is part of "
                "the determinism contract — resume with the same layout"
            )
        nets = (
            ("policy", self.policy),
            ("critic", self.critic),
            ("target_policy", self.target_policy),
            ("target_critic", self.target_critic),
        )
        for prefix, net in nets:
            state = {
                key[len(prefix) + 1 :]: data[key]
                for key in keys
                if key.startswith(f"{prefix}/")
            }
            net.load_state_dict(state)
        for prefix, opt in (
            ("opt_policy", self.opt_policy),
            ("opt_critic", self.opt_critic),
        ):
            opt.t = int(data[f"{prefix}/t"][0])
            for i in range(len(opt._m)):
                opt._m[i] = data[f"{prefix}/m{i}"].copy()
                opt._v[i] = data[f"{prefix}/v{i}"].copy()
        self.steps_done = int(data["meta/steps_done"][0])
        self.rng.bit_generator.state = json.loads(str(data["meta/rng_state"]))
        self.batch_index = int(data["meta/batch_index"][0])
        for key in self.history:
            hk = f"meta/history/{key}"
            if hk in keys:  # absent in pre-resilience checkpoints
                self.history[key].clear()
                self.history[key].extend(np.asarray(data[hk]).tolist())

    def capture_state(self) -> Dict[str, np.ndarray]:
        """Deep-copied in-memory snapshot of the full training state."""
        return {k: np.array(v, copy=True) for k, v in self._state_payload().items()}

    def restore_state(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Rewind to a :meth:`capture_state` snapshot (bit-exact)."""
        self._apply_payload(
            {k: np.array(v, copy=True) for k, v in snapshot.items()},
            list(snapshot.keys()),
        )

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the full training state, with a CRC sidecar.

        A crash mid-write can never leave a truncated checkpoint under the
        real name, and ``<path>.crc32`` lets :meth:`load_checkpoint` reject
        silent corruption (see :mod:`repro.persist`).
        """
        write_npz_atomic(path, self._state_payload())

    def load_checkpoint(self, path: str) -> None:
        """Restore a :meth:`save_checkpoint` file, verifying integrity.

        When the ``.crc32`` sidecar exists the file's checksum and size
        must match it; a corrupt or truncated archive, or a valid one that
        is not this trainer's checkpoint (missing keys, other shapes),
        raises ``ValueError`` and leaves the trainer exactly as it was.
        """
        path = Path(path)
        verify_sidecar(path, "checkpoint")
        before = self.capture_state()
        try:
            with np.load(path, allow_pickle=False) as data:
                self._apply_payload(data, list(data.files))
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
            self.restore_state(before)  # a member can fail after others applied
            if isinstance(exc, ValueError):
                raise
            raise ValueError(
                f"checkpoint {path} is not a valid .npz archive: {exc}"
            ) from exc
