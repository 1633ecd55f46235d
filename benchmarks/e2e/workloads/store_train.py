"""``store_train`` — the data plane and the learner, no simulator under them.

A synthetic pool from the seed is ingested through ``ShardWriter`` (write),
sampled through ``ShardedPool`` twice — *cold*, the default 8 handles over
14 shards so the ``ShardCache`` LRU thrashes, and *hot*, 16 handles so it
never misses — and fed to ``FastCRRTrainer`` at GRU-128, where math and not
dispatch dominates the step. The cold/hot pair is one working set on either
side of the cache size: a ~20x cliff.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List

from harness import Outcome, Recorder, Workload, array_digest, digest, median, now, steady

BATCH, SEQ = 16, 8


class StoreTrain(Workload):
    name = "store_train"
    phases = ("sample_cold", "sample_hot", "train")
    #: ingest runs every round and is on record, but is not gated: most of
    #: its wall is the kernel handing out page-cache pages, which on a
    #: virtual machine costs 2 or 20 us a page depending on whether the
    #: host has backed that page before (README, "What is on record but not
    #: gated")
    steps = ("ingest",) + phases

    # 100 000 rows, 57 MB, 14 shards; the gated slices are ~0.2 s each on
    # the reference box
    N_TRAJECTORIES = 250
    TRAJECTORY_LEN = 400
    SHARD_BYTES = 4 << 20
    COLD_DRAWS = 50
    HOT_DRAWS = 1000
    TRAIN_STEPS = 4
    WARMUP_STEPS = 3
    IDENTITY_DRAWS = 32

    modules = (
        "repro.collector.pool",
        "repro.datastore",
        "repro.train",
    )

    def setup(self, seed: int, tmp: str) -> None:
        import numpy as np

        from repro.collector.pool import PolicyPool, Trajectory
        from repro.core.crr import CRRConfig
        from repro.core.networks import NetworkConfig
        from repro.datastore import ShardedPool, verify_store
        from repro.train import FastCRRTrainer

        self.seed = seed
        self.tmp = tmp
        rng = np.random.default_rng(seed)
        schemes = ("cubic", "vegas", "bbr2", "newreno")
        n = self.TRAJECTORY_LEN
        self.trajectories = [
            Trajectory(
                scheme=schemes[i % len(schemes)],
                env_id=f"synthetic-{i}",
                multi_flow=False,
                states=rng.standard_normal((n, 69)),
                actions=rng.uniform(0.5, 2.0, n),
                rewards=rng.uniform(0.0, 1.0, n),
            )
            for i in range(self.N_TRAJECTORIES)
        ]
        self.pool_bytes = sum(
            t.states.nbytes + t.actions.nbytes + t.rewards.nbytes
            for t in self.trajectories
        )

        self.store = os.path.join(tmp, "store")
        self.shards_written = self._write_store(self.store)
        start = now()
        report = verify_store(self.store)
        self.verify_s = now() - start
        self.store_clean = report.clean

        start = now()
        self.cold = ShardedPool.open(self.store)
        self.open_s = now() - start
        self.hot = ShardedPool.open(self.store, max_open_shards=16)
        self.inmem = PolicyPool(self.trajectories)
        self.sample_rngs = {
            "sample_cold": np.random.default_rng(seed + 1),
            "sample_hot": np.random.default_rng(seed + 1),
        }
        self.identity = self._identity_digests()

        self.trainer = FastCRRTrainer(
            self.cold,
            NetworkConfig(enc_dim=128, gru_dim=128),
            CRRConfig(batch_size=BATCH, seq_len=SEQ),
            seed=seed,
        )
        for _ in range(self.WARMUP_STEPS):
            self.trainer.train_step()
        self.phase_base = dict(self.trainer.phase_seconds)
        self.step_s: List[float] = []
        self.losses: List[float] = []
        #: phase -> (wall, traced) of every slice
        self.walls: Dict[str, List[tuple]] = {p: [] for p in self.steps}

    def teardown(self) -> None:
        self.trainer.close()

    def _write_store(self, root: str) -> int:
        from repro.datastore import ShardWriter

        with ShardWriter(root, shard_bytes=self.SHARD_BYTES) as writer:
            for trajectory in self.trajectories:
                writer.add(trajectory)
        return writer.n_shards

    def _identity_digests(self) -> Dict[str, str]:
        """The same draws from the cold, hot and in-memory pools."""
        import numpy as np

        out = {}
        for name, pool in (("cold", self.cold), ("hot", self.hot), ("inmem", self.inmem)):
            rng = np.random.default_rng(self.seed + 2)
            arrays = []
            for _ in range(self.IDENTITY_DRAWS):
                batch = pool.sample_sequences(BATCH, SEQ, rng)
                arrays.extend(batch[k] for k in sorted(batch))
            out[name] = array_digest(arrays)
        return out

    # ------------------------------------------------------------------
    def step(self, phase: str, rec: Recorder) -> Dict[str, float]:
        wall = getattr(self, "_" + phase)(rec)
        self.walls[phase].append((wall, rec.enabled))
        return {phase: wall}

    def _ingest(self, rec: Recorder) -> float:
        root = os.path.join(self.tmp, f"ingest{len(self.walls['ingest'])}")
        with rec.span("datastore.ingest"):
            start = now()
            self._write_store(root)
            wall = now() - start
        shutil.rmtree(root)
        return wall

    def _sample(self, phase: str, pool, draws: int, rec: Recorder) -> float:
        rng = self.sample_rngs[phase]
        with rec.span(f"datastore.{phase}"):
            start = now()
            for _ in range(draws):
                pool.sample_sequences(BATCH, SEQ, rng)
            return now() - start

    def _sample_cold(self, rec: Recorder) -> float:
        return self._sample("sample_cold", self.cold, self.COLD_DRAWS, rec)

    def _sample_hot(self, rec: Recorder) -> float:
        return self._sample("sample_hot", self.hot, self.HOT_DRAWS, rec)

    def _train(self, rec: Recorder) -> float:
        trainer = self.trainer
        with rec.span("train.steps"):
            start = now()
            for _ in range(self.TRAIN_STEPS):
                t0 = now()
                metrics = trainer.train_step()
                self.step_s.append(now() - t0)
                self.losses.append(metrics["critic_loss"])
                self.losses.append(metrics["policy_loss"])
            return now() - start

    # ------------------------------------------------------------------
    def finish(self, rec: Recorder, trace: bool) -> Outcome:
        import math

        bad_steps = sum(
            1 for i in range(0, len(self.losses), 2)
            if not (math.isfinite(self.losses[i]) and math.isfinite(self.losses[i + 1]))
        )
        work = {
            "ingest": self.N_TRAJECTORIES,
            "sample_cold": self.COLD_DRAWS,
            "sample_hot": self.HOT_DRAWS,
            "train": self.TRAIN_STEPS,
        }
        checks = {
            "store_clean_after_ingest": self.store_clean,
            "shard_count_exceeds_default_cache": self.shards_written > 8,
            "cold_hot_inmem_draws_bit_identical": len(set(self.identity.values())) == 1,
            "training_losses_finite": bad_steps == 0,
        }
        digests = {
            "samples": self.identity["inmem"],
            # first slice only: the number of slices depends on the box
            "losses": digest(self.losses[: 2 * self.TRAIN_STEPS]),
            "manifest": digest(
                [[f.crc32 for f in s.files.values()] for s in self.cold.manifest.shards]
            ),
        }
        layers = self._layers() if trace else {}
        return Outcome(
            attempted=sum(work[p] * len(self.walls[p]) for p in self.steps),
            failed=bad_steps,
            checks=checks,
            digests=digests,
            layers=layers,
        )

    def _layers(self) -> Dict[str, float]:
        import numpy as np

        windows = {"sample_cold": self.COLD_DRAWS * BATCH, "sample_hot": self.HOT_DRAWS * BATCH}
        wall = {p: steady(w for w, traced in self.walls[p] if traced) for p in self.steps}
        layers = {
            "datastore.ingest_s": wall["ingest"],
            "datastore.ingest_mb_per_s": self.pool_bytes / 1e6 / wall["ingest"],
            "datastore.shards_written": self.shards_written,
            "datastore.verify_mb_per_s": self.pool_bytes / 1e6 / self.verify_s,
            "datastore.open_s": self.open_s,
            "train.samples_per_s": self.TRAIN_STEPS * BATCH * SEQ / wall["train"],
            "train.step_ms_p50": median(self.step_s) * 1e3,
        }
        for side, pool in (("cold", self.cold), ("hot", self.hot)):
            cache = pool.cache
            layers[f"datastore.{side}.windows_per_s"] = (
                windows[f"sample_{side}"] / wall[f"sample_{side}"]
            )
            layers[f"datastore.{side}.cache_hits"] = cache.hits
            layers[f"datastore.{side}.cache_misses"] = cache.misses
            layers[f"datastore.{side}.cache_hit_ratio"] = cache.hits / (cache.hits + cache.misses)

        rng = np.random.default_rng(self.seed + 1)
        start = now()
        for _ in range(self.HOT_DRAWS):
            self.inmem.sample_sequences(BATCH, SEQ, rng)
        layers["datastore.inmem_sample_windows_per_s"] = (
            self.HOT_DRAWS * BATCH / (now() - start)
        )

        # seconds per train slice, warm-up steps excluded
        n_slices = len(self.walls["train"])
        timing = self.trainer.timing_summary()
        for phase in ("sample", "targets", "critic", "filter", "policy", "update"):
            layers[f"train.phase.{phase}_s"] = (
                (timing[phase] - self.phase_base[phase]) / n_slices
            )

        path = os.path.join(self.tmp, "checkpoint.npz")
        start = now()
        self.trainer.save_checkpoint(path)
        layers["train.checkpoint_save_s"] = now() - start
        layers["train.checkpoint_mb"] = os.path.getsize(path) / 1e6
        start = now()
        self.trainer.load_checkpoint(path)
        layers["train.checkpoint_load_s"] = now() - start
        return layers
