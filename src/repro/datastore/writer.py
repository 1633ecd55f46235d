"""ShardWriter: append-only streaming ingest into a sharded store.

Collector workers produce one trajectory at a time; the writer buffers them
until a fixed byte budget is reached, then commits the buffer as one shard
— three plain ``.npy`` files (states / actions / rewards, trajectories
concatenated along axis 0) so readers can ``np.load(mmap_mode="r")`` them.
Commits are atomic: each array is written to a ``*.tmp`` file and
``os.replace``d into place, and the manifest is rewritten (also atomically)
after every shard, so a killed collection run leaves a valid store holding
every shard committed so far — never a half-written one.

Usage::

    with ShardWriter(out_dir, shard_bytes=32 << 20) as w:
        for rollout in rollouts:
            w.add_rollout(rollout)
    # close() flushed the tail shard and wrote the final manifest
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.collector.pool import Trajectory
from repro.datastore.manifest import (
    Manifest,
    ShardFile,
    ShardRecord,
    TrajectoryRecord,
)
from repro.persist import file_crc32

__all__ = ["ShardWriter", "StoreFullError", "DEFAULT_SHARD_BYTES"]

#: default shard budget — big enough to amortize file overhead, small
#: enough that a corrupt shard quarantines a sliver of the pool
DEFAULT_SHARD_BYTES = 32 << 20

#: approximate .npy v1 header bytes per component file, for budget math
_NPY_HEADER_BYTES = 128


class StoreFullError(OSError):
    """A flush was refused (disk budget) or failed (``ENOSPC``) atomically.

    Either way the store on disk is untouched — the manifest still
    describes exactly the shards committed before the failed flush — and
    the writer's buffer is preserved, so the caller can free space (or
    raise the budget) and call ``flush()`` again.
    """


class ShardWriter:
    """Append-only writer for a sharded trajectory store.

    Parameters
    ----------
    root:
        Store directory (created if missing). Must not already contain a
        manifest unless ``append=True``.
    shard_bytes:
        Soft per-shard budget over the summed array bytes; a shard is cut
        as soon as the buffer reaches it. One oversized trajectory still
        gets a (single-trajectory) shard of its own.
    append:
        Continue an existing store, adding shards after the ones already
        in its manifest.
    chaos:
        Optional :class:`~repro.chaos.inject.FaultInjector`; pending
        ``datastore.*`` faults (bit-flips, truncations) are applied to the
        matching shard's files *after* the shard and manifest commit — the
        corruption is exactly what
        :func:`~repro.datastore.manifest.verify_store` must catch.
    disk_budget_bytes:
        Optional hard cap on the store's total array bytes. A flush whose
        projected size would cross it raises :class:`StoreFullError`
        *before* touching disk; an ``ENOSPC`` from the filesystem
        mid-flush is unwound to the same guarantee (committed-prefix
        manifest, buffer preserved).
    """

    def __init__(
        self,
        root,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
        append: bool = False,
        chaos=None,
        disk_budget_bytes: Optional[int] = None,
    ) -> None:
        if shard_bytes < 1:
            raise ValueError("shard_bytes must be positive")
        if disk_budget_bytes is not None and disk_budget_bytes < 1:
            raise ValueError("disk_budget_bytes must be positive or None")
        self.disk_budget_bytes = (
            None if disk_budget_bytes is None else int(disk_budget_bytes)
        )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shard_bytes = int(shard_bytes)
        manifest_path = self.root / "manifest.json"
        if manifest_path.exists():
            if not append:
                raise FileExistsError(
                    f"{self.root} already holds a store; pass append=True "
                    "to extend it"
                )
            self.manifest = Manifest.load(self.root)
        else:
            self.manifest: Optional[Manifest] = None  # created on first add
        self._buffer: List[Trajectory] = []
        self._buffered_bytes = 0
        self._closed = False
        self._chaos = chaos

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.manifest.shards) if self.manifest else 0

    @property
    def n_trajectories(self) -> int:
        committed = len(self.manifest.trajectories) if self.manifest else 0
        return committed + len(self._buffer)

    # ------------------------------------------------------------------
    def add(self, traj: Trajectory) -> None:
        """Buffer one trajectory; cuts a shard when the budget is reached."""
        if self._closed:
            raise RuntimeError("ShardWriter is closed")
        if traj.length == 0:
            raise ValueError(
                f"refusing to store zero-length trajectory "
                f"{traj.scheme!r} on {traj.env_id!r}"
            )
        states = np.ascontiguousarray(traj.states)
        if states.ndim != 2:
            raise ValueError(
                f"states must be 2-D (T, state_dim), got shape {states.shape}"
            )
        if self.manifest is None:
            self.manifest = Manifest(
                state_dim=int(states.shape[1]),
                dtypes={
                    "states": str(states.dtype),
                    "actions": str(np.asarray(traj.actions).dtype),
                    "rewards": str(np.asarray(traj.rewards).dtype),
                },
            )
        elif states.shape[1] != self.manifest.state_dim:
            raise ValueError(
                f"state_dim {states.shape[1]} != store's "
                f"{self.manifest.state_dim}"
            )
        self._buffer.append(traj)
        self._buffered_bytes += (
            states.nbytes
            + np.asarray(traj.actions).nbytes
            + np.asarray(traj.rewards).nbytes
        )
        if self._buffered_bytes >= self.shard_bytes:
            self.flush()

    def add_rollout(self, rollout) -> None:
        """Append a :class:`~repro.collector.rollout.RolloutResult`."""
        self.add(
            Trajectory(
                scheme=rollout.scheme,
                env_id=rollout.env.env_id,
                multi_flow=rollout.env.is_multi_flow,
                states=rollout.states,
                actions=rollout.actions,
                rewards=rollout.rewards,
            )
        )

    # ------------------------------------------------------------------
    def _store_bytes(self) -> int:
        """Total array bytes already committed to the store."""
        if self.manifest is None:
            return 0
        return sum(
            f.bytes for s in self.manifest.shards for f in s.files.values()
        )

    def _commit_array(self, name: str, arr: np.ndarray) -> ShardFile:
        """Atomically write one component array and checksum it."""
        path = self.root / name
        tmp = self.root / (name + ".tmp")
        with open(tmp, "wb") as fh:
            np.save(fh, arr)
        os.replace(tmp, path)
        return ShardFile(file=name, crc32=file_crc32(path), bytes=path.stat().st_size)

    def flush(self) -> None:
        """Commit buffered trajectories as one shard + updated manifest."""
        if self._closed:
            raise RuntimeError("ShardWriter is closed")
        if not self._buffer:
            return
        manifest = self.manifest
        dtypes = manifest.dtypes
        shard_idx = len(manifest.shards)
        name = f"shard-{shard_idx:05d}"
        states = np.concatenate(
            [np.asarray(t.states, dtype=dtypes["states"]) for t in self._buffer]
        )
        actions = np.concatenate(
            [np.asarray(t.actions, dtype=dtypes["actions"]) for t in self._buffer]
        )
        rewards = np.concatenate(
            [np.asarray(t.rewards, dtype=dtypes["rewards"]) for t in self._buffer]
        )
        projected = (
            states.nbytes + actions.nbytes + rewards.nbytes
            + 3 * _NPY_HEADER_BYTES
        )
        if (
            self.disk_budget_bytes is not None
            and self._store_bytes() + projected > self.disk_budget_bytes
        ):
            raise StoreFullError(
                f"flush refused: shard would grow the store to "
                f"~{self._store_bytes() + projected} bytes, over the "
                f"{self.disk_budget_bytes}-byte budget; the manifest still "
                f"describes the {shard_idx} committed shard(s) and the "
                f"buffer is preserved"
            )
        files = {}
        parts = (("states", states), ("actions", actions), ("rewards", rewards))
        try:
            for part, arr in parts:
                files[part] = self._commit_array(f"{name}.{part}.npy", arr)
        except OSError as exc:
            # unwind this shard's files so the store matches its manifest
            # (which never saw the shard); the buffer stays intact
            for part, _ in parts:
                for victim in (
                    self.root / f"{name}.{part}.npy",
                    self.root / f"{name}.{part}.npy.tmp",
                ):
                    try:
                        victim.unlink()
                    except OSError:
                        pass
            if exc.errno == errno.ENOSPC:
                raise StoreFullError(
                    f"flush of {name} hit ENOSPC and was unwound; the "
                    f"manifest still describes the {shard_idx} committed "
                    f"shard(s) and the buffer is preserved"
                ) from exc
            raise
        manifest.shards.append(
            ShardRecord(
                name=name,
                rows=int(states.shape[0]),
                n_trajectories=len(self._buffer),
                files=files,
            )
        )
        offset = 0
        for t in self._buffer:
            manifest.trajectories.append(
                TrajectoryRecord(
                    scheme=t.scheme,
                    env_id=t.env_id,
                    multi_flow=bool(t.multi_flow),
                    length=t.length,
                    shard=shard_idx,
                    offset=offset,
                )
            )
            offset += t.length
        manifest.save(self.root)
        if self._chaos is not None:
            self._chaos.corrupt_shard(self.root, shard_idx, files)
        self._buffer = []
        self._buffered_bytes = 0

    def close(self) -> None:
        """Flush the tail shard and finalize the manifest (idempotent)."""
        if self._closed:
            return
        self.flush()
        if self.manifest is None:
            # an empty collection run still leaves a valid (empty) store
            self.manifest = Manifest(state_dim=0)
        self.manifest.save(self.root)
        self._closed = True

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
