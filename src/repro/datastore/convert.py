"""Store lifecycle operations: pack, merge, stats.

- :func:`pack_pool` — write a pool (an in-memory :class:`PolicyPool` or
  another store) into a sharded store;
- :func:`merge_stores` — concatenate several stores (e.g. per-worker shard
  dirs) into one, re-sharding at the target budget (``repro pool merge``);
- :func:`store_stats` — per-scheme transition counts plus the shard /
  checksum table (``repro pool stats``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

from repro.collector.pool import PolicyPool
from repro.datastore.reader import ShardedPool
from repro.datastore.writer import DEFAULT_SHARD_BYTES, ShardWriter

__all__ = ["pack_pool", "merge_stores", "store_stats"]

#: a store directory, an open store or an in-memory pool
PoolSource = Union[str, Path, PolicyPool, ShardedPool]


def _iter_source(source: PoolSource):
    """Yield trajectories from any pool source, lazily where possible."""
    if isinstance(source, (str, Path)):
        source = ShardedPool.open(source)
    if isinstance(source, ShardedPool):
        yield from source.iter_trajectories()
    else:
        yield from source.trajectories


def pack_pool(
    source: PoolSource,
    out_dir,
    shard_bytes: int = DEFAULT_SHARD_BYTES,
) -> ShardedPool:
    """Convert ``source`` into a sharded store at ``out_dir``.

    Trajectory order is preserved, so sampling from the returned
    :class:`ShardedPool` is bit-identical to sampling the source pool with
    the same seed.
    """
    with ShardWriter(out_dir, shard_bytes=shard_bytes) as writer:
        for traj in _iter_source(source):
            writer.add(traj)
    return ShardedPool.open(out_dir)


def merge_stores(
    sources: Sequence[PoolSource],
    out_dir,
    shard_bytes: int = DEFAULT_SHARD_BYTES,
) -> ShardedPool:
    """Merge several stores (or in-memory pools) into one at ``out_dir``.

    Sources are concatenated in the order given (and in manifest order
    within each), one trajectory resident at a time.
    """
    if not sources:
        raise ValueError("need at least one source to merge")
    with ShardWriter(out_dir, shard_bytes=shard_bytes) as writer:
        for source in sources:
            for traj in _iter_source(source):
                writer.add(traj)
    return ShardedPool.open(out_dir)


def store_stats(root) -> str:
    """The ``pool stats`` report: summary + per-shard checksum table."""
    pool = ShardedPool.open(root)
    manifest = pool.manifest
    lines = [pool.summary(), ""]
    lines.append(
        f"{len(manifest.shards)} shard(s), schema v{manifest.schema_version}, "
        f"state_dim={manifest.state_dim}"
    )
    lines.append(f"{'shard':14s} {'trajs':>6s} {'rows':>10s} "
                 f"{'bytes':>12s} {'states crc32':>12s}")
    for shard in manifest.shards:
        total_bytes = sum(f.bytes for f in shard.files.values())
        lines.append(
            f"{shard.name:14s} {shard.n_trajectories:>6d} {shard.rows:>10d} "
            f"{total_bytes:>12d} {shard.files['states'].crc32:>#12x}"
        )
    return "\n".join(lines)
