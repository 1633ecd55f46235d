"""repro.datastore — the data plane: a sharded, mmap-backed trajectory store.

Sage's offline pool *is* the system: >1000 environments x 13 schemes of
``{state, action, reward}`` trajectories, collected once and then sampled
for every training run. The in-memory ``PolicyPool`` must fit in RAM twice
over (arrays + concat cache); this package is the out-of-core pool and the
only form a pool takes on disk:

- :class:`ShardWriter` (``writer``) — append-only streaming ingest with a
  fixed shard-size budget, per-file CRC32 checksums, and atomic
  tmp-then-rename commits;
- :class:`Manifest` / :func:`verify_store` (``manifest``) — the JSON index
  of every trajectory and shard, with integrity audit and corrupt-shard
  quarantine;
- :class:`ShardedPool` (``reader``) — the ``PolicyPool`` sampling API over
  read-only ``mmap``'d shards with a bounded hot-shard LRU (each file's
  ``.npy`` header is parsed once, so an LRU miss is one ``mmap``);
  bit-identical draws for the same seed;
- ``convert`` — :func:`pack_pool`, and the ``pool merge / stats`` plumbing.
"""

from repro.datastore.convert import merge_stores, pack_pool, store_stats
from repro.datastore.manifest import (
    Manifest,
    ShardRecord,
    TrajectoryRecord,
    VerifyReport,
    verify_store,
)
from repro.datastore.reader import ShardCache, ShardedPool
from repro.datastore.writer import (
    DEFAULT_SHARD_BYTES,
    ShardWriter,
    StoreFullError,
)

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "Manifest",
    "ShardCache",
    "ShardRecord",
    "ShardWriter",
    "ShardedPool",
    "StoreFullError",
    "TrajectoryRecord",
    "VerifyReport",
    "merge_stores",
    "pack_pool",
    "store_stats",
    "verify_store",
]
