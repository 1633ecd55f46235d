"""ShardedPool: the PolicyPool API served out-of-core from mmap'd shards.

Where :class:`~repro.collector.pool.PolicyPool` holds every trajectory (and
a second concatenated copy) in RAM, a :class:`ShardedPool` keeps only the
manifest's integer index arrays resident and reads trajectory rows through
``np.load(mmap_mode="r")`` — the OS pages in exactly the windows a batch
touches. A bounded LRU of open shard handles keeps the hot shards' pages
warm without ever holding more than ``max_open_shards`` files open.

Sampling is **bit-identical** to the in-memory pool: both draw window
positions through :func:`repro.collector.pool.draw_window_starts` (one
shared RNG stream over the same trajectory ordering), and the gathered rows
are byte-for-byte what the writer stored. ``train_sage_on_pool`` and the
CRR trainers therefore accept either pool interchangeably.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.collector.pool import Trajectory, draw_window_starts
from repro.datastore.manifest import Manifest, TrajectoryRecord

__all__ = ["ShardedPool", "ShardCache"]


class ShardCache:
    """Bounded LRU of open shard memmaps, shared across pool views."""

    def __init__(self, root: Path, manifest: Manifest, max_open: int = 8) -> None:
        if max_open < 1:
            raise ValueError("max_open must be >= 1")
        self.root = Path(root)
        self.manifest = manifest
        self.max_open = int(max_open)
        self._open: "OrderedDict[int, Dict[str, np.ndarray]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, shard_idx: int) -> Dict[str, np.ndarray]:
        """The ``{states, actions, rewards}`` memmaps of one shard."""
        entry = self._open.get(shard_idx)
        if entry is not None:
            self.hits += 1
            self._open.move_to_end(shard_idx)
            return entry
        self.misses += 1
        shard = self.manifest.shards[shard_idx]
        entry = {}
        for part, rec in shard.files.items():
            path = self.root / rec.file
            try:
                entry[part] = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise ValueError(
                    f"cannot map shard file {path}: {exc} "
                    "(run `repro pool verify` to quarantine corrupt shards)"
                ) from exc
        self._open[shard_idx] = entry
        while len(self._open) > self.max_open:
            self._open.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every open handle (the next access reopens lazily)."""
        self._open.clear()


class ShardedPool:
    """Out-of-core drop-in for :class:`~repro.collector.pool.PolicyPool`.

    Build one with :meth:`open`; ``filter_schemes`` / ``filter_env`` return
    lightweight views that share the manifest and the shard cache.
    """

    def __init__(
        self,
        root,
        manifest: Manifest,
        records: Optional[List[TrajectoryRecord]] = None,
        cache: Optional[ShardCache] = None,
        max_open_shards: int = 8,
    ) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.records: List[TrajectoryRecord] = (
            list(manifest.trajectories) if records is None else list(records)
        )
        self.cache = (
            cache
            if cache is not None
            else ShardCache(self.root, manifest, max_open=max_open_shards)
        )
        self._lengths = np.array(
            [t.length for t in self.records], dtype=np.int64
        )
        self._shard_of = np.array(
            [t.shard for t in self.records], dtype=np.int64
        )
        self._offsets = np.array(
            [t.offset for t in self.records], dtype=np.int64
        )

    @classmethod
    def open(cls, root, max_open_shards: int = 8) -> "ShardedPool":
        """Open the store at ``root`` (a directory holding manifest.json)."""
        root = Path(root)
        return cls(
            root, Manifest.load(root), max_open_shards=max_open_shards
        )

    # ------------------------------------------------------------------
    # PolicyPool API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_transitions(self) -> int:
        return int(self._lengths.sum()) if len(self.records) else 0

    def schemes(self) -> List[str]:
        return sorted({t.scheme for t in self.records})

    def env_ids(self) -> List[str]:
        return sorted({t.env_id for t in self.records})

    def filter_schemes(self, keep: Iterable[str]) -> "ShardedPool":
        """A sub-pool view containing only the given schemes."""
        keep_set = set(keep)
        return ShardedPool(
            self.root,
            self.manifest,
            records=[t for t in self.records if t.scheme in keep_set],
            cache=self.cache,
        )

    def filter_env(self, predicate) -> "ShardedPool":
        """A sub-pool view of trajectories whose env_id satisfies ``predicate``."""
        return ShardedPool(
            self.root,
            self.manifest,
            records=[t for t in self.records if predicate(t.env_id)],
            cache=self.cache,
        )

    def grain_view(self, index: int, count: int) -> "ShardedPool":
        """Round-robin slice ``index`` of ``count`` (see
        :meth:`~repro.collector.pool.PolicyPool.grain_view`).

        Unlike the filter views, a grain view gets its own **private**
        shard cache: a data-parallel worker process sampling only its
        grains maps only the shards those grains' trajectories live in,
        so each worker's resident set is its slice of the store, not the
        whole store.
        """
        if not 0 <= index < count:
            raise ValueError(f"grain index {index} outside [0, {count})")
        return ShardedPool(
            self.root,
            self.manifest,
            records=self.records[index::count],
            cache=ShardCache(self.root, self.manifest, max_open=self.cache.max_open),
        )

    def sample_sequences(
        self,
        batch_size: int,
        seq_len: int,
        rng: np.random.Generator,
        normalize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Sample ``batch_size`` windows of ``seq_len + 1`` consecutive steps.

        Same contract — and, for the same seed and trajectory ordering, the
        same bits — as :meth:`PolicyPool.sample_sequences`, but each window
        is gathered from its shard's memmap: the resident cost is the
        touched pages, not the pool.
        """
        idx, local_starts = draw_window_starts(
            self._lengths, seq_len, batch_size, rng
        )
        span = seq_len + 1
        dtypes = self.manifest.dtypes
        s = np.empty((batch_size, span, self.manifest.state_dim), dtypes["states"])
        a = np.empty((batch_size, span), dtypes["actions"])
        r = np.empty((batch_size, span), dtypes["rewards"])

        shard_ids = self._shard_of[idx]
        shard_starts = self._offsets[idx] + local_starts
        arange = np.arange(span)
        for shard in np.unique(shard_ids):
            sel = np.nonzero(shard_ids == shard)[0]
            rows = shard_starts[sel][:, None] + arange
            arrs = self.cache.get(int(shard))
            s[sel] = arrs["states"][rows]
            a[sel] = arrs["actions"][rows]
            r[sel] = arrs["rewards"][rows]
        if normalize is not None:
            s = normalize(s)
        return {
            "states": s[:, :-1],
            "actions": a[:, :-1],
            "rewards": r[:, :-1],
            "next_states": s[:, 1:],
        }

    def drop_cache(self) -> None:
        """Close open shard handles (parity with ``PolicyPool.drop_cache``)."""
        self.cache.clear()

    # ------------------------------------------------------------------
    # Trajectory materialization (for merge/convert/inspection)
    # ------------------------------------------------------------------
    def trajectory(self, i: int) -> Trajectory:
        """Materialize trajectory ``i`` as an in-memory :class:`Trajectory`."""
        rec = self.records[i]
        arrs = self.cache.get(rec.shard)
        rows = slice(rec.offset, rec.offset + rec.length)
        return Trajectory(
            scheme=rec.scheme,
            env_id=rec.env_id,
            multi_flow=rec.multi_flow,
            states=np.array(arrs["states"][rows]),
            actions=np.array(arrs["actions"][rows]),
            rewards=np.array(arrs["rewards"][rows]),
        )

    def iter_trajectories(self) -> Iterator[Trajectory]:
        """Yield every trajectory, materialized one at a time."""
        for i in range(len(self.records)):
            yield self.trajectory(i)

    # ------------------------------------------------------------------
    def scheme_transitions(self) -> Dict[str, int]:
        """Per-scheme transition counts (same tallies as ``summary()``)."""
        by_scheme: Dict[str, int] = {}
        for t in self.records:
            by_scheme[t.scheme] = by_scheme.get(t.scheme, 0) + t.length
        return by_scheme

    def summary(self) -> str:
        """Human-readable inventory; per-scheme lines match ``PolicyPool``."""
        lines = [
            f"ShardedPool: {len(self)} trajectories, "
            f"{self.n_transitions} transitions"
        ]
        by_scheme = self.scheme_transitions()
        for scheme in sorted(by_scheme):
            lines.append(f"  {scheme:12s} {by_scheme[scheme]:8d} transitions")
        return "\n".join(lines)
