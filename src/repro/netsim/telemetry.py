"""Queue telemetry capture for training the learned ECN predictor.

:class:`QueueTelemetryRecorder` hooks into one
:class:`~repro.netsim.topo.TopoLink` (``link.telemetry = recorder``) and
logs one row per *admitted* packet:

- the four predictor features **as seen at enqueue time** — occupancy
  fraction just before admission, the queue's sojourn EWMA, arrival-rate
  EWMA, and the link drain rate — i.e. exactly what
  :class:`~repro.netsim.aqm.LearnedECN` would have computed for its own
  marking decision, and
- the outcome label, resolved at dequeue: the packet's actual sojourn time
  through the buffer.

:mod:`repro.aqm_learn` turns these rows into a supervised dataset
(``y = sojourn > target``): the predictor learns, from how the heuristic
queue actually behaved, to recognise *at enqueue* the packets that will go
on to blow the delay target. Traces persist as schema-versioned ``.npz``
shards so fits are reproducible and CI can ship tiny fixtures.

The hook is ``None`` by default and the link's fast path does not change
when it is absent, so droptail event streams stay bit-identical.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.netsim.ecn_model import FEATURES
from repro.netsim.packet import Packet

__all__ = ["QueueTelemetryRecorder", "TRACE_SCHEMA_VERSION", "load_traces"]

#: bump when the trace .npz layout changes
TRACE_SCHEMA_VERSION = 1

_EWMA_ALPHA = 0.1


class QueueTelemetryRecorder:
    """Per-link queue-telemetry logger (features at enqueue, sojourn label)."""

    def __init__(self, max_rows: int = 1_000_000) -> None:
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        self.max_rows = int(max_rows)
        self.features: List[tuple] = []
        self.sojourns: List[float] = []
        self.dropped_rows = 0
        self._pending: Dict[int, tuple] = {}
        self._sojourn_ewma = 0.0
        self._arrival_rate = 0.0
        self._last_arrival = -1.0

    def __len__(self) -> int:
        return len(self.sojourns)

    # -- TopoLink hooks ------------------------------------------------
    def on_enqueue(self, aqm, pkt: Packet, now: float) -> None:
        """Record the feature snapshot for an admitted packet.

        Called *after* admission, so occupancy is reconstructed as the
        backlog excluding the packet itself — what the marking decision at
        arrival would have seen.
        """
        if self._last_arrival >= 0.0 and now > self._last_arrival:
            inst = pkt.size * 8.0 / (now - self._last_arrival)
            self._arrival_rate += _EWMA_ALPHA * (inst - self._arrival_rate)
        self._last_arrival = now
        if len(self.sojourns) + len(self._pending) >= self.max_rows:
            self.dropped_rows += 1
            return
        row = (
            max(aqm.bytes_queued - pkt.size, 0) / aqm.capacity_bytes,
            self._sojourn_ewma,
            self._arrival_rate,
            aqm.current_rate_bps,
        )
        # Packet has __slots__, so key pending rows by object identity; the
        # id stays valid until dequeue because the buffer holds the packet.
        self._pending[id(pkt)] = row

    def on_dequeue(self, pkt: Packet, now: float) -> None:
        """Resolve a pending row with the packet's realised sojourn time."""
        row = self._pending.pop(id(pkt), None)
        sojourn = now - pkt.enqueue_time
        self._sojourn_ewma += _EWMA_ALPHA * (sojourn - self._sojourn_ewma)
        if row is None:
            return
        self.features.append(row)
        self.sojourns.append(sojourn)

    # -- dataset export ------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Completed rows as ``{"features": (N, 4), "sojourns": (N,)}``."""
        n = len(self.sojourns)
        feats = np.asarray(self.features[:n], dtype=np.float64).reshape(n, len(FEATURES))
        return {
            "features": feats,
            "sojourns": np.asarray(self.sojourns, dtype=np.float64),
        }

    def save(self, path) -> Path:
        """Write completed rows as a schema-versioned trace shard."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = self.to_arrays()
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                **{
                    "meta/schema_version": np.array(
                        [TRACE_SCHEMA_VERSION], dtype=np.int64
                    ),
                    "trace/features": arrays["features"],
                    "trace/sojourns": arrays["sojourns"],
                },
            )
        os.replace(tmp, path)
        return path


def load_traces(paths) -> Dict[str, np.ndarray]:
    """Load and concatenate one or more trace shards written by ``save``."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValueError("no trace shards given")
    feats: List[np.ndarray] = []
    sojourns: List[np.ndarray] = []
    for p in paths:
        p = Path(p)
        try:
            data = np.load(p, allow_pickle=False)
        except Exception as exc:
            raise ValueError(f"queue trace {p} is unreadable: {exc}") from exc
        with data:
            keys = set(data.files)
            required = {"meta/schema_version", "trace/features", "trace/sojourns"}
            missing = sorted(required - keys)
            if missing:
                raise ValueError(
                    f"queue trace {p} is missing keys {missing}; "
                    f"not a telemetry shard"
                )
            version = int(data["meta/schema_version"][0])
            if version != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"queue trace {p} has schema version {version}; this "
                    f"build reads version {TRACE_SCHEMA_VERSION}"
                )
            f = np.asarray(data["trace/features"], dtype=np.float64)
            s = np.asarray(data["trace/sojourns"], dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != len(FEATURES) or f.shape[0] != s.shape[0]:
            raise ValueError(
                f"queue trace {p} has inconsistent shapes "
                f"{f.shape} / {s.shape}"
            )
        feats.append(f)
        sojourns.append(s)
    return {
        "features": np.concatenate(feats, axis=0),
        "sojourns": np.concatenate(sojourns, axis=0),
    }
