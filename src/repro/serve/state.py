"""Crash-tolerant serving state: snapshot / restore for :class:`PolicyServer`.

The serving plane is the one long-lived *stateful* process in the system:
per-flow GRU hidden rows, session RNG streams, fallback-controller state,
and the tier router's bookkeeping all live in the server. Losing them on a
crash means every flow restarts cold — exactly the failure mode a learned
policy handles worst. A snapshot captures the **complete** decision-
relevant state, so a server killed mid-workload and restored from its last
snapshot emits a decision stream bitwise identical to one that never died.

File format: one ``.npz`` (tmp-then-rename) with a CRC32 sidecar —
the same atomicity/integrity contract as train checkpoints and distilled
controllers. Numeric columns are stored as arrays; sessions, RNG states,
pending submissions' metadata, and metrics ride in an embedded JSON blob
(Python's ``json`` round-trips floats exactly, so nothing is lossy).

What is *not* captured: the policy weights. A snapshot pairs with the
checkpoint the server was built from; restoring into a server holding
different weights is caught by the hidden-dimension check only when the
shapes differ, so keep checkpoints and snapshots together.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.engine import PolicyServer

from repro.persist import verify_sidecar, write_npz_atomic
from repro.serve.fallback import make_fallback
from repro.serve.metrics import ServingMetrics

__all__ = ["SNAPSHOT_SCHEMA_VERSION", "save_snapshot", "load_snapshot"]

SNAPSHOT_SCHEMA_VERSION = 1

_COLUMNS = ("last_ratio", "cwnd_est", "miss_streak", "degraded", "nn_age")


# ---------------------------------------------------------------------------
def save_snapshot(server: "PolicyServer", path) -> None:
    """Atomically persist the server's complete per-flow serving state."""
    sessions = []
    for flow_id, sess in server._sessions.items():
        entry: Dict = {
            "flow_id": int(flow_id),
            "row": int(sess.row),
            "rng": sess.rng.bit_generator.state,
            "fallback": None,
        }
        if sess.fallback is not None:
            entry["fallback"] = {
                "name": sess.fallback.name,
                "state": sess.fallback.state_dict(),
            }
        sessions.append(entry)
    pending_ids = list(server._pending)
    if pending_ids:
        pending_states = np.stack(
            [server._pending[f][0] for f in pending_ids]
        )
        pending_cwnd = np.array(
            [np.nan if server._pending[f][1] is None
             else float(server._pending[f][1])
             for f in pending_ids]
        )
    else:
        pending_states = np.zeros((0, 0))
        pending_cwnd = np.zeros(0)
    meta = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "hdim": server._hdim,
        "capacity": server.capacity,
        "tick_index": server._tick_index,
        "free": [int(r) for r in server._free],
        "sessions": sessions,
        "pending_ids": [int(f) for f in pending_ids],
        "metrics": server.metrics.to_state(),
    }
    payload = {
        "meta/json": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "cols/table": server._table,
        "cols/last_ratio": server._last_ratio,
        "cols/cwnd_est": server._cwnd_est,
        "cols/miss_streak": server._miss_streak,
        "cols/degraded": server._degraded,
        "cols/nn_age": server._nn_age,
        "pending/states": pending_states,
        "pending/cwnd": pending_cwnd,
    }
    write_npz_atomic(path, payload)


def load_snapshot(server: "PolicyServer", path) -> None:
    """Restore :func:`save_snapshot` state into ``server`` in place.

    ``server`` must hold the same policy (hidden dimension) the snapshot
    was taken with. Its existing sessions and pending queue are replaced
    wholesale. A snapshot whose session table does not fit its capacity
    (a row out of range, shared, or also on the free list) is refused
    with ``ValueError`` and ``server`` is left as it was.
    """
    from repro.serve.engine import _FlowSession  # local: import cycle

    path = Path(path)
    verify_sidecar(path, "server snapshot")
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise ValueError(
            f"server snapshot {path} is not a valid .npz archive: {exc}"
        ) from exc
    with data:
        if "meta/json" not in data.files:
            raise ValueError(
                f"server snapshot {path} is missing meta/json; not a "
                f"snapshot file"
            )
        meta = json.loads(bytes(data["meta/json"]).decode("utf-8"))
        version = int(meta.get("schema_version", -1))
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"server snapshot {path} has schema version {version}; "
                f"this build reads version {SNAPSHOT_SCHEMA_VERSION}"
            )
        if int(meta["hdim"]) != server._hdim:
            raise ValueError(
                f"server snapshot {path} was taken with hidden dim "
                f"{meta['hdim']}; this server's policy has {server._hdim} "
                f"— snapshot and checkpoint do not pair"
            )
        table = np.asarray(data["cols/table"], dtype=np.float64)
        cols = {
            name: np.asarray(data[f"cols/{name}"]) for name in _COLUMNS
        }
        pending_states = np.asarray(data["pending/states"])
        pending_cwnd = np.asarray(data["pending/cwnd"])

    # everything is read and checked before the first server field changes,
    # so a refused snapshot leaves the server as it was
    capacity = int(meta["capacity"])
    if any(len(col) != capacity for col in cols.values()):
        raise ValueError(
            f"server snapshot {path}: a row column is not {capacity} long; "
            f"refusing to restore"
        )
    free = [int(r) for r in meta["free"]]
    _check_rows(path, capacity, [int(e["row"]) for e in meta["sessions"]], free)
    table = table.reshape(capacity, server._hdim)
    sessions = {}
    for entry in meta["sessions"]:
        rng = np.random.default_rng()
        rng.bit_generator.state = entry["rng"]
        sess = _FlowSession(int(entry["row"]), rng)
        fb = entry.get("fallback")
        if fb is not None:
            sess.fallback = make_fallback(fb["name"])
            sess.fallback.load_state(fb.get("state", {}))
        sessions[int(entry["flow_id"])] = sess
    pending = {}
    for i, flow_id in enumerate(meta.get("pending_ids", [])):
        cwnd = float(pending_cwnd[i])
        pending[int(flow_id)] = (
            np.asarray(pending_states[i], dtype=np.float64),
            None if np.isnan(cwnd) else cwnd,
        )
    metrics = ServingMetrics.from_state(meta["metrics"])

    server._table = table
    server._last_ratio = cols["last_ratio"].astype(np.float64)
    server._cwnd_est = cols["cwnd_est"].astype(np.float64)
    server._miss_streak = cols["miss_streak"].astype(np.int64)
    server._degraded = cols["degraded"].astype(bool)
    server._nn_age = cols["nn_age"].astype(np.int64)
    server._free = free
    server._tick_index = int(meta["tick_index"])
    server.metrics = metrics
    server._sessions = sessions
    server._pending = pending


def _check_rows(path, capacity: int, rows, free) -> None:
    """``ValueError`` unless the sessions hold distinct rows in
    ``[0, capacity)`` and the free list holds distinct other ones."""
    held, listed = set(rows), set(free)
    outside = sorted(r for r in held | listed if not 0 <= r < capacity)
    if outside:
        why = f"rows {outside} are outside [0, {capacity})"
    elif len(held) < len(rows):
        why = "two sessions share a row"
    elif len(listed) < len(free):
        why = "the free list repeats a row"
    elif held & listed:
        why = f"session rows {sorted(held & listed)} are on the free list"
    else:
        return
    raise ValueError(f"server snapshot {path}: {why}; refusing to restore")
