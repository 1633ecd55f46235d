"""Distillation dataset: replay pool trajectories through the frozen policy.

The symbolic controller is trained to imitate what the serving engine's
tier-1 forward *would* answer. Each pool trajectory's raw Table-1 states
are replayed through :class:`~repro.core.networks.FastPolicy` in
deterministic mode — exactly the batched fixed-block gemm path the server
runs — and every step contributes one ``(features, log-ratio)`` pair:

- **features** are the normalized 69-dim GR state (the same
  ``normalize_state`` + optional mask transform the server applies) plus an
  8-number *hidden summary* of the GRU state the flow carried into the
  tick. The raw hidden vector (64-1024 dims) would blow up tree fitting
  and, worse, tie the tree to one checkpoint's basis; cheap permutation-
  invariant statistics carry the "how saturated / how excited is the
  memory" signal the branchy rules actually need.
- **target** is the log of the deterministic (mode) cwnd ratio the NN
  produced.

Replay is batched across trajectories: all trajectories advance together,
one ``(n_active, 69)`` forward per timestep, so dataset generation costs
the same as serving the pool once.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.collector.gr_unit import STATE_FIELDS, normalize_state
from repro.core.networks import FastPolicy

#: names of the hidden-summary features, appended after the 69 GR fields
HIDDEN_SUMMARY_FIELDS: List[str] = [
    "h_mean", "h_std", "h_min", "h_max",
    "h_absmean", "h_rms", "h_posfrac", "h_absmax",
]

HIDDEN_SUMMARY_DIM = len(HIDDEN_SUMMARY_FIELDS)

#: total distillation feature dimension: Table-1 state + hidden summary
FEATURE_DIM = len(STATE_FIELDS) + HIDDEN_SUMMARY_DIM


def feature_names() -> List[str]:
    """Feature labels, in column order (for rule rendering / debugging)."""
    return list(STATE_FIELDS) + list(HIDDEN_SUMMARY_FIELDS)


def hidden_summary(h: Optional[np.ndarray], n: int) -> np.ndarray:
    """Summarize ``(N, H)`` hidden rows to ``(N, 8)`` statistics.

    ``None`` (the no-GRU ablation) yields zeros — the tree then learns a
    purely state-driven controller.
    """
    if h is None:
        return np.zeros((n, HIDDEN_SUMMARY_DIM))
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        h = h[None, :]
    out = np.empty((len(h), HIDDEN_SUMMARY_DIM))
    out[:, 0] = h.mean(axis=1)
    out[:, 1] = h.std(axis=1)
    out[:, 2] = h.min(axis=1)
    out[:, 3] = h.max(axis=1)
    ab = np.abs(h)
    out[:, 4] = ab.mean(axis=1)
    out[:, 5] = np.sqrt((h * h).mean(axis=1))
    out[:, 6] = (h > 0).mean(axis=1)
    out[:, 7] = ab.max(axis=1)
    return out


def _iter_trajectories(pool) -> Iterable:
    """Uniform trajectory iteration over PolicyPool / ShardedPool."""
    it = getattr(pool, "iter_trajectories", None)
    if it is not None:
        return it()
    return iter(pool.trajectories)


def build_distill_dataset(
    fast: FastPolicy,
    pool,
    state_mask: Optional[np.ndarray] = None,
    max_samples: Optional[int] = None,
    max_trajectories: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay ``pool`` through ``fast``; return ``(X (N, 77), y (N,))``.

    ``y`` is the log of the deterministic cwnd ratio. ``max_samples``
    subsamples the finished dataset with an even deterministic stride;
    ``max_trajectories`` truncates the replay set first (cheaper).
    """
    states_list: List[np.ndarray] = []
    for k, traj in enumerate(_iter_trajectories(pool)):
        if max_trajectories is not None and k >= max_trajectories:
            break
        raw = np.asarray(traj.states, dtype=np.float64)
        if len(raw):
            states_list.append(raw)
    if not states_list:
        raise ValueError("pool holds no trajectories to distill from")

    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    # advance all trajectories together: one (n_active, 69) forward per t
    lengths = np.array([len(s) for s in states_list])
    order = np.argsort(-lengths, kind="stable")  # longest first
    states_list = [states_list[i] for i in order]
    lengths = lengths[order]
    n = len(states_list)
    h = fast.initial_state_batch(n)
    for t in range(int(lengths.max())):
        n_active = int(np.searchsorted(-lengths, -t, side="left"))
        if n_active == 0:
            break
        raw_t = np.stack([states_list[i][t] for i in range(n_active)])
        x = normalize_state(raw_t)
        if state_mask is not None:
            x = x * state_mask
        h_active = None if h is None else h[:n_active]
        xs.append(np.concatenate([x, hidden_summary(h_active, n_active)], axis=1))
        ratios, h_next = fast.step_batch(x, h_active)
        ys.append(np.log(ratios))
        if h is not None:
            h[:n_active] = h_next

    x_all = np.concatenate(xs, axis=0)
    y_all = np.concatenate(ys, axis=0)
    if max_samples is not None and len(x_all) > max_samples:
        idx = np.linspace(0, len(x_all) - 1, max_samples).astype(np.int64)
        x_all, y_all = x_all[idx], y_all[idx]
    return x_all, y_all
