"""Greedy CART regression trees in pure numpy.

The distilled symbolic controller is a single regression tree over
(GR-state, hidden-summary) features predicting the policy's log cwnd
ratio. A tree answers in ``depth`` float comparisons per row — one
gather per level for a whole serving batch — which is what lets the
tiered router keep the batched GRU forward off the common path.

Fitting is classic greedy CART with two twists sized for this repo:

- **best-first growth** under an explicit leaf budget: candidate splits
  live in a max-heap keyed by SSE reduction, so a ``max_leaves`` cap keeps
  the *most useful* splits rather than whatever a depth-first sweep reached
  first;
- **prefix-sum split search**: per (node, feature) the targets are sorted
  by feature value once and every admissible cut point is scored from
  cumulative sums — O(N log N) per feature, no per-threshold rescan.

Every leaf stores the training-set standard deviation of its targets;
:meth:`RegressionTree.predict` returns it as a per-row *confidence*
``1 / (1 + std)`` — the uncertainty gate the serving router thresholds on.

The fitted tree is frozen into flat arrays (feature index, threshold,
child indices, leaf value/confidence). Construction validates them once
(children in range, features in range, no cycle, the stored depth equal
to the real one) and compiles a branch-free walk: leaves become
self-loops, so batched prediction is exactly ``depth`` gather steps over
the whole batch with no per-level masking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TreeConfig:
    """Fitting budgets for the distilled controller."""

    max_depth: int = 12
    max_leaves: int = 256
    min_leaf: int = 16  # no leaf may hold fewer training samples
    min_gain: float = 1e-9  # SSE reduction below this is noise, not signal

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


def _best_split(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> Tuple[float, int, float]:
    """The best (gain, feature, threshold) for one node's sample set.

    Gain is the SSE reduction of the split vs the unsplit node. Returns
    ``(-inf, -1, 0.0)`` when no admissible split exists (constant features
    or the ``min_leaf`` floor).
    """
    n, n_features = x.shape
    best_gain, best_f, best_thr = -np.inf, -1, 0.0
    if n < 2 * min_leaf:
        return best_gain, best_f, best_thr
    sse_parent = float(np.sum((y - y.mean()) ** 2))
    for f in range(n_features):
        xs = x[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys = y[order]
        # admissible cut points: between distinct feature values, with at
        # least min_leaf samples on each side
        cum = np.cumsum(ys)
        cum2 = np.cumsum(ys * ys)
        total, total2 = cum[-1], cum2[-1]
        k = np.arange(1, n)  # left side takes the first k samples
        valid = (k >= min_leaf) & (k <= n - min_leaf)
        valid &= xs_sorted[1:] > xs_sorted[:-1]
        if not np.any(valid):
            continue
        kl = k[valid].astype(np.float64)
        sum_l, sum2_l = cum[:-1][valid], cum2[:-1][valid]
        sse_l = sum2_l - sum_l * sum_l / kl
        kr = n - kl
        sum_r, sum2_r = total - sum_l, total2 - sum2_l
        sse_r = sum2_r - sum_r * sum_r / kr
        gains = sse_parent - (sse_l + sse_r)
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_f = f
            # midpoint threshold: robust to unseen values between the two
            idx = k[valid][i]
            best_thr = float(
                (xs_sorted[idx - 1] + xs_sorted[idx]) / 2.0
            )
    return best_gain, best_f, best_thr


class RegressionTree:
    """A fitted CART regression tree, frozen into flat arrays.

    ``feature[i] == -1`` marks node ``i`` as a leaf; internal nodes route
    ``x[feature] <= threshold`` left. Leaves carry ``value`` (mean training
    target) and ``conf`` (``1 / (1 + std)`` of training targets).

    The constructor refuses (``ValueError``) arrays that are not a tree of
    exactly ``depth`` levels over ``n_features`` features, so a loaded
    file either predicts what it was fitted to or is not used at all.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "conf",
                 "n_features", "depth", "_walk_feature", "_walk_threshold",
                 "_walk_kids")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        conf: np.ndarray,
        n_features: int,
        depth: int,
    ) -> None:
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.conf = np.asarray(conf, dtype=np.float64)
        self.n_features = int(n_features)
        self.depth = int(depth)
        self._validate()
        # the compiled walk: a leaf tests feature 0 against +inf and both
        # of its children are itself, so once a row lands on a leaf every
        # further step keeps it there (NaN fails ``<=`` and goes right,
        # which for a leaf is the leaf too). ``_walk_kids`` is the
        # ``(n_nodes, 2)`` child table flattened: entry ``2 * i + 1`` is
        # node i's ``x <= threshold`` child, ``2 * i`` its other one.
        leaf = self.feature < 0
        nodes = np.arange(self.n_nodes, dtype=np.intp)
        self._walk_feature = np.where(leaf, 0, self.feature).astype(np.intp)
        self._walk_threshold = np.where(leaf, np.inf, self.threshold)
        kids = np.empty((self.n_nodes, 2), dtype=np.intp)
        kids[:, 0] = np.where(leaf, nodes, self.right)
        kids[:, 1] = np.where(leaf, nodes, self.left)
        self._walk_kids = kids.ravel()

    def _validate(self) -> None:
        """Raise ``ValueError`` unless the arrays form one tree of depth
        ``self.depth`` whose splits read features in ``[0, n_features)``."""
        n = self.feature.size
        arrays = (self.threshold, self.left, self.right, self.value, self.conf)
        if (self.feature.ndim != 1 or n == 0
                or any(a.shape != (n,) for a in arrays)):
            raise ValueError(
                "tree arrays must be 1-D, non-empty and of equal length"
            )
        if self.n_features < 1:
            raise ValueError(f"tree needs n_features >= 1, got {self.n_features}")
        leaf = self.feature == -1
        inner = ~leaf
        if np.any(self.feature[inner] < 0) or np.any(
            self.feature[inner] >= self.n_features
        ):
            raise ValueError(
                f"tree splits on a feature outside [0, {self.n_features})"
            )
        if np.any(self.left[leaf] != -1) or np.any(self.right[leaf] != -1):
            raise ValueError("a tree leaf has children")
        for kids in (self.left[inner], self.right[inner]):
            if np.any(kids < 0) or np.any(kids >= n):
                raise ValueError(f"a tree node has a child outside [0, {n})")
        # walk from the root: a node reached twice means a cycle (or a
        # shared subtree), and the deepest leaf gives the real depth
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        level, depth = np.array([0]), 0
        while True:
            level = level[inner[level]]
            if not len(level):
                break
            level = np.concatenate([self.left[level], self.right[level]])
            if np.any(seen[level]) or len(np.unique(level)) != len(level):
                raise ValueError("tree nodes do not form a tree (cycle)")
            seen[level] = True
            depth += 1
        if depth != self.depth:
            raise ValueError(
                f"tree is {depth} levels deep but records depth {self.depth}"
            )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        config: Optional[TreeConfig] = None,
    ) -> "RegressionTree":
        """Fit a tree to ``(N, F)`` features and ``(N,)`` targets."""
        cfg = config if config is not None else TreeConfig()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError(
                f"need (N, F) features and (N,) targets, got {x.shape} / {y.shape}"
            )
        if len(x) == 0:
            raise ValueError("cannot fit a tree to an empty dataset")

        # growable node storage; children appended as splits are committed
        feature: List[int] = [-1]
        threshold: List[float] = [0.0]
        left: List[int] = [-1]
        right: List[int] = [-1]
        value: List[float] = [float(y.mean())]
        conf: List[float] = [1.0 / (1.0 + float(y.std()))]
        depths: List[int] = [0]
        samples = {0: np.arange(len(x))}

        # best-first frontier: (-gain, tiebreak, node_id, feature, thr)
        heap: List[Tuple[float, int, int, int, float]] = []
        counter = 0

        def _propose(node_id: int) -> None:
            nonlocal counter
            if depths[node_id] >= cfg.max_depth:
                return
            idx = samples[node_id]
            gain, f, thr = _best_split(x[idx], y[idx], cfg.min_leaf)
            if f >= 0 and gain > cfg.min_gain:
                heapq.heappush(heap, (-gain, counter, node_id, f, thr))
                counter += 1

        _propose(0)
        n_leaves = 1
        max_depth_seen = 0
        while heap and n_leaves < cfg.max_leaves:
            _neg_gain, _c, node_id, f, thr = heapq.heappop(heap)
            idx = samples.pop(node_id)
            go_left = x[idx, f] <= thr
            for side, child_idx in ((True, idx[go_left]), (False, idx[~go_left])):
                child_id = len(feature)
                yc = y[child_idx]
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(float(yc.mean()))
                conf.append(1.0 / (1.0 + float(yc.std())))
                depths.append(depths[node_id] + 1)
                samples[child_id] = child_idx
                if side:
                    left[node_id] = child_id
                else:
                    right[node_id] = child_id
            feature[node_id] = f
            threshold[node_id] = thr
            max_depth_seen = max(max_depth_seen, depths[node_id] + 1)
            n_leaves += 1  # one leaf became two
            _propose(left[node_id])
            _propose(right[node_id])

        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.float64),
            conf=np.array(conf, dtype=np.float64),
            n_features=x.shape[1],
            depth=max_depth_seen,
        )

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Route a ``(N, F)`` batch to leaves: ``(values, confidences)``.

        Exactly ``depth`` gather steps over the whole batch: each step
        reads every row's split feature and moves it to one of two
        children, and a row already at a leaf stays there. Bit-identical
        to :meth:`predict_one` row by row, NaN and infinities included.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"tree expects {self.n_features} features, got {x.shape[1]}"
            )
        flat = np.ascontiguousarray(x).ravel()
        base = np.arange(len(x), dtype=np.intp) * self.n_features
        feat, thr, kids = (self._walk_feature, self._walk_threshold,
                           self._walk_kids)
        node = np.zeros(len(x), dtype=np.intp)
        for _ in range(self.depth):
            go_left = flat.take(base + feat.take(node)) <= thr.take(node)
            node = kids.take(2 * node + go_left)
        return self.value.take(node), self.conf.take(node)

    def predict_one(self, x: np.ndarray) -> Tuple[float, float]:
        """Scalar reference walk (tests pin :meth:`predict` against this)."""
        x = np.asarray(x, dtype=np.float64)
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node]), float(self.conf[node])

    # ------------------------------------------------------------------
    def rules(
        self, feature_names: Optional[List[str]] = None, max_rules: int = 0
    ) -> List[str]:
        """Render the tree as human-readable if-then rules (one per leaf)."""
        names = feature_names or [f"x{i}" for i in range(self.n_features)]
        out: List[str] = []
        stack: List[Tuple[int, List[str]]] = [(0, [])]
        while stack:
            node, path = stack.pop()
            if self.feature[node] < 0:
                cond = " and ".join(path) if path else "always"
                out.append(
                    f"if {cond}: value={self.value[node]:+.4f} "
                    f"(conf={self.conf[node]:.3f})"
                )
                if max_rules and len(out) >= max_rules:
                    break
                continue
            name = names[self.feature[node]]
            thr = self.threshold[node]
            stack.append((self.right[node], path + [f"{name} > {thr:.4g}"]))
            stack.append((self.left[node], path + [f"{name} <= {thr:.4g}"]))
        return out
