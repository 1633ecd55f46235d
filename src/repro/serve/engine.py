"""The policy-serving engine: N flows, one shared policy, tiered inference.

The paper's Execution block deploys the frozen policy per flow; serving
"heavy traffic" means many concurrent flows must share one policy without
N separate forward passes per control tick. :class:`PolicyServer` is that
tier, organized as a **three-tier router** per control tick:

- **tier 0 — symbolic fast path**: when a distilled controller
  (:class:`~repro.distill.DistilledPolicy`) is mounted, every pending flow
  is first routed through the CART tree (one vectorized walk for the whole
  batch, microseconds). Flows whose leaf confidence clears the calibrated
  gate — and whose hidden state is not overdue for a refresh — are
  answered right there and never reach the NN.
- **tier 1 — batched NN**: the uncertain remainder is gathered into a
  single ``(M, 69)`` batched forward (`FastPolicy.step_batch`, bitwise
  row-consistent for any batch composition with ``M >= 2``). With no
  distilled controller this is every flow — the engine then behaves
  exactly (bitwise) like the pre-tiering batched server.
- **tier 2 — heuristic fallback**: ratio-space CUBIC/AIMD answers flows
  whose NN output was non-finite or that degraded after ``max_misses``
  consecutive deadline misses, exactly as before.

Per-flow serving state (previous ratio, cwnd estimate, miss streak,
degradation flag, ticks since the last NN forward) lives in **row-indexed
column arrays** parallel to the hidden-state table, so the common-case
bookkeeping — the whole symbolic tier — is a handful of vectorized ops
rather than N python attribute updates. Rows are recycled through a free
list exactly like the hidden table; :meth:`connect` / :meth:`close`
allocate and free one row of everything.

The deadline machinery applies to the NN tier only: tier-0 answers are
effectively instantaneous and keep their flows fresh through an inference
brown-out. A batch of one takes the 1-D ``FastPolicy`` path (BLAS gemv),
which keeps single-flow serving bit-identical to ``SageAgent`` — the
pretrained-checkpoint gates depend on that. So composition invariance
holds for NN-tier batches of two or more: a flow's decision can change in
the last ulp on a tick where it is the only one left for the NN (the
batched kernels at ``M = 1`` would not match ``SageAgent`` either).
"""

from __future__ import annotations

import copy
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.collector.gr_unit import STATE_DIM, normalize_state
from repro.core.networks import FastPolicy, SagePolicy
from repro.resources import MemoryGuard
from repro.serve.fallback import RatioFallback, make_fallback
from repro.serve.metrics import ServingMetrics
from repro.serve.state import load_snapshot, save_snapshot


@dataclass(frozen=True)
class ServeConfig:
    """Serving-engine knobs.

    ``tick_budget`` is the inference deadline in seconds (``None`` disables
    the deadline machinery entirely — e.g. offline evaluation);
    ``max_misses`` is K, the consecutive-miss count after which a flow
    degrades to ``fallback``. ``tick_interval`` is the control period the
    fallback heuristics integrate over.

    ``confidence_threshold`` and ``refresh_every`` govern the symbolic
    tier when a distilled controller is mounted: ``None`` defers to the
    thresholds calibrated into the controller at fit time. A flow is
    answered symbolically only while its leaf confidence clears the
    threshold *and* it has had a real NN forward within the last
    ``refresh_every`` ticks (the staleness bound on its hidden state).
    """

    deterministic: bool = False
    tick_budget: Optional[float] = 0.020
    max_misses: int = 3
    fallback: str = "cubic"
    tick_interval: float = 0.02
    seed: int = 0
    state_mask: Optional[np.ndarray] = None
    initial_capacity: int = 16
    confidence_threshold: Optional[float] = None
    refresh_every: Optional[int] = None
    #: soft RSS watermark in MB; crossing it shrinks the metrics sample
    #: lists instead of letting a long soak grow without bound (None = off)
    rss_soft_limit_mb: Optional[float] = None
    rss_check_every: int = 256

    def __post_init__(self) -> None:
        if self.max_misses < 1:
            raise ValueError("max_misses must be >= 1")
        if self.tick_budget is not None and self.tick_budget < 0:
            raise ValueError("tick_budget must be >= 0 or None")
        if self.initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        if self.refresh_every is not None and self.refresh_every < 2:
            raise ValueError("refresh_every must be >= 2 (or None)")
        if self.rss_soft_limit_mb is not None and self.rss_soft_limit_mb <= 0:
            raise ValueError("rss_soft_limit_mb must be > 0 or None")
        if self.rss_check_every < 1:
            raise ValueError("rss_check_every must be >= 1")


@dataclass
class ServeDecision:
    """One served control decision for one flow."""

    flow_id: int
    ratio: float
    #: "symbolic" (distilled-tree fast path), "policy" (fresh NN inference),
    #: "stale" (deadline missed, previous ratio reused), or "heuristic"
    #: (degraded to the built-in fallback)
    source: str
    latency_s: float
    batch_size: int


class _FlowSession:
    """Per-connection objects that cannot live in the column arrays."""

    __slots__ = ("row", "rng", "fallback")

    def __init__(self, row: int, rng: np.random.Generator) -> None:
        self.row = row
        self.rng = rng
        self.fallback: Optional[RatioFallback] = None


class PolicyServer:
    """Serves one frozen policy to many concurrent flows.

    Parameters
    ----------
    policy:
        The trained :class:`SagePolicy` to freeze and serve.
    config:
        Engine knobs; defaults to :class:`ServeConfig()`.
    fast:
        Pre-built :class:`FastPolicy` (tests inject slow subclasses here to
        exercise the deadline path; also lets a caller share one snapshot).
    clock:
        Monotonic time source used for deadline accounting; injectable for
        deterministic tests.
    chaos:
        Optional :class:`~repro.chaos.inject.FaultInjector`; pending
        ``serve.*`` faults (NaN outputs, slow forwards) hit the matching
        tick inside the deadline-timed region.
    distilled:
        Optional :class:`~repro.distill.DistilledPolicy`; mounts the
        symbolic tier. ``None`` (the default) leaves the engine bitwise
        identical to the pre-tiering batched server.
    """

    def __init__(
        self,
        policy: SagePolicy,
        config: Optional[ServeConfig] = None,
        fast: Optional[FastPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        chaos=None,
        distilled=None,
    ) -> None:
        self.policy = policy
        self.config = config if config is not None else ServeConfig()
        self.fast = fast if fast is not None else FastPolicy(policy)
        self.clock = clock
        self.metrics = ServingMetrics()
        self.distilled = distilled
        self._chaos = chaos
        self._tick_index = 0  # NN forwards served, for chaos targeting
        #: serving-setup degradations (e.g. a corrupt distilled checkpoint)
        self.warnings: List[str] = []
        #: one report dict per reload_policy() call, accepted or not
        self.reload_events: List[Dict] = []
        self.memory_guard: Optional[MemoryGuard] = None
        if self.config.rss_soft_limit_mb is not None:
            self.memory_guard = MemoryGuard(
                int(self.config.rss_soft_limit_mb * 1e6),
                check_every=self.config.rss_check_every,
            )
            # bind late: self.metrics is swapped wholesale by restore()
            self.memory_guard.add_valve(
                "metrics.shrink", lambda: self.metrics.shrink()
            )

        h0 = self.fast.initial_state()
        self._hdim = 0 if h0 is None else len(h0)
        cap = self.config.initial_capacity
        self._table = np.zeros((cap, self._hdim))
        # session-table columns, parallel to the hidden table (row-indexed)
        self._last_ratio = np.ones(cap)
        self._cwnd_est = np.full(cap, 10.0)  # packets; resynced by submit()
        self._miss_streak = np.zeros(cap, dtype=np.int64)
        self._degraded = np.zeros(cap, dtype=bool)
        self._nn_age = np.zeros(cap, dtype=np.int64)  # ticks since NN forward
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self._sessions: Dict[int, _FlowSession] = {}
        #: flow_id -> (raw state, optional cwnd hint), insertion-ordered
        self._pending: Dict[int, Tuple[np.ndarray, Optional[float]]] = {}

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return len(self._sessions)

    @property
    def capacity(self) -> int:
        """Current hidden-state table capacity (rows)."""
        return len(self._table)

    def connect(
        self, flow_id: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        """Open a serving session: allocate and zero one row of state."""
        if flow_id in self._sessions:
            raise ValueError(f"flow {flow_id} already connected")
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._table[row] = 0.0
        self._last_ratio[row] = 1.0
        self._cwnd_est[row] = 10.0
        self._miss_streak[row] = 0
        self._degraded[row] = False
        self._nn_age[row] = 0
        if rng is None:
            rng = np.random.default_rng((self.config.seed, flow_id))
        self._sessions[flow_id] = _FlowSession(row, rng)

    def close(self, flow_id: int) -> None:
        """End a session: recycle its state row."""
        sess = self._sessions.pop(flow_id, None)
        if sess is None:
            raise KeyError(f"flow {flow_id} not connected")
        self._pending.pop(flow_id, None)
        self._free.append(sess.row)

    def _grow(self) -> None:
        old_cap = len(self._table)
        new_cap = 2 * old_cap

        def _double(col: np.ndarray, fill) -> np.ndarray:
            out = np.full(new_cap, fill, dtype=col.dtype)
            out[:old_cap] = col
            return out

        table = np.zeros((new_cap, self._hdim))
        table[:old_cap] = self._table
        self._table = table
        self._last_ratio = _double(self._last_ratio, 1.0)
        self._cwnd_est = _double(self._cwnd_est, 10.0)
        self._miss_streak = _double(self._miss_streak, 0)
        self._degraded = _double(self._degraded, False)
        self._nn_age = _double(self._nn_age, 0)
        self._free.extend(range(new_cap - 1, old_cap - 1, -1))

    # ------------------------------------------------------------------
    # the tick scheduler
    # ------------------------------------------------------------------
    def submit(
        self, flow_id: int, state: np.ndarray, cwnd: Optional[float] = None
    ) -> None:
        """Queue one flow's raw GR state for the next batched tick.

        ``cwnd`` optionally resyncs the server's window estimate with the
        sender's actual cwnd (the fallback heuristics integrate on it).
        """
        if flow_id not in self._sessions:
            raise KeyError(f"flow {flow_id} not connected")
        self._pending[flow_id] = (np.asarray(state, dtype=np.float64), cwnd)

    def tick(self) -> Dict[int, ServeDecision]:
        """Run one control interval: route all pending flows, decide all.

        Tier 0 (symbolic) answers every confident flow in one vectorized
        tree walk; the remainder shares one batched NN forward and
        therefore one deadline verdict. Per-flow miss streaks and
        degradation remain individual (flows join and leave batches at
        different times).
        """
        if self.memory_guard is not None:
            self.memory_guard.maybe_check()
        if not self._pending:
            return {}
        pending, self._pending = self._pending, {}
        flow_ids = list(pending)
        sessions = [self._sessions[f] for f in flow_ids]
        rows = np.fromiter((s.row for s in sessions), dtype=np.int64,
                           count=len(sessions))
        raw = np.stack([pending[f][0] for f in flow_ids])

        x = normalize_state(raw)
        if self.config.state_mask is not None:
            x = x * self.config.state_mask

        # resync window estimates from the senders' cwnd hints
        hints = np.array(
            [np.nan if pending[f][1] is None else float(pending[f][1])
             for f in flow_ids]
        )
        hinted = ~np.isnan(hints)
        if hinted.any():
            self._cwnd_est[rows[hinted]] = hints[hinted]

        decisions: Dict[int, ServeDecision] = {}

        # -- tier 0: the distilled symbolic fast path ---------------------
        if self.distilled is not None:
            t0 = self.clock()
            h_rows = self._table[rows] if self._hdim else None
            sym_ratios, confs = self.distilled.predict(x, h_rows)
            cfg = self.config
            thr = (cfg.confidence_threshold
                   if cfg.confidence_threshold is not None
                   else self.distilled.conf_threshold)
            refresh = (cfg.refresh_every if cfg.refresh_every is not None
                       else self.distilled.refresh_every)
            sym_mask = (
                (confs >= thr)
                & (self._nn_age[rows] + 1 < refresh)
                & np.isfinite(sym_ratios)
                & (sym_ratios > 0)
            )
            sym_elapsed = self.clock() - t0
            n_sym = int(np.count_nonzero(sym_mask))
            if n_sym:
                srows = rows[sym_mask]
                ratios_s = sym_ratios[sym_mask]
                # a symbolic answer is fresh: it clears deadline debt
                self._miss_streak[srows] = 0
                self._degraded[srows] = False
                self._nn_age[srows] += 1
                self._last_ratio[srows] = ratios_s
                self._cwnd_est[srows] = np.clip(
                    self._cwnd_est[srows] * ratios_s, 1.0, 4096.0
                )
                self.metrics.record_tier_latency("symbolic", sym_elapsed)
                self.metrics.record_decisions("symbolic", n_sym)
                for i in np.nonzero(sym_mask)[0]:
                    fid = flow_ids[i]
                    sessions[i].fallback = None
                    decisions[fid] = ServeDecision(
                        flow_id=fid,
                        ratio=float(sym_ratios[i]),
                        source="symbolic",
                        latency_s=sym_elapsed,
                        batch_size=n_sym,
                    )
            nn_idx = np.nonzero(~sym_mask)[0]
            if len(nn_idx) == 0:
                return decisions
        else:
            nn_idx = np.arange(len(flow_ids))

        # -- tier 1: the batched NN forward -------------------------------
        nn_sessions = [sessions[i] for i in nn_idx]
        x_nn = x[nn_idx] if len(nn_idx) < len(flow_ids) else x
        t0 = self.clock()
        ratios, h_next = self._forward(x_nn, nn_sessions)
        if self._chaos is not None:
            # inside the timed region: a serve.slow fault shows up as real
            # inference latency, a serve.nan fault as poisoned outputs
            ratios, h_next = self._chaos.mutate_serve(
                self._tick_index, ratios, h_next
            )
        elapsed = self.clock() - t0
        self._tick_index += 1
        self._commit_hidden(nn_sessions, h_next)
        self._nn_age[rows[nn_idx]] = 0

        budget = self.config.tick_budget
        missed = budget is not None and elapsed > budget
        self.metrics.record_tick(len(nn_idx), elapsed, missed)

        # -- tier 1/2 per-flow commit (NN, stale, or heuristic) -----------
        n_batch = len(nn_idx)
        for j, i in enumerate(nn_idx):
            fid = flow_ids[i]
            sess = sessions[i]
            row = sess.row
            if not missed:
                value = float(ratios[j])
                if np.isfinite(value):
                    self._miss_streak[row] = 0
                    self._degraded[row] = False
                    sess.fallback = None
                    ratio, source = value, "policy"
                else:
                    # a non-finite ratio must never reach a sender's cwnd:
                    # route this decision through the heuristic instead
                    self.metrics.invalid_actions += 1
                    ratio, source = self._heuristic_ratio(sess, raw[i]), "heuristic"
            else:
                self._miss_streak[row] += 1
                if self._miss_streak[row] >= self.config.max_misses:
                    self._degraded[row] = True
                    ratio, source = self._heuristic_ratio(sess, raw[i]), "heuristic"
                else:
                    # late result discarded: hold the previous cwnd ratio
                    ratio, source = float(self._last_ratio[row]), "stale"
            self._last_ratio[row] = ratio
            self._cwnd_est[row] = min(max(self._cwnd_est[row] * ratio, 1.0), 4096.0)
            self.metrics.record_decision(source)
            decisions[fid] = ServeDecision(
                flow_id=fid,
                ratio=ratio,
                source=source,
                latency_s=elapsed,
                batch_size=n_batch,
            )
        return decisions

    def serve_one(
        self, flow_id: int, state: np.ndarray, cwnd: Optional[float] = None
    ) -> ServeDecision:
        """Submit + tick for a single flow (the thin-client entry point)."""
        self.submit(flow_id, state, cwnd=cwnd)
        return self.tick()[flow_id]

    # ------------------------------------------------------------------
    def _heuristic_ratio(self, sess: _FlowSession, raw_state: np.ndarray) -> float:
        """One tier-2 decision: lazily build and time the flow's fallback."""
        if sess.fallback is None:
            sess.fallback = make_fallback(self.config.fallback)
        t0 = self.clock()
        ratio = float(
            sess.fallback.ratio(
                raw_state, self._cwnd_est[sess.row], self.config.tick_interval
            )
        )
        self.metrics.record_tier_latency("heuristic", self.clock() - t0)
        return ratio

    def _forward(
        self, x: np.ndarray, sessions: List[_FlowSession]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One forward pass; batch=1 takes the 1-D gemv path (bit-exact
        with ``SageAgent``)."""
        if len(sessions) == 1:
            sess = sessions[0]
            h = self._table[sess.row] if self._hdim else None
            if self.config.deterministic:
                ratio, h = self.fast.step(x[0], h)
            else:
                ratio, h = self.fast.sample_step(x[0], h, sess.rng)
            h_next = None if h is None else h[None, :]
            return np.array([ratio]), h_next
        rows = [s.row for s in sessions]
        h = self._table[rows] if self._hdim else None
        if self.config.deterministic:
            return self.fast.step_batch(x, h)
        return self.fast.sample_step_batch(x, h, [s.rng for s in sessions])

    def _commit_hidden(
        self, sessions: List[_FlowSession], h_next: Optional[np.ndarray]
    ) -> None:
        # Hidden state advances even on a deadline miss: the forward did
        # complete (just late), and keeping recurrent continuity makes
        # post-brown-out recovery seamless. Non-finite rows are the one
        # exception — a poisoned forward must not contaminate recurrent
        # state, so those flows keep their previous hidden state.
        if h_next is None or not self._hdim:
            return
        for i, sess in enumerate(sessions):
            row = h_next[i]
            if np.all(np.isfinite(row)):
                self._table[sess.row] = row

    # ------------------------------------------------------------------
    # crash tolerance: snapshot / restore, hot reload, tier-0 mounting
    # ------------------------------------------------------------------
    def snapshot(self, path) -> None:
        """Persist the complete per-flow serving state (see serve.state).

        Atomic (tmp-then-replace) with a CRC32 sidecar; a server restored
        from the file continues the decision stream bit-identically.
        """
        save_snapshot(self, path)

    def restore(self, path) -> None:
        """Load a :meth:`snapshot` file into this server, in place.

        The server must hold the same policy checkpoint the snapshot was
        taken with; sessions, column state, pending submissions, and
        metrics are replaced wholesale. Raises ``ValueError`` on a corrupt
        or mismatched snapshot.
        """
        load_snapshot(self, path)

    def mount_distilled(self, source) -> Optional[str]:
        """Mount (or replace) the tier-0 symbolic controller.

        ``source`` is a :class:`~repro.distill.DistilledPolicy`, a
        checkpoint path, or ``None`` (unmount). A corrupt or unreadable
        checkpoint does **not** raise: serving setup proceeds on the NN
        tier, and the warning is recorded in ``self.warnings`` and
        returned.
        """
        from repro.distill.model import DistilledPolicy

        if source is None or isinstance(source, DistilledPolicy):
            self.distilled = source
            return None
        try:
            self.distilled = DistilledPolicy.load(source)
        except (ValueError, OSError) as exc:
            warning = (
                f"distilled controller {source} unusable ({exc}); "
                f"serving stays on the NN tier"
            )
            self.warnings.append(warning)
            return warning
        return None

    def _read_policy_params(self, path) -> Dict[str, np.ndarray]:
        """Read a policy state dict from an agent- or trainer-format npz."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                keys = list(data.files)
                if any(k.startswith("policy/") for k in keys):
                    return {
                        k[len("policy/"):]: data[k]
                        for k in keys if k.startswith("policy/")
                    }
                return {k: data[k] for k in keys}
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            raise ValueError(
                f"checkpoint {path} is not a valid .npz archive: {exc}"
            ) from exc

    def reload_policy(
        self,
        path,
        probe_batch: int = 32,
        max_log_ratio_shift: Optional[float] = None,
    ) -> Dict:
        """Hot-swap the served policy from a checkpoint, shadow-validated.

        The candidate net is built next to the serving one and forwarded
        on a deterministic probe batch first; it is only swapped in if
        every probe output (ratios and hidden states) is finite — and,
        when ``max_log_ratio_shift`` is set, if its actions stay within
        that log-ratio distance of the serving policy's on the probe. On
        rejection the old weights keep serving, untouched. Accepts both
        agent-format checkpoints (``SageAgent.save``) and trainer
        checkpoints (``policy/``-prefixed keys). Per-flow hidden state is
        preserved across an accepted swap.

        Returns (and appends to ``self.reload_events``) a report dict:
        ``{"path", "accepted", "reason"}``.
        """
        report: Dict = {"path": str(path), "accepted": False, "reason": ""}
        try:
            state = self._read_policy_params(path)
            candidate = copy.deepcopy(self.policy)
            candidate.load_state_dict(state)
            fast = FastPolicy(candidate)
        except (ValueError, OSError) as exc:
            report["reason"] = f"unusable checkpoint: {exc}"
            self.reload_events.append(report)
            return report

        rng = np.random.default_rng((self.config.seed, 0x5EED))
        x = rng.standard_normal((int(probe_batch), STATE_DIM))
        h = np.zeros((int(probe_batch), self._hdim)) if self._hdim else None
        with np.errstate(all="ignore"):
            ratios, h_next = fast.step_batch(x, h)
        finite = np.all(np.isfinite(ratios)) and (
            h_next is None or bool(np.all(np.isfinite(h_next)))
        )
        if not finite:
            report["reason"] = (
                "shadow validation failed: non-finite outputs on the "
                "probe batch"
            )
            self.reload_events.append(report)
            return report
        if max_log_ratio_shift is not None:
            old_ratios, _ = self.fast.step_batch(x, h)
            shift = float(
                np.max(np.abs(np.log(ratios) - np.log(old_ratios)))
            )
            if shift > max_log_ratio_shift:
                report["reason"] = (
                    f"shadow validation failed: max |d log ratio| "
                    f"{shift:.4g} exceeds {max_log_ratio_shift:g} on the "
                    f"probe batch"
                )
                self.reload_events.append(report)
                return report

        self.policy = candidate
        self.fast = fast
        report["accepted"] = True
        report["reason"] = "shadow validation passed"
        self.reload_events.append(report)
        return report
