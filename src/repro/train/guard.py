"""DivergenceGuard: detect training blow-ups and roll back past them.

Offline CRR on heuristic-generated pools is normally stable, but a single
poisoned batch (NaN rewards from a corrupt shard, a mis-scaled reward
spike) can push the networks into a state no later batch repairs. The
guard watches every step's metrics for two failure signatures:

- **non-finite** — any watched metric is NaN/Inf, or exceeds ``abs_limit``
  (the numbers have already left the representable regime);
- **loss explosion** — the critic/policy loss jumps more than
  ``spike_factor`` times its own exponential moving average (the step
  regressed violently even though the numbers are still finite);

plus a third the engine reports directly: a **step failure**, where the
poisoned numbers crashed the training step with a numeric exception before
any metrics existed (e.g. NaN rewards breaking the C51 projection).

On detection the training engine restores its last good snapshot —
networks, optimizer moments, RNG state, batch index, metric history —
and replays from there. Because injected faults are one-shot and real
poisoned batches are consumed by the failed step, the replay runs clean
and the final parameters are bit-identical to a run that never saw the
fault. The restart budget (``max_rollbacks``) keeps a persistently
divergent run from cycling forever: exhausting it raises
:class:`TrainingDiverged` with the rollback history attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "GuardConfig",
    "DivergenceGuard",
    "RollbackEvent",
    "TrainingDiverged",
]

#: metrics the guard watches when the engine reports them
WATCHED_METRICS = ("critic_loss", "policy_loss")


@dataclass
class GuardConfig:
    """Detection thresholds and the restart budget."""

    #: loss > spike_factor * EMA(loss) counts as an explosion
    spike_factor: float = 50.0
    #: any watched metric beyond this magnitude is divergence outright
    abs_limit: float = 1e8
    #: EMA smoothing for the spike baseline
    ema_alpha: float = 0.2
    #: steps before spike detection arms (the EMA needs a baseline)
    warmup_steps: int = 5
    #: rollbacks allowed before :class:`TrainingDiverged` is raised
    max_rollbacks: int = 3
    #: snapshot cadence (in clean steps); 1 = every step, the only setting
    #: that guarantees a rollback replays *only* the poisoned step
    snapshot_every: int = 1


@dataclass
class RollbackEvent:
    """One detection + recovery, for the audit trail."""

    step: int  # training step (0-based) whose metrics tripped the guard
    reason: str  # "non-finite", "loss-spike", or "step-failure"
    detail: str  # which metric, its value, the threshold it broke
    restored_step: int  # steps_done of the snapshot that was restored


class TrainingDiverged(RuntimeError):
    """Raised when the rollback budget is exhausted."""

    def __init__(self, message: str, events: Optional[List[RollbackEvent]] = None):
        super().__init__(message)
        self.events: List[RollbackEvent] = list(events or [])


class DivergenceGuard:
    """Stateful divergence detector with a capped rollback budget.

    The training engine calls :meth:`check` with each step's metrics; a
    non-``None`` return is the :class:`RollbackEvent` the engine must act
    on (restore its snapshot, replay). The guard tracks the EMA baseline
    and the budget; the engine owns the snapshots.
    """

    def __init__(self, config: Optional[GuardConfig] = None) -> None:
        self.config = config or GuardConfig()
        self.events: List[RollbackEvent] = []
        self._ema: Dict[str, float] = {}
        self._steps_seen = 0

    # ------------------------------------------------------------------
    @property
    def rollbacks_used(self) -> int:
        return len(self.events)

    @property
    def budget_left(self) -> int:
        return max(self.config.max_rollbacks - len(self.events), 0)

    # ------------------------------------------------------------------
    def check(
        self, step: int, metrics: Dict[str, float], restored_step: int = 0
    ) -> Optional[RollbackEvent]:
        """Inspect one step's metrics; return a rollback order or ``None``.

        ``restored_step`` is recorded in the event (the ``steps_done`` the
        engine will restore to). Raises :class:`TrainingDiverged` when
        divergence is detected with no budget left.
        """
        cfg = self.config
        problem: Optional[RollbackEvent] = None
        for name in WATCHED_METRICS:
            if name not in metrics:
                continue
            value = float(metrics[name])
            if not math.isfinite(value):
                problem = RollbackEvent(
                    step=step, reason="non-finite",
                    detail=f"{name}={value}", restored_step=restored_step,
                )
                break
            if abs(value) > cfg.abs_limit:
                problem = RollbackEvent(
                    step=step, reason="non-finite",
                    detail=f"{name}={value:.3g} exceeds "
                           f"abs_limit={cfg.abs_limit:g}",
                    restored_step=restored_step,
                )
                break
            ema = self._ema.get(name)
            if (
                ema is not None
                and self._steps_seen >= cfg.warmup_steps
                and abs(value) > cfg.spike_factor * max(abs(ema), 1e-12)
            ):
                problem = RollbackEvent(
                    step=step, reason="loss-spike",
                    detail=f"{name}={value:.3g} is "
                           f">{cfg.spike_factor:g}x its EMA {ema:.3g}",
                    restored_step=restored_step,
                )
                break
        if problem is None:
            # clean step: fold it into the baseline
            for name in WATCHED_METRICS:
                if name not in metrics:
                    continue
                value = float(metrics[name])
                ema = self._ema.get(name)
                self._ema[name] = (
                    value if ema is None
                    else (1 - cfg.ema_alpha) * ema + cfg.ema_alpha * value
                )
            self._steps_seen += 1
            return None
        return self._spend_budget(problem)

    def record_failure(
        self, step: int, detail: str, restored_step: int = 0
    ) -> RollbackEvent:
        """A training step *raised* instead of returning metrics.

        Counts against the same rollback budget as metric-level detection;
        raises :class:`TrainingDiverged` when none is left.
        """
        return self._spend_budget(
            RollbackEvent(
                step=step, reason="step-failure",
                detail=detail, restored_step=restored_step,
            )
        )

    def _spend_budget(self, problem: RollbackEvent) -> RollbackEvent:
        if not self.budget_left:
            raise TrainingDiverged(
                f"training diverged at step {problem.step} "
                f"({problem.reason}: {problem.detail}) with the rollback "
                f"budget of {self.config.max_rollbacks} exhausted",
                events=self.events + [problem],
            )
        self.events.append(problem)
        return problem
