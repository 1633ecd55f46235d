"""The pipeline supervisor: resumable staged execution with retries.

Runs a fixed sequence of stages (collect -> verify -> train -> eval for
the standard pipeline), journaling every transition to a
:class:`~repro.pipeline.state.PipelineState` file before and after it
happens. The contract:

- **Crash-safe.** ``kill -9`` at any instant leaves a consistent state
  file; ``run(resume=True)`` skips stages already ``done`` (re-validating
  their artifacts via the stage's ``check`` hook) and restarts the stage
  that was ``running`` when the process died.
- **Retries with backoff.** A stage that raises is retried up to its
  ``retries`` budget with exponential backoff; exhausting the budget marks
  it ``failed``, persists the error, and raises :class:`PipelineError`.
- **Auditable.** Every skip, restart, retry, and failure is appended to
  the state's event log; stage ``info`` dicts carry the fault/recovery
  events their subsystems reported.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.pipeline.state import PipelineState, StageState

__all__ = ["StageSpec", "Supervisor", "PipelineError"]


class PipelineError(RuntimeError):
    """A stage failed permanently (its retry budget is exhausted)."""


@dataclass
class StageSpec:
    """One stage: how to run it, re-validate it, and retry it.

    ``run(context)`` does the work and returns the stage's ``info`` dict
    (fault/recovery events under ``"events"``). ``check(context)`` answers
    "are this stage's artifacts still valid?" — consulted on resume before
    trusting a ``done`` status; ``None`` means trust the journal.
    """

    name: str
    run: Callable[[Dict], Optional[Dict]]
    check: Optional[Callable[[Dict], bool]] = None
    retries: int = 1
    backoff_s: float = 0.5


class Supervisor:
    """Drives a stage sequence against a persistent state file.

    Parameters
    ----------
    stages:
        The ordered :class:`StageSpec` list.
    state_path:
        Where the :class:`PipelineState` JSON lives.
    context:
        Mutable dict handed to every stage's ``run`` / ``check`` (the
        standard pipeline puts its config, paths, and the shared chaos
        injector here).
    after_stage:
        Test hook called as ``after_stage(name, state)`` right after a
        stage completes and its state is persisted — the seam the kill -9
        resume tests use to die at an exact stage boundary.
    """

    def __init__(
        self,
        stages: Sequence[StageSpec],
        state_path,
        context: Optional[Dict] = None,
        after_stage: Optional[Callable[[str, PipelineState], None]] = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        self.stages = list(stages)
        self.state_path = Path(state_path)
        self.context: Dict = context if context is not None else {}
        self.after_stage = after_stage

    # ------------------------------------------------------------------
    def run(
        self, resume: bool = False, config: Optional[Dict] = None
    ) -> PipelineState:
        """Execute the pipeline; returns the final state (all stages done).

        ``resume=False`` starts a fresh journal even if one exists;
        ``resume=True`` picks up an existing one (missing file is not an
        error — the run simply starts from scratch).
        """
        state = self._open_state(resume, config)
        state.save(self.state_path)
        for spec in self.stages:
            st = state.stage(spec.name)
            if st.status == "done":
                if spec.check is None or spec.check(self.context):
                    state.log(
                        "supervisor",
                        f"stage {spec.name} already done; skipping",
                    )
                    state.save(self.state_path)
                    continue
                st.status = "pending"
                st.info = {}
                state.log(
                    "supervisor",
                    f"stage {spec.name} marked done but its artifacts fail "
                    "validation; re-running",
                )
            elif st.status == "running":
                state.log(
                    "supervisor",
                    f"stage {spec.name} was interrupted mid-run "
                    "(process died); restarting it",
                )
            elif st.status == "failed":
                state.log(
                    "supervisor",
                    f"stage {spec.name} previously failed; retrying from "
                    "scratch",
                )
            self._run_stage(spec, st, state)
            if self.after_stage is not None:
                self.after_stage(spec.name, state)
        state.log("supervisor", "pipeline complete")
        state.save(self.state_path)
        return state

    # ------------------------------------------------------------------
    def _open_state(
        self, resume: bool, config: Optional[Dict]
    ) -> PipelineState:
        if resume and self.state_path.exists():
            state = PipelineState.load(self.state_path)
            journal = {s.name for s in state.stages}
            for spec in self.stages:  # tolerate newly-added stages
                if spec.name not in journal:
                    state.stages.append(StageState(name=spec.name))
            state.log("supervisor", "resuming from persisted state")
            return state
        state = PipelineState(
            config=dict(config or {}),
            stages=[StageState(name=s.name) for s in self.stages],
        )
        state.log("supervisor", "starting fresh run")
        return state

    def _run_stage(
        self, spec: StageSpec, st: StageState, state: PipelineState
    ) -> None:
        attempts_allowed = max(spec.retries, 0) + 1
        for attempt in range(attempts_allowed):
            if attempt > 0 and spec.backoff_s > 0:
                delay = spec.backoff_s * (2 ** (attempt - 1))
                state.log(
                    spec.name, f"backing off {delay:g}s before retry"
                )
                state.save(self.state_path)
                time.sleep(delay)
            st.status = "running"
            st.attempts += 1
            st.started_at = time.time()
            st.finished_at = None
            st.error = None
            state.save(self.state_path)  # a kill here reads as interrupted
            try:
                info = spec.run(self.context)
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - journaled, re-raised
                st.error = f"{type(exc).__name__}: {exc}"
                state.log(
                    spec.name, f"attempt {st.attempts} failed: {st.error}"
                )
                if attempt + 1 >= attempts_allowed:
                    st.status = "failed"
                    st.finished_at = time.time()
                    state.save(self.state_path)
                    raise PipelineError(
                        f"stage {spec.name} failed after {st.attempts} "
                        f"attempt(s): {st.error}"
                    ) from exc
                state.save(self.state_path)
                continue
            st.status = "done"
            st.finished_at = time.time()
            st.info = dict(info or {})
            state.save(self.state_path)
            # A finished stage leaves cyclic garbage that only a full
            # collection frees (every simulated Topology, the trainer's
            # networks), and the simulator allocates too few tracked objects
            # per event for one to come round before the next stage has
            # piled its working set on top. 5-11 ms here keeps a stage's
            # memory from outliving it.
            gc.collect()
            return
