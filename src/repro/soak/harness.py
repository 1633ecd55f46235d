"""The continuous-chaos soak harness: ``repro soak``.

Runs the real pipeline — collect -> verify -> train -> serve — in rounds
for a wall-clock budget, with a fresh seed-deterministic
:class:`~repro.chaos.process.FaultProcess` armed every round, so faults
keep arriving across every site for as long as the soak runs. Each fired
fault is recorded with its detection latency and time-to-recovery; a set
of invariants is asserted continuously (finite served actions, a clean
store after verify, a monotone journal, snapshot/restore bit-identity,
poisoned hot-reloads rejected); and the final artifacts are optionally
compared against a fault-free twin of the same seeds — the store manifest
and the training checkpoint must come out **bit-identical**, faults or no
faults.

Structure of one round ``r``:

- arm ``FaultProcess(seed + r)`` over horizons matched to the round's
  actual work (collector task count, this round's training steps, the
  serving tick count, ...);
- ``collect``: :func:`repro.pipeline.stages._stage_collect` under chaos,
  then ``_stage_verify`` (quarantine + byte-identical repair), then a
  chaos-free audit that must come back clean;
- ``train``: ``_stage_train`` resumes the shared checkpoint and advances
  it ``steps_per_round`` steps under chaos (NaN/spike faults roll back
  through the DivergenceGuard and replay clean);
- ``serve``: a chaos'd :class:`~repro.serve.engine.PolicyServer` tick
  loop (every decision must stay finite), a snapshot/restore equality
  exercise, a hot-reload exercise (good checkpoint accepted, poisoned
  copy rejected by shadow validation), and a served open-loop workload
  with link-flap / AQM-stall / burst faults live.

The stage functions are called directly (not through the
:class:`~repro.pipeline.supervisor.Supervisor`) because a soak *wants*
to redo collect/verify every round; the supervisor's resume checks would
short-circuit them after round 0.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.process import DEFAULT_RATES, FaultProcess
from repro.persist import write_json_atomic
from repro.soak.report import (
    SOAK_SCHEMA_VERSION,
    FaultObserver,
    aggregate_faults,
    evaluate_slos,
    write_soak_report,
)

__all__ = ["SoakConfig", "run_soak"]

PHASES = ("collect", "train", "serve")

#: soak overrides for fault parameters: keep the hang shorter than a round
#: but longer than the collector watchdog, and the serve stall sub-tick
_SOAK_PARAMS = {"collector.hang": 4.0, "serve.slow": 0.01}

#: sites with no recovery path to verify, excluded from the default soak
#: mix: a mis-scaled batch below the DivergenceGuard's thresholds is a
#: perturbation the guard *intentionally tolerates* (it only rolls back
#: divergence), so the fault trains in and the checkpoint legitimately —
#: and permanently — differs from a fault-free run's. Opt back in with
#: ``--rates train.spike=...`` (and expect the identity check to fail).
_UNRECOVERED_SITES = ("train.spike",)


@dataclasses.dataclass
class SoakConfig:
    """Everything one soak run needs; JSON-echoed into ``BENCH_soak.json``."""

    workdir: str
    #: wall-clock budget — rounds keep starting until it is spent
    duration_s: float = 30.0
    min_rounds: int = 1
    max_rounds: int = 64
    seed: int = 0
    phases: Tuple[str, ...] = PHASES
    #: per-site fault rates (None -> chaos defaults), scaled by rate_scale
    rates: Optional[Dict[str, float]] = None
    rate_scale: float = 1.0
    # pipeline shape (kept mini so a round is seconds, not minutes)
    scale: str = "mini"
    schemes: Tuple[str, ...] = ("cubic",)
    shard_bytes: int = 1 << 20
    steps_per_round: int = 6
    max_task_seconds: float = 2.0
    # serve phase shape
    serve_flows: int = 4
    serve_ticks: int = 40
    workload_duration: float = 1.0
    arrival_rate: float = 40.0
    # SLOs
    slo_mttr_p50_s: float = 30.0
    slo_mttr_p99_s: float = 120.0
    slo_min_sites: int = 0
    #: rerun the same rounds fault-free and require bit-identical artifacts
    check_identity: bool = True

    def __post_init__(self) -> None:
        for phase in self.phases:
            if phase not in PHASES:
                raise ValueError(
                    f"unknown soak phase {phase!r}; valid: {PHASES}"
                )
        if not self.phases:
            raise ValueError("soak needs at least one phase")
        if self.duration_s < 0 or self.min_rounds < 1:
            raise ValueError("duration_s must be >= 0 and min_rounds >= 1")
        if self.max_rounds < self.min_rounds:
            raise ValueError("max_rounds must be >= min_rounds")
        if self.rate_scale <= 0 or not np.isfinite(self.rate_scale):
            raise ValueError("rate_scale must be finite and positive")

    def effective_rates(self) -> Dict[str, float]:
        if self.rates is None:
            base = {
                site: (0.0 if site in _UNRECOVERED_SITES else rate)
                for site, rate in DEFAULT_RATES.items()
            }
        else:
            base = dict(self.rates)
        return {site: rate * self.rate_scale for site, rate in base.items()}

    def to_json(self) -> Dict:
        d = dataclasses.asdict(self)
        d["phases"] = list(self.phases)
        d["schemes"] = list(self.schemes)
        return d


# --------------------------------------------------------------------------
# internal plumbing
# --------------------------------------------------------------------------


def _pipe_config(cfg: SoakConfig, root: Path, n_steps: int):
    from repro.pipeline.stages import PipelineConfig

    return PipelineConfig(
        workdir=str(root),
        scale=cfg.scale,
        schemes=cfg.schemes,
        workers=1,
        shard_bytes=cfg.shard_bytes,
        base_seed=cfg.seed,
        max_task_seconds=cfg.max_task_seconds,
        n_steps=n_steps,
        train_seed=cfg.seed,
    )


def _load_serving_policy(cfg: SoakConfig, pipe_cfg):
    """The trained policy if a checkpoint exists, else a seed-0 init."""
    from repro.core.networks import SagePolicy
    from repro.pipeline.stages import _net_config

    policy = SagePolicy(_net_config(pipe_cfg), np.random.default_rng(0))
    if pipe_cfg.checkpoint_path.exists():
        with np.load(pipe_cfg.checkpoint_path, allow_pickle=False) as data:
            policy.load_state_dict(
                {
                    key[len("policy/"):]: data[key]
                    for key in data.files
                    if key.startswith("policy/")
                }
            )
    return policy


def _serve_states(cfg: SoakConfig, round_index: int, ticks: int):
    """Deterministic per-round raw GR states, (ticks, flows, STATE_DIM)."""
    from repro.collector.gr_unit import STATE_DIM

    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, 0x50AC, round_index])
    return np.abs(rng.standard_normal((ticks, cfg.serve_flows, STATE_DIM)))


def _drive(server, states, start=0, stop=None) -> List[Tuple]:
    """Tick a server over a state block; return the flat decision stream."""
    stop = states.shape[0] if stop is None else stop
    out: List[Tuple] = []
    for t in range(start, stop):
        for flow in range(states.shape[1]):
            server.submit(flow, states[t, flow], cwnd=20.0)
        decisions = server.tick()
        for flow in sorted(decisions):
            d = decisions[flow]
            out.append((t, flow, d.ratio, d.source))
    return out


class _Soak:
    """One soak run's mutable state; ``run()`` produces the report dict."""

    def __init__(self, cfg: SoakConfig) -> None:
        self.cfg = cfg
        self.root = Path(cfg.workdir)
        self.observer = FaultObserver()
        self.journal: List[Dict] = []
        self.violations: List[Dict] = []
        self.invariants_checked = [
            "finite-served-actions",
            "store-clean-after-verify",
            "monotone-journal",
            "snapshot-restore-bit-identity",
            "poisoned-reload-rejected",
        ]
        self._steps_seen = 0

    # -- bookkeeping ----------------------------------------------------
    def note(self, round_index: int, phase: str, **detail) -> None:
        self.journal.append(
            {
                "index": len(self.journal),
                "round": round_index,
                "phase": phase,
                "at": time.time(),
                **detail,
            }
        )

    def violate(self, invariant: str, detail: str) -> None:
        self.violations.append({"invariant": invariant, "detail": detail})

    def _save_journal(self, root: Path) -> None:
        write_json_atomic(root / "soak_journal.json", self.journal)

    # -- chaos ----------------------------------------------------------
    def _injector(self, round_index: int, pipe_cfg):
        from repro.pipeline.stages import _expected_tasks

        cfg = self.cfg
        process = FaultProcess(
            seed=cfg.seed + round_index,
            rates=cfg.effective_rates(),
            params=_SOAK_PARAMS,
        )
        wl_ticks = int(
            (cfg.workload_duration + 1.0) / pipe_cfg.tick
        )
        horizons = {
            "collector": len(_expected_tasks(pipe_cfg)),
            "train": pipe_cfg.n_steps,
            "serve": max(cfg.serve_ticks, wl_ticks),
            "workload": int(cfg.arrival_rate * cfg.workload_duration) + 1,
        }
        return process.injector(horizons)

    # -- phases ----------------------------------------------------------
    def _run_collect(self, r: int, pipe_cfg, injector) -> None:
        from repro.datastore.manifest import verify_store
        from repro.pipeline.stages import _stage_collect, _stage_verify

        ctx = {"config": pipe_cfg, "chaos": injector}
        info = _stage_collect(ctx)
        # datastore corruption planted during collect is only *found* by
        # the verify audit -> keep those faults open until it has run
        self.observer.observe(injector, "collect-stage-complete",
                              defer=("datastore.",))
        verify_info = _stage_verify(ctx)
        self.observer.observe(injector, "verify-stage-complete")
        self.observer.resolve("datastore.", "verify-repair-complete")
        audit = verify_store(pipe_cfg.store_dir, quarantine=False)
        if not audit.clean:
            self.violate(
                "store-clean-after-verify",
                f"round {r}: post-repair audit found problems: "
                + audit.format(),
            )
        self.note(
            r, "collect",
            n_trajectories=info["n_trajectories"],
            n_retried=info["n_retried"],
            n_crashes=info["n_crashes"],
            n_timeouts=info["n_timeouts"],
            quarantined=len(verify_info.get("quarantined", [])),
        )

    def _run_train(self, r: int, pipe_cfg, injector) -> None:
        from repro.pipeline.stages import _stage_train

        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            info = _stage_train({"config": pipe_cfg, "chaos": injector})
        self.observer.observe(injector, "train-stage-complete")
        steps = int(info["steps_done"])
        if steps < self._steps_seen:
            self.violate(
                "monotone-journal",
                f"round {r}: trainer steps went backwards "
                f"({self._steps_seen} -> {steps})",
            )
        self._steps_seen = steps
        self.note(r, "train", steps_done=steps,
                  rollbacks=info["rollbacks"])

    def _run_serve(self, r: int, pipe_cfg, injector) -> None:
        from repro.serve.engine import PolicyServer, ServeConfig

        cfg = self.cfg
        policy = _load_serving_policy(cfg, pipe_cfg)
        serve_cfg = ServeConfig(
            deterministic=True, tick_budget=None, seed=cfg.seed
        )
        states = _serve_states(cfg, r, cfg.serve_ticks)
        server = PolicyServer(policy, serve_cfg, chaos=injector)
        for flow in range(cfg.serve_flows):
            server.connect(flow)
        n_bad = 0
        for t in range(cfg.serve_ticks):
            for flow in range(cfg.serve_flows):
                server.submit(flow, states[t, flow], cwnd=20.0)
            decisions = server.tick()
            for flow, decision in decisions.items():
                if not np.isfinite(decision.ratio) or decision.ratio <= 0:
                    n_bad += 1
                    self.violate(
                        "finite-served-actions",
                        f"round {r} tick {t}: flow {flow} served "
                        f"ratio {decision.ratio!r} "
                        f"(source={decision.source})",
                    )
            # serve.* faults are masked within the very tick they fire
            # (fallback ratio served), so each tick is a recovery boundary
            self.observer.observe(injector, f"serve-tick-{t}")
        self.note(
            r, "serve", ticks=cfg.serve_ticks, bad_decisions=n_bad,
            sources=dict(server.metrics.sources),
        )
        self._exercise_snapshot_restore(r, policy, serve_cfg)
        if pipe_cfg.checkpoint_path.exists():
            self._exercise_hot_reload(r, server, pipe_cfg)
        self._run_workload(r, policy, injector)

    def _exercise_snapshot_restore(self, r: int, policy, serve_cfg) -> None:
        """Kill-and-resume equivalence: a restored server must emit the
        same decision stream as one that was never interrupted.

        Runs on chaos-free twins — a shared injector would desynchronize
        them by design (serve faults are keyed to each server's own tick
        counter), which is a property of the chaos plan, not of recovery.
        """
        from repro.serve.engine import PolicyServer

        cfg = self.cfg
        ticks = max(4, min(cfg.serve_ticks, 8))
        cut = ticks // 2
        states = _serve_states(cfg, r + 10_000, ticks)

        straight = PolicyServer(policy, serve_cfg)
        resumed = PolicyServer(policy, serve_cfg)
        for flow in range(cfg.serve_flows):
            straight.connect(flow)
            resumed.connect(flow)
        want = _drive(straight, states)
        got = _drive(resumed, states, stop=cut)
        snap = self.root / f"soak_snapshot_r{r}.npz"
        resumed.snapshot(snap)
        fresh = PolicyServer(policy, serve_cfg)
        fresh.restore(snap)
        got += _drive(fresh, states, start=cut)
        if got != want:
            first = next(
                (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                min(len(want), len(got)),
            )
            self.violate(
                "snapshot-restore-bit-identity",
                f"round {r}: restored decision stream diverged at "
                f"record {first} of {len(want)}",
            )
        for path in (snap, Path(str(snap) + ".crc32")):
            if path.exists():
                path.unlink()
        self.note(r, "serve", exercise="snapshot-restore",
                  records=len(want), identical=got == want)

    def _exercise_hot_reload(self, r: int, server, pipe_cfg) -> None:
        """A good checkpoint hot-swaps in; a NaN-poisoned copy must be
        rejected by shadow validation with the old policy still serving."""
        good = server.reload_policy(pipe_cfg.checkpoint_path)
        if not good["accepted"]:
            self.violate(
                "poisoned-reload-rejected",
                f"round {r}: valid checkpoint refused: {good['reason']}",
            )
        poisoned = self.root / f"soak_poisoned_r{r}.npz"
        with np.load(pipe_cfg.checkpoint_path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
        for key in payload:
            if key.startswith("policy/"):
                arr = payload[key].astype(np.float64).copy()
                arr.flat[0] = np.nan
                payload[key] = arr
                break
        np.savez_compressed(poisoned, **payload)
        bad = server.reload_policy(poisoned)
        if bad["accepted"]:
            self.violate(
                "poisoned-reload-rejected",
                f"round {r}: NaN-poisoned checkpoint was accepted",
            )
        poisoned.unlink()
        probe = _serve_states(self.cfg, r + 20_000, 1)
        for flow in range(self.cfg.serve_flows):
            server.submit(flow, probe[0, flow], cwnd=20.0)
        decisions = server.tick()
        for flow, decision in decisions.items():
            if not np.isfinite(decision.ratio) or decision.ratio <= 0:
                self.violate(
                    "poisoned-reload-rejected",
                    f"round {r}: serving broken after rejected reload "
                    f"(flow {flow} ratio {decision.ratio!r})",
                )
        self.note(r, "serve", exercise="hot-reload",
                  good_accepted=bool(good["accepted"]),
                  poisoned_accepted=bool(bad["accepted"]))

    def _run_workload(self, r: int, policy, injector) -> None:
        from repro.serve.engine import ServeConfig
        from repro.serve.harness import WorkloadServeConfig, run_served_workload

        cfg = self.cfg
        wl = WorkloadServeConfig(
            arrival_rate=cfg.arrival_rate,
            duration=cfg.workload_duration,
            drain=1.0,
            seed=cfg.seed + r,
        )
        with np.errstate(invalid="ignore", over="ignore"):
            result = run_served_workload(
                policy, wl,
                serve_config=ServeConfig(
                    deterministic=True, tick_budget=None, seed=cfg.seed
                ),
                chaos=injector,
            )
        self.observer.observe(injector, "workload-run-complete")
        if result.metrics["invalid_actions"]:
            self.violate(
                "finite-served-actions",
                f"round {r}: workload served "
                f"{result.metrics['invalid_actions']} invalid action(s)",
            )
        self.note(
            r, "workload", n_sessions=result.n_sessions,
            n_requests=result.n_requests,
            flapped_links=list(result.flapped_links),
        )

    # -- the loop --------------------------------------------------------
    def run_rounds(
        self, root: Path, with_chaos: bool, rounds_exact: Optional[int] = None
    ) -> int:
        cfg = self.cfg
        root.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        r = 0
        while True:
            if rounds_exact is not None:
                if r >= rounds_exact:
                    break
            elif r >= cfg.max_rounds:
                break
            elif r >= cfg.min_rounds and (
                time.monotonic() - started >= cfg.duration_s
            ):
                break
            pipe_cfg = _pipe_config(
                cfg, root, n_steps=(r + 1) * cfg.steps_per_round
            )
            injector = self._injector(r, pipe_cfg) if with_chaos else None
            if "collect" in cfg.phases:
                self._run_collect(r, pipe_cfg, injector)
            if "train" in cfg.phases:
                if not pipe_cfg.store_dir.exists():
                    raise RuntimeError(
                        "soak train phase needs a store; include the "
                        "collect phase or point workdir at one"
                    )
                self._run_train(r, pipe_cfg, injector)
            if "serve" in cfg.phases:
                self._run_serve(r, pipe_cfg, injector)
            self._check_monotone()
            self._save_journal(root)
            r += 1
        return r

    def _check_monotone(self) -> None:
        indices = [entry["index"] for entry in self.journal]
        if indices != sorted(set(indices)):
            self.violate(
                "monotone-journal",
                "journal indices are not strictly increasing",
            )


# --------------------------------------------------------------------------
# identity twin
# --------------------------------------------------------------------------


def _checkpoint_arrays(path: Path) -> Dict[str, bytes]:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key].tobytes() for key in data.files}


def _compare_artifacts(chaos_root: Path, clean_root: Path) -> Dict:
    """Bit-compare the soaked artifacts against the fault-free twin's.

    The checkpoint compares per-array (``.npz`` container bytes embed zip
    timestamps); the manifest compares as text.
    """
    out: Dict = {"checked": True}
    chaos_manifest = chaos_root / "store" / "manifest.json"
    clean_manifest = clean_root / "store" / "manifest.json"
    if chaos_manifest.exists() or clean_manifest.exists():
        out["store_manifest"] = (
            chaos_manifest.exists()
            and clean_manifest.exists()
            and chaos_manifest.read_bytes() == clean_manifest.read_bytes()
        )
    chaos_ckpt = chaos_root / "checkpoint.npz"
    clean_ckpt = clean_root / "checkpoint.npz"
    if chaos_ckpt.exists() or clean_ckpt.exists():
        out["train_checkpoint"] = (
            chaos_ckpt.exists()
            and clean_ckpt.exists()
            and _checkpoint_arrays(chaos_ckpt)
            == _checkpoint_arrays(clean_ckpt)
        )
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def run_soak(cfg: SoakConfig, out_path=None) -> Dict:
    """Run the soak; return (and optionally write) the BENCH report.

    The report carries per-site fault counts, MTTR/detection p50/p99, the
    full fault log, every invariant violation, the artifact-identity
    verdict, and a pass/fail per SLO. ``passed`` is the overall verdict —
    the CLI exits non-zero when it is false.
    """
    started = time.monotonic()
    soak = _Soak(cfg)
    chaos_root = soak.root / "pipe"
    rounds = soak.run_rounds(chaos_root, with_chaos=True)

    identity: Dict = {"checked": False}
    if cfg.check_identity:
        clean_root = soak.root / "clean"
        if clean_root.exists():
            shutil.rmtree(clean_root)
        twin = _Soak(cfg)
        twin.run_rounds(clean_root, with_chaos=False, rounds_exact=rounds)
        identity = _compare_artifacts(chaos_root, clean_root)
        for name, same in identity.items():
            if name != "checked" and not same:
                soak.violate(
                    "artifact-identity",
                    f"{name} differs from the fault-free twin",
                )
        soak.invariants_checked.append("artifact-identity")

    faults = aggregate_faults(soak.observer.records)
    slos = evaluate_slos(
        faults, soak.violations,
        mttr_p50_limit_s=cfg.slo_mttr_p50_s,
        mttr_p99_limit_s=cfg.slo_mttr_p99_s,
        min_sites=cfg.slo_min_sites,
    )
    report = {
        "schema_version": SOAK_SCHEMA_VERSION,
        "config": cfg.to_json(),
        "rounds": rounds,
        "wall_s": round(time.monotonic() - started, 3),
        "faults": faults,
        "fault_log": [
            {k: v for k, v in record.items() if k != "fired_at"}
            for record in soak.observer.records
        ],
        "invariants": {
            "checked": soak.invariants_checked,
            "violations": soak.violations,
        },
        "identity": identity,
        "slos": slos,
        "passed": bool(slos["passed"]),
    }
    if out_path is not None:
        write_soak_report(report, out_path)
    return report
