"""``pipeline_small`` — the top rung: the thing a user runs.

One slice is one ``Supervisor.run()`` of the standard collect -> verify ->
train -> eval pipeline in a fresh workdir, cut into its stages at the public
``after_stage`` hook. Long-lived bulk flows over the dumbbell facade; train
is dominated by the per-step checkpoint, so persistence work shows here and
trainer math does not.

The training seed is part of the configuration (``TRAIN_SEED``), not of the
input: it decides which policy comes out of training, and with it how many
packets the eval rollout simulates (a 16x range over five seeds), so
drawing it from ``--seed`` would make every seed a different program.
``--seed`` reaches ``base_seed``, which at ``mini`` scale changes nothing —
the environments are deterministic.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List

from harness import Outcome, Recorder, Workload, array_digest, digest, median, now

STAGES = ("collect", "verify", "train", "eval")


class PipelineSmall(Workload):
    name = "pipeline_small"
    #: ``train`` is verify + train (verify is a few ms); ``run`` is the
    #: wall clock of ``Supervisor.run()``, eval and journal writes included
    phases = ("collect", "train", "run")
    steps = ("run",)

    # ~4.4 s a run on the reference box: collect 63 %, train 28 %, eval 8 %
    SCHEMES = ("cubic",)
    N_STEPS = 20
    EVAL_DURATION = 30.0
    TRAIN_SEED = 0

    modules = (
        "repro.collector.parallel",
        "repro.datastore",
        "repro.pipeline",
        "repro.serve.client",
        "repro.train.engine",
        "repro.train.guard",
    )

    def setup(self, seed: int, tmp: str) -> None:
        from repro.collector.environments import training_environments

        self.seed = seed
        self.tmp = tmp
        self.n_rollouts = len(training_environments("mini")) * len(self.SCHEMES)
        self.runs: List[dict] = []

    def _config(self, workdir: str):
        from repro.pipeline import PipelineConfig

        return PipelineConfig(
            workdir=workdir,
            scale="mini",
            schemes=self.SCHEMES,
            workers=1,
            base_seed=self.seed,
            train_seed=self.TRAIN_SEED,
            n_steps=self.N_STEPS,
            batch_size=16,
            seq_len=8,
            enc_dim=32,
            gru_dim=32,
            eval_duration=self.EVAL_DURATION,
        )

    def step(self, name: str, rec: Recorder) -> Dict[str, float]:
        import numpy as np

        from repro.datastore import Manifest
        from repro.pipeline import build_supervisor

        cfg = self._config(os.path.join(self.tmp, f"run{len(self.runs)}"))
        #: stage -> (hook entered, hook left); the hook is the only seam
        #: between the stages, and the speed probe it takes is not theirs
        seams: Dict[str, tuple] = {}

        def after_stage(stage: str, state) -> None:
            entered = now()
            if stage != "verify":
                self.probe()
            seams[stage] = (entered, now())

        supervisor = build_supervisor(cfg, after_stage=after_stage)
        with rec.span("pipeline.run") as run_span:
            start = now()
            state = supervisor.run()
            end = now()
        cuts = {
            "collect": (start, seams["collect"][0]),
            "train": (seams["collect"][1], seams["train"][0]),
            "eval": (seams["train"][1], seams["eval"][0]),
        }
        wall = (end - start) - sum(left - entered for entered, left in seams.values())
        if rec.enabled:
            # each stage's span is named after the layer it spends its time in
            rec.add("netsim.collect_stage", *cuts["collect"], parent=run_span.index)
            rec.add("datastore.verify_stage", cuts["train"][0], seams["verify"][0],
                    parent=run_span.index)
            rec.add("train.train_stage", seams["verify"][1], cuts["train"][1],
                    parent=run_span.index)
            rec.add("serve.eval_stage", *cuts["eval"], parent=run_span.index)

        stages = {s.name: s for s in state.stages}
        manifest = Manifest.load(cfg.store_dir)
        eval_ok = cfg.eval_path.exists()
        evaluation = json.loads(cfg.eval_path.read_text()) if eval_ok else {}
        with np.load(cfg.checkpoint_path, allow_pickle=False) as data:
            checkpoint = array_digest(data[k] for k in sorted(data.files))
        collect = stages["collect"].info
        self.runs.append({
            "traced": rec.enabled,
            "wall_s": wall,
            "stage_s": {s: stages[s].finished_at - stages[s].started_at for s in STAGES},
            "all_done": all(stages[s].status == "done" for s in STAGES),
            "eval_present": eval_ok,
            "rollouts": collect["n_trajectories"],
            "retried": collect["n_retried"] + collect["n_crashes"] + collect["n_timeouts"],
            "transitions": manifest.n_transitions,
            "store_mb": sum(f.bytes for s in manifest.shards for f in s.files.values()) / 1e6,
            "shards": len(manifest.shards),
            "eval_ticks": evaluation.get("ticks", 0),
            "eval_tick_p50_ms": evaluation.get("serve", {}).get("latency_p50_ms", 0.0),
            "digests": {
                "checkpoint": checkpoint,
                "store": digest([[f.crc32 for f in s.files.values()] for s in manifest.shards]),
                "eval": digest({k: evaluation.get(k) for k in ("env_id", "ticks", "mean_reward")}),
            },
        })
        shutil.rmtree(cfg.workdir)
        out = {phase: b - a for phase, (a, b) in cuts.items()}
        out["run"] = wall
        return out

    def finish(self, rec: Recorder, trace: bool) -> Outcome:
        first = self.runs[0]
        failed = sum(r["retried"] + (0 if r["all_done"] else 1) for r in self.runs)
        checks = {
            "all_stages_done": all(r["all_done"] for r in self.runs),
            "eval_json_present": all(r["eval_present"] for r in self.runs),
            "rollouts_as_planned": all(r["rollouts"] == self.n_rollouts for r in self.runs),
            "runs_bit_identical": all(r["digests"] == first["digests"] for r in self.runs),
        }
        layers: Dict[str, float] = {}
        if trace:
            picked = [r for r in self.runs if r["traced"]]
            wall = median(r["wall_s"] for r in picked)
            stage = {s: median(r["stage_s"][s] for r in picked) for s in STAGES}
            layers = {f"pipeline.{s}_s": stage[s] for s in STAGES}
            layers.update({
                "pipeline.wall_s": wall,
                "pipeline.supervisor_self_s": wall - sum(stage.values()),
                "collector.rollouts": first["rollouts"],
                "collector.transitions": first["transitions"],
                "collector.rollouts_per_s": first["rollouts"] / stage["collect"],
                "collector.retried": sum(r["retried"] for r in self.runs),
                "datastore.pipeline_store_mb": first["store_mb"],
                "datastore.pipeline_shards": first["shards"],
                "serve.eval_ticks": first["eval_ticks"],
                "serve.eval_tick_p50_ms": median(r["eval_tick_p50_ms"] for r in picked),
            })
        return Outcome(
            attempted=len(self.runs) * (self.n_rollouts + len(STAGES)),
            failed=failed,
            checks=checks,
            digests=first["digests"],
            layers=layers,
        )
