#!/usr/bin/env python
"""Rebuild the shipped pretrained checkpoint, deterministically.

Collects an 8-scheme pool over a 36-environment grid (24 Set I + 12
Set II), trains the default laptop-scale Sage (GRU-32) for 1450 CRR steps
on :class:`~repro.train.engine.FastCRRTrainer` with a fixed seed, validates
the result on a familiar link, and writes

- ``models/sage_pretrained.npz``  — the policy parameters,
- ``models/sage_pretrained.json`` — the architecture + provenance metadata
  ``tests/test_pretrained.py`` checks.

Everything is seeded (pool rollouts by each environment's ``trace_seed``,
the learner by ``--seed``), so two runs on the same machine produce the
same checkpoint. Pool collection fans out across worker processes
(``--workers``); the pool is bit-identical for any worker count.

Usage::

    PYTHONPATH=src python tools/export_pretrained.py            # full rebuild
    PYTHONPATH=src python tools/export_pretrained.py --tiny     # smoke test
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.collector.environments import (  # noqa: E402
    EnvConfig,
    set1_environments,
    set2_environments,
)
from repro.collector.parallel import collect_pool_parallel  # noqa: E402
from repro.core.agent import SageAgent  # noqa: E402
from repro.core.crr import CRRConfig  # noqa: E402
from repro.core.networks import NetworkConfig  # noqa: E402
from repro.collector.rollout import run_policy  # noqa: E402
from repro.train.engine import FastCRRTrainer  # noqa: E402

#: the 8-scheme pool the shipped model is trained on
POOL_SCHEMES = [
    "cubic",
    "vegas",
    "bbr2",
    "newreno",
    "yeah",
    "westwood",
    "htcp",
    "illinois",
]

NET = NetworkConfig(enc_dim=32, gru_dim=32, n_components=3, n_atoms=15)
CRR = CRRConfig()


def export_environments(tiny: bool = False):
    """24 Set I (12 flat + 12 step) + 12 Set II environments = 36."""
    if tiny:
        return set1_environments(
            bws=(24.0,), rtts=(0.04,), buffers=(2.0,),
            step_ms=(0.5,), duration=6.0,
        )
    return set1_environments(
        bws=(12.0, 24.0, 48.0), rtts=(0.02, 0.04), buffers=(1.0, 4.0),
        step_ms=(0.5, 2.0), duration=12.0,
    ) + set2_environments(
        bws=(12.0, 24.0, 48.0), rtts=(0.02, 0.04), buffers=(2.0, 8.0),
        duration=12.0,
    )


def validate(agent: SageAgent) -> dict:
    """Run the shipped-model acceptance check (mirrors test_pretrained)."""
    env = EnvConfig(
        env_id="pretrained-check", kind="flat", bw_mbps=24.0,
        min_rtt=0.04, buffer_bdp=2.0, duration=8.0,
    )
    result = run_policy(env, agent)
    return {
        "throughput_mbps": result.stats.avg_throughput_bps / 1e6,
        "avg_owd_ms": result.stats.avg_owd * 1e3,
        "throughput_ok": result.stats.avg_throughput_bps > 24e6 / 6,
        "owd_ok": result.stats.avg_owd < 0.04,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=1450,
                        help="CRR training steps (default 1450 — the "
                             "validated operating point for seed 12)")
    parser.add_argument("--seed", type=int, default=12,
                        help="learner seed (default 12: the seed scan in "
                             "models/README.md)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="pool-collection worker processes")
    parser.add_argument("--pool", type=Path, default=None,
                        help="reuse a sharded store written by `repro "
                             "collect --out DIR` instead of collecting one")
    parser.add_argument("--out-dir", type=Path, default=REPO / "models")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: 3 envs, 30 steps, no "
                             "validation gate (for CI)")
    args = parser.parse_args(argv)

    steps = 30 if args.tiny else args.steps
    envs = export_environments(tiny=args.tiny)
    schemes = POOL_SCHEMES[:2] if args.tiny else POOL_SCHEMES

    t0 = time.perf_counter()
    if args.pool is not None:
        from repro.datastore import ShardedPool

        pool = ShardedPool.open(args.pool)
        print(f"loaded pool {args.pool}", flush=True)
    else:
        print(f"collecting pool: {len(envs)} envs x {len(schemes)} schemes "
              f"({args.workers} workers)", flush=True)
        pool = collect_pool_parallel(
            envs, schemes=schemes, workers=args.workers,
            progress=lambda ev: print(
                f"  [{ev.done}/{ev.total}] {ev.label}", flush=True),
        )
    print(f"pool: {pool.n_transitions} transitions "
          f"({time.perf_counter() - t0:.0f}s)", flush=True)

    t1 = time.perf_counter()
    print(f"training: {steps} CRR steps, seed {args.seed}", flush=True)
    trainer = FastCRRTrainer(pool, net_config=NET, config=CRR, seed=args.seed)
    trainer.train(steps)
    print(f"trained ({time.perf_counter() - t1:.0f}s)", flush=True)

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "sage_pretrained.npz"
    meta_path = out_dir / "sage_pretrained.json"
    SageAgent(trainer.policy, name="sage").save(model_path)

    # validate through the exact load path tests/test_pretrained.py uses
    agent = SageAgent.load(model_path, net_config=NET)
    checks = validate(agent)
    print(f"validation: {checks['throughput_mbps']:.2f} Mbps "
          f"(ok={checks['throughput_ok']}), "
          f"avg OWD {checks['avg_owd_ms']:.1f} ms (ok={checks['owd_ok']})",
          flush=True)
    if not args.tiny and not (checks["throughput_ok"] and checks["owd_ok"]):
        model_path.unlink(missing_ok=True)
        Path(f"{model_path}.crc32").unlink(missing_ok=True)
        print("FAILED validation — checkpoint removed", flush=True)
        return 1

    meta = {
        "enc_dim": NET.enc_dim,
        "gru_dim": NET.gru_dim,
        "n_components": NET.n_components,
        "n_atoms": NET.n_atoms,
        "train_steps": steps,
        "pool_schemes": schemes,
        "n_envs": len(envs),
        "seed": args.seed,
    }
    meta_path.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"wrote {model_path} + {meta_path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
