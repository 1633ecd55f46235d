"""Command-line interface: the three Sage phases plus the league runner.

Usage::

    python -m repro collect --scale mini --out pool.npz [--store shards/]
    python -m repro collect --topology parking_lot --out pool.npz
    python -m repro train   --pool pool.npz|shards/ --steps 300 --out sage.npz
    python -m repro league  --schemes cubic,vegas,bbr2 [--agent sage.npz --serve]
    python -m repro deploy  --agent sage.npz --bw 24 --rtt 0.04
    python -m repro topo describe parking_lot --segments 3
    python -m repro topo matrix --schemes cubic,vegas --out matrix.json
    python -m repro aqm matrix --schemes cubic,vegas --out aqm_matrix.json
    python -m repro aqm trace --shards 2 --out-dir traces/
    python -m repro aqm learn traces/queue_trace_*.npz --out ecn_model.npz
    python -m repro distill fit  --agent sage.npz --pool pool.npz --out tree.npz
    python -m repro distill eval --model tree.npz --agent sage.npz --pool pool.npz
    python -m repro pipeline run --workdir run/ [--fault-plan plan.json]
    python -m repro pipeline resume --workdir run/
    python -m repro pipeline status --workdir run/ [--json]
    python -m repro chaos plan --seed 7 --faults collector.crash,train.nan \
        --out plan.json
    python -m repro soak --workdir soak/ --duration 60 --seed 0 \
        --out BENCH_soak.json
    python -m repro pool pack pool.npz shards/     # legacy .npz -> shards
    python -m repro pool merge w0/ w1/ -o shards/  # per-worker dirs -> one
    python -m repro pool verify shards/            # audit + quarantine
    python -m repro pool stats shards/             # inventory + checksums

Each subcommand wraps the same public API the examples use; nothing here is
load-bearing beyond argument parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np


def _cmd_collect(args) -> int:
    import dataclasses

    from repro.collector.environments import (
        aqm_environments,
        topology_class_environments,
        training_environments,
    )
    from repro.core.training import collect_pool

    schemes = args.schemes.split(",") if args.schemes else None
    store = args.store or None
    aqms = [a.strip() for a in args.aqm.split(",") if a.strip()]
    if args.topology:
        envs = topology_class_environments(args.topology)
        if aqms:
            # rebuild the same scenario grid under the requested discipline(s)
            envs = [
                dataclasses.replace(
                    env, env_id=f"{env.env_id}-{aqm.partition('@')[0]}", aqm=aqm
                )
                for aqm in aqms
                for env in envs
            ]
    elif aqms:
        envs = [env for aqm in aqms for env in aqm_environments(aqm)]
    else:
        envs = training_environments(args.scale)
    pool = collect_pool(
        envs,
        schemes=schemes,
        progress=(lambda msg: print(msg)) if args.verbose else None,
        workers=args.workers,
        store=store,
        shard_bytes=args.shard_mb * (1 << 20) if store else None,
        max_task_seconds=args.task_timeout,
    )
    print(pool.summary())
    if store:
        print(f"streamed pool into sharded store {store}")
    else:
        pool.save(args.out)
        print(f"saved pool to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from repro.core.crr import CRRConfig
    from repro.core.networks import NetworkConfig
    from repro.core.training import train_sage_on_pool
    from repro.datastore import open_pool

    pool = open_pool(args.pool)
    net = NetworkConfig(
        enc_dim=args.enc_dim, gru_dim=args.gru_dim,
        n_components=args.components, n_atoms=args.atoms,
    )
    run = train_sage_on_pool(
        pool, n_steps=args.steps, n_checkpoints=args.checkpoints,
        net_config=net, crr_config=CRRConfig(), seed=args.seed,
        log_every=args.log_every, grad_workers=args.grad_workers,
    )
    run.agent.save(args.out)
    print(f"trained {run.trainer.steps_done} steps; saved policy to {args.out}")
    return 0


def _load_agent(path: str, enc_dim: int, gru_dim: int, components: int, atoms: int):
    from repro.core.agent import SageAgent
    from repro.core.networks import NetworkConfig

    cfg = NetworkConfig(
        enc_dim=enc_dim, gru_dim=gru_dim, n_components=components, n_atoms=atoms
    )
    return SageAgent.load(path, net_config=cfg)


def _participants(args) -> list:
    """``--schemes`` as kernel entrants, plus ``--agent`` (served with
    ``--serve``) when given."""
    from repro.evalx.leagues import Participant

    participants = [
        Participant.from_scheme(s) for s in args.schemes.split(",") if s
    ]
    if args.agent:
        agent = _load_agent(
            args.agent, args.enc_dim, args.gru_dim, args.components, args.atoms
        )
        if args.serve:
            participants.append(Participant.from_served(agent.policy))
        else:
            participants.append(Participant.from_agent(agent))
    return participants


def _cmd_league(args) -> int:
    from repro.evalx.leagues import run_league

    result = run_league(_participants(args), workers=args.workers)
    print(result.format_table())
    return 0


def _cmd_deploy(args) -> int:
    from repro.collector.environments import EnvConfig
    from repro.collector.rollout import run_policy

    agent = _load_agent(
        args.agent, args.enc_dim, args.gru_dim, args.components, args.atoms
    )
    env = EnvConfig(
        env_id="cli-deploy", kind="flat", bw_mbps=args.bw, min_rtt=args.rtt,
        buffer_bdp=args.buffer, n_competing_cubic=args.cubics,
        duration=args.duration,
    )
    result = run_policy(env, agent)
    s = result.stats
    print(
        f"throughput={s.avg_throughput_bps / 1e6:.2f} Mbps  "
        f"owd={s.avg_owd * 1e3:.1f} ms  loss={s.loss_rate:.4f}  "
        f"mean-reward={float(np.mean(result.rewards)):.3f}"
    )
    return 0


def _cmd_distill_fit(args) -> int:
    from repro.datastore import open_pool
    from repro.distill import DistillConfig, fit_distilled

    agent = _load_agent(
        args.agent, args.enc_dim, args.gru_dim, args.components, args.atoms
    )
    pool = open_pool(args.pool)
    cfg = DistillConfig(
        max_depth=args.max_depth,
        max_leaves=args.max_leaves,
        min_leaf=args.min_leaf,
        target_coverage=args.coverage,
        refresh_every=args.refresh,
        max_samples=args.max_samples or None,
    )
    distilled, report = fit_distilled(agent.policy, pool, cfg)
    distilled.save(args.out)
    for key, val in report.items():
        print(f"{key:>22}: {val}")
    if args.rules:
        print("--- rules (first", args.rules, ") ---")
        for rule in distilled.rules(max_rules=args.rules):
            print(" ", rule)
    print(f"saved distilled controller to {args.out}")
    return 0


def _cmd_distill_eval(args) -> int:
    from repro.datastore import open_pool
    from repro.distill import DistilledPolicy, evaluate_distilled

    agent = _load_agent(
        args.agent, args.enc_dim, args.gru_dim, args.components, args.atoms
    )
    distilled = DistilledPolicy.load(args.model)
    pool = open_pool(args.pool)
    report = evaluate_distilled(
        distilled, agent.policy, pool, max_samples=args.max_samples or None
    )
    for key, val in report.items():
        print(f"{key:>26}: {val}")
    return 0


def _cmd_pool_pack(args) -> int:
    from repro.datastore import pack_pool, store_stats

    pool = pack_pool(args.source, args.out, shard_bytes=args.shard_mb << 20)
    print(store_stats(args.out))
    print(f"packed {args.source} -> {args.out} "
          f"({len(pool.manifest.shards)} shards)")
    return 0


def _cmd_pool_merge(args) -> int:
    from repro.datastore import merge_stores, store_stats

    pool = merge_stores(args.sources, args.out, shard_bytes=args.shard_mb << 20)
    print(store_stats(args.out))
    print(f"merged {len(args.sources)} source(s) -> {args.out} "
          f"({len(pool)} trajectories)")
    return 0


def _cmd_pool_verify(args) -> int:
    from repro.datastore import verify

    report = verify(args.store, quarantine=not args.no_quarantine)
    print(report.format())
    if not report.clean and args.strict:
        return 1
    return 0


def _cmd_pool_stats(args) -> int:
    from repro.datastore import store_stats

    print(store_stats(args.store))
    return 0


def _pipeline_config(args):
    from repro.pipeline import PipelineConfig

    return PipelineConfig(
        workdir=args.workdir,
        scale=args.scale,
        schemes=tuple(args.schemes.split(",")) if args.schemes else None,
        workers=args.workers,
        base_seed=args.seed,
        max_task_seconds=args.task_timeout,
        n_steps=args.steps,
        train_seed=args.seed,
        grad_workers=args.grad_workers,
        eval_duration=args.eval_duration,
        fault_plan=args.fault_plan or None,
    )


def _cmd_pipeline_run(args) -> int:
    from repro.pipeline import PipelineConfig, PipelineError, build_supervisor
    from repro.pipeline.state import PipelineState

    if args.resume:
        # rebuild the exact original run from the persisted journal
        cfg = PipelineConfig.from_json(
            PipelineState.load(
                PipelineConfig(workdir=args.workdir).state_path
            ).config
        )
    else:
        cfg = _pipeline_config(args)
    supervisor = build_supervisor(cfg)
    try:
        state = supervisor.run(resume=args.resume, config=cfg.to_json())
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        print(f"state journal: {cfg.state_path}", file=sys.stderr)
        return 1
    print(state.format_status())
    return 0


def _cmd_pipeline_status(args) -> int:
    from repro.pipeline import PipelineConfig
    from repro.pipeline.state import PipelineState

    state_path = PipelineConfig(workdir=args.workdir).state_path
    try:
        state = PipelineState.load(state_path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"no readable pipeline state at {state_path}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(state.status_json(), indent=1))
    else:
        print(state.format_status())
    return 0


def _cmd_soak(args) -> int:
    from repro.soak import SoakConfig, run_soak
    from repro.soak.report import format_soak_report

    rates = None
    if args.rates:
        from repro.chaos import SITES

        rates = {}
        for entry in args.rates.split(","):
            site, _, rate = entry.partition("=")
            if site not in SITES:
                print(f"unknown fault site {site!r}; "
                      f"valid: {', '.join(sorted(SITES))}", file=sys.stderr)
                return 1
            rates[site] = float(rate) if rate else 0.0
    cfg = SoakConfig(
        workdir=args.workdir,
        duration_s=args.duration,
        min_rounds=args.min_rounds,
        max_rounds=args.max_rounds,
        seed=args.seed,
        phases=tuple(args.phases.split(",")),
        rates=rates,
        rate_scale=args.rate_scale,
        scale=args.scale,
        schemes=tuple(args.schemes.split(",")),
        steps_per_round=args.steps_per_round,
        serve_ticks=args.serve_ticks,
        serve_flows=args.serve_flows,
        workload_duration=args.workload_duration,
        arrival_rate=args.arrival_rate,
        slo_mttr_p50_s=args.slo_mttr_p50,
        slo_mttr_p99_s=args.slo_mttr_p99,
        slo_min_sites=args.min_sites,
        check_identity=not args.no_identity,
    )
    report = run_soak(cfg, out_path=args.out or None)
    print(format_soak_report(report))
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report["passed"] else 1


def _cmd_chaos_plan(args) -> int:
    from repro.chaos import SITES, FaultPlan

    counts = {}
    for entry in (args.faults.split(",") if args.faults else sorted(SITES)):
        site, _, n = entry.partition("=")
        if site not in SITES:
            print(f"unknown fault site {site!r}; "
                  f"valid: {', '.join(sorted(SITES))}", file=sys.stderr)
            return 1
        counts[site] = counts.get(site, 0) + (int(n) if n else 1)
    universes = {}
    for entry in args.universes.split(",") if args.universes else ():
        group, _, n = entry.partition("=")
        universes[group] = int(n)
    plan = FaultPlan.generate(
        seed=args.seed, counts=counts, universes=universes or None
    )
    print(plan.describe())
    if args.out:
        plan.save(args.out)
        print(f"saved plan to {args.out}")
    return 0


def _cmd_topo_describe(args) -> int:
    from repro.netsim.topo import describe_topology

    kwargs = {}
    if args.bw is not None:
        kwargs["bw_mbps"] = args.bw
    if args.rtt is not None:
        kwargs["min_rtt"] = args.rtt
    if args.buffer_kb is not None:
        kwargs["buffer_bytes"] = int(args.buffer_kb * 1000)
    if args.segments is not None:
        kwargs["n_segments"] = args.segments
    if args.senders is not None:
        kwargs["n_senders"] = args.senders
    if args.aqm:
        kwargs["aqm"] = args.aqm
    if args.ecn_kb is not None:
        kwargs["ecn_threshold_bytes"] = int(args.ecn_kb * 1000)
    print(describe_topology(args.topo_class, **kwargs))
    return 0


def _run_matrix(args, columns) -> int:
    from repro.evalx.matrix import run_matrix

    matrix = run_matrix(
        _participants(args),
        columns,
        workers=args.workers,
        progress=print if args.verbose else None,
    )
    print(matrix.format_table())
    if args.out:
        matrix.save(args.out)
        print(f"saved matrix to {args.out}")
    return 0


def _cmd_topo_matrix(args) -> int:
    from repro.evalx.matrix import topology_columns
    from repro.netsim.topo import TOPOLOGY_CLASSES

    classes = (
        tuple(c for c in args.classes.split(",") if c)
        if args.classes else TOPOLOGY_CLASSES
    )
    return _run_matrix(args, topology_columns(classes, duration=args.duration))


def _cmd_aqm_matrix(args) -> int:
    from repro.evalx.matrix import DEFAULT_MATRIX_AQMS, aqm_columns

    aqms = (
        tuple(a for a in args.aqms.split(",") if a)
        if args.aqms else DEFAULT_MATRIX_AQMS
    )
    if args.ecn_model:
        # route the trained marking model into the learned_ecn column
        aqms = tuple(
            f"learned_ecn@{args.ecn_model}" if a == "learned_ecn" else a
            for a in aqms
        )
    columns = aqm_columns(
        aqms, duration=args.duration, ecn_threshold_bdp=args.ecn_bdp
    )
    return _run_matrix(args, columns)


def _cmd_aqm_trace(args) -> int:
    from repro.aqm_learn import TraceSpec, collect_queue_traces

    spec = TraceSpec(
        aqm=args.aqm,
        bw_mbps=args.bw,
        min_rtt=args.rtt,
        buffer_bytes=int(args.buffer_kb * 1000),
        duration=args.duration,
        arrival_rate=args.arrival_rate,
        scheme=args.scheme,
    )
    paths = collect_queue_traces(
        spec,
        shards=args.shards,
        seed=args.seed,
        out_dir=args.out_dir,
        progress=print,
    )
    print(f"wrote {len(paths)} telemetry shard(s) under {args.out_dir}")
    return 0


def _cmd_aqm_learn(args) -> int:
    import json

    from repro.aqm_learn import fit_ecn_predictor

    model, report = fit_ecn_predictor(
        args.traces,
        target=args.target,
        hidden=args.hidden,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        progress=(lambda msg: print(msg)) if args.verbose else None,
    )
    print(json.dumps(report.to_json(), indent=1))
    model.save(args.out)
    print(f"saved ECN predictor to {args.out}")
    return 0


def _add_workers_arg(p: argparse.ArgumentParser) -> None:
    import os

    p.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="rollout worker processes (1 = serial; default: one per CPU)",
    )


def _add_net_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--enc-dim", type=int, default=64, dest="enc_dim")
    p.add_argument("--gru-dim", type=int, default=64, dest="gru_dim")
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--atoms", type=int, default=21)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="collect the pool of policies")
    p.add_argument("--scale", choices=("mini", "small", "full"), default="mini")
    p.add_argument("--schemes", default="", help="comma-separated subset")
    p.add_argument("--out", default="pool.npz")
    p.add_argument("--store", default="",
                   help="stream rollouts into a sharded store directory "
                        "instead of a monolithic .npz (overrides --out)")
    p.add_argument("--shard-mb", type=int, default=32, dest="shard_mb",
                   help="per-shard byte budget for --store, in MiB")
    p.add_argument("--task-timeout", type=float, default=None,
                   dest="task_timeout", metavar="SECONDS",
                   help="per-rollout watchdog deadline; hung workers are "
                        "terminated and their tasks re-dispatched")
    p.add_argument("--aqm", default="",
                   help="collect under specific queue discipline(s): a "
                        "comma-separated list of registered AQMs (taildrop, "
                        "codel, pie, bode, fq_codel, learned_ecn[@ckpt]); "
                        "alone it selects the AQM env family, with "
                        "--topology it re-queues that family's links")
    p.add_argument("--topology", default="",
                   help="collect over one topology class's env set instead "
                        "of the dumbbell training grids (parking_lot, "
                        "incast, proxy_split, or dumbbell)")
    p.add_argument("--verbose", action="store_true")
    _add_workers_arg(p)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("train", help="train Sage offline on a saved pool")
    p.add_argument("--pool", required=True,
                   help="pool .npz or sharded store directory")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--checkpoints", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=int, default=0, dest="log_every")
    p.add_argument("--out", default="sage.npz")
    p.add_argument("--grad-workers", type=int, default=0, dest="grad_workers",
                   help="data-parallel gradient worker processes "
                        "(0 = single-process; results are bit-identical "
                        "for any count that divides the grain width)")
    _add_net_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("league", help="rank schemes (and optionally an agent)")
    p.add_argument("--schemes", default="cubic,vegas,bbr2,newreno")
    p.add_argument("--agent", default="")
    p.add_argument("--serve", action="store_true",
                   help="route the agent through the serving engine")
    _add_workers_arg(p)
    _add_net_args(p)
    p.set_defaults(func=_cmd_league)

    p = sub.add_parser("deploy", help="run a trained agent in one environment")
    p.add_argument("--agent", required=True)
    p.add_argument("--bw", type=float, default=24.0)
    p.add_argument("--rtt", type=float, default=0.04)
    p.add_argument("--buffer", type=float, default=2.0)
    p.add_argument("--cubics", type=int, default=0)
    p.add_argument("--duration", type=float, default=10.0)
    _add_net_args(p)
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser(
        "pool", help="manage sharded trajectory stores (the data plane)"
    )
    pool_sub = p.add_subparsers(dest="pool_command", required=True)

    q = pool_sub.add_parser(
        "pack", help="convert a legacy .npz pool into a sharded store"
    )
    q.add_argument("source", help="legacy pool .npz (or an existing store)")
    q.add_argument("out", help="output store directory")
    q.add_argument("--shard-mb", type=int, default=32, dest="shard_mb",
                   help="per-shard byte budget, in MiB")
    q.set_defaults(func=_cmd_pool_pack)

    q = pool_sub.add_parser(
        "merge", help="merge stores / pools (e.g. per-worker shard dirs)"
    )
    q.add_argument("sources", nargs="+",
                   help="store directories or legacy .npz pools, in order")
    q.add_argument("-o", "--out", required=True, help="output store directory")
    q.add_argument("--shard-mb", type=int, default=32, dest="shard_mb")
    q.set_defaults(func=_cmd_pool_merge)

    q = pool_sub.add_parser(
        "verify", help="audit shard checksums; quarantine corrupt shards"
    )
    q.add_argument("store", help="store directory")
    q.add_argument("--no-quarantine", action="store_true", dest="no_quarantine",
                   help="report corruption without moving shards")
    q.add_argument("--strict", action="store_true",
                   help="exit non-zero if any shard was corrupt")
    q.set_defaults(func=_cmd_pool_verify)

    q = pool_sub.add_parser(
        "stats", help="per-scheme transition counts + shard/checksum table"
    )
    q.add_argument("store", help="store directory")
    q.set_defaults(func=_cmd_pool_stats)

    p = sub.add_parser(
        "pipeline",
        help="supervised, resumable collect -> verify -> train -> eval run",
    )
    pipe_sub = p.add_subparsers(dest="pipeline_command", required=True)

    q = pipe_sub.add_parser("run", help="start a fresh pipeline run")
    q.add_argument("--workdir", required=True,
                   help="run directory (store, checkpoint, state journal)")
    q.add_argument("--scale", choices=("mini", "small", "full"),
                   default="mini")
    q.add_argument("--schemes", default="cubic",
                   help="comma-separated subset ('' = all pool schemes)")
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--steps", type=int, default=12,
                   help="training steps")
    q.add_argument("--grad-workers", type=int, default=0, dest="grad_workers",
                   help="data-parallel gradient worker processes for the "
                        "train stage (0 = single-process)")
    q.add_argument("--task-timeout", type=float, default=None,
                   dest="task_timeout", metavar="SECONDS",
                   help="per-rollout watchdog deadline during collection")
    q.add_argument("--eval-duration", type=float, default=3.0,
                   dest="eval_duration",
                   help="seconds of served-policy evaluation rollout")
    q.add_argument("--fault-plan", default="", dest="fault_plan",
                   help="FaultPlan JSON to inject (chaos mode)")
    q.set_defaults(func=_cmd_pipeline_run, resume=False)

    q = pipe_sub.add_parser(
        "resume",
        help="continue an interrupted run from its state journal",
    )
    q.add_argument("--workdir", required=True)
    q.set_defaults(func=_cmd_pipeline_run, resume=True)

    q = pipe_sub.add_parser(
        "status", help="show stage states and the fault/recovery log"
    )
    q.add_argument("--workdir", required=True)
    q.add_argument("--json", action="store_true",
                   help="machine-readable output (stage states, retries, "
                        "fault log)")
    q.set_defaults(func=_cmd_pipeline_status)

    p = sub.add_parser(
        "soak",
        help="run the pipeline under continuous chaos and check "
             "recovery SLOs",
    )
    p.add_argument("--workdir", required=True)
    p.add_argument("--duration", type=float, default=30.0,
                   help="wall-clock budget in seconds (rounds keep "
                        "starting until it is spent)")
    p.add_argument("--min-rounds", type=int, default=1)
    p.add_argument("--max-rounds", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phases", default="collect,train,serve",
                   help="comma-separated subset of collect,train,serve")
    p.add_argument("--rates", default="",
                   help="comma-separated site=rate overrides (expected "
                        "faults per occurrence slot); default: every site "
                        "at its chaos-default rate")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="multiply every site's rate by this factor")
    p.add_argument("--scale", default="mini")
    p.add_argument("--schemes", default="cubic")
    p.add_argument("--steps-per-round", type=int, default=6)
    p.add_argument("--serve-ticks", type=int, default=40)
    p.add_argument("--serve-flows", type=int, default=4)
    p.add_argument("--workload-duration", type=float, default=1.0)
    p.add_argument("--arrival-rate", type=float, default=40.0)
    p.add_argument("--slo-mttr-p50", type=float, default=30.0)
    p.add_argument("--slo-mttr-p99", type=float, default=120.0)
    p.add_argument("--min-sites", type=int, default=0,
                   help="fail unless faults fired at >= this many sites")
    p.add_argument("--no-identity", action="store_true",
                   help="skip the fault-free identity twin (halves runtime)")
    p.add_argument("--out", default="",
                   help="write BENCH_soak.json here")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "chaos", help="deterministic fault-injection plans"
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    q = chaos_sub.add_parser(
        "plan", help="generate (and optionally save) a seeded FaultPlan"
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--faults", default="",
                   help="comma-separated sites, each optionally site=count "
                        "(default: one fault at every site)")
    q.add_argument("--universes", default="",
                   help="comma-separated group=N target-universe overrides, "
                        "e.g. collector=8,train=12")
    q.add_argument("--out", default="", help="write the plan JSON here")
    q.set_defaults(func=_cmd_chaos_plan)

    p = sub.add_parser(
        "topo",
        help="inspect topology classes and run the scheme x topology matrix",
    )
    topo_sub = p.add_subparsers(dest="topo_command", required=True)

    q = topo_sub.add_parser(
        "describe", help="print a topology class's nodes, links, and paths"
    )
    q.add_argument("topo_class",
                   help="dumbbell, parking_lot, incast, or proxy_split")
    q.add_argument("--bw", type=float, default=None, help="bottleneck Mbps")
    q.add_argument("--rtt", type=float, default=None,
                   help="base two-way propagation delay, seconds")
    q.add_argument("--buffer-kb", type=float, default=None, dest="buffer_kb")
    q.add_argument("--segments", type=int, default=None,
                   help="parking-lot segment count")
    q.add_argument("--senders", type=int, default=None,
                   help="incast fan-in")
    q.add_argument("--aqm", default="",
                   help="queue discipline on the class's congested links")
    q.add_argument("--ecn-kb", type=float, default=None, dest="ecn_kb",
                   help="DCTCP-style step-marking threshold (KB; incast "
                        "egress, taildrop or natively marking AQMs)")
    q.set_defaults(func=_cmd_topo_describe)

    q = topo_sub.add_parser(
        "matrix",
        help="winning-rate matrix: every scheme across every topology class",
    )
    q.add_argument("--schemes", default="cubic,newreno,vegas,westwood")
    q.add_argument("--classes", default="",
                   help="comma-separated topology classes (default: all)")
    q.add_argument("--duration", type=float, default=12.0,
                   help="seconds per environment rollout")
    q.add_argument("--agent", default="",
                   help="also enter a trained agent .npz")
    q.add_argument("--serve", action="store_true",
                   help="run the agent through the serving engine")
    q.add_argument("--out", default="",
                   help="write the matrix JSON here")
    q.add_argument("--verbose", action="store_true")
    _add_workers_arg(q)
    _add_net_args(q)
    q.set_defaults(func=_cmd_topo_matrix)

    p = sub.add_parser(
        "aqm",
        help="intelligent queues: the scheme x AQM matrix and the "
             "learned-ECN trace/fit loop",
    )
    aqm_sub = p.add_subparsers(dest="aqm_command", required=True)

    q = aqm_sub.add_parser(
        "matrix",
        help="winning-rate matrix: every scheme under every queue discipline",
    )
    q.add_argument("--schemes", default="cubic,newreno,vegas,westwood")
    q.add_argument("--aqms", default="",
                   help="comma-separated AQM columns (default: taildrop,"
                        "codel,pie,fq_codel,learned_ecn)")
    q.add_argument("--ecn-model", default="", dest="ecn_model",
                   help="trained predictor .npz for the learned_ecn column "
                        "(default: its seeded threshold fallback)")
    q.add_argument("--ecn-bdp", type=float, default=0.0, dest="ecn_bdp",
                   help="arm DCTCP-style step marking at this fraction of "
                        "the BDP on threshold-capable queues")
    q.add_argument("--duration", type=float, default=12.0,
                   help="seconds per environment rollout")
    q.add_argument("--agent", default="",
                   help="also enter a trained agent .npz")
    q.add_argument("--serve", action="store_true",
                   help="run the agent through the serving engine")
    q.add_argument("--out", default="",
                   help="write the matrix JSON here")
    q.add_argument("--verbose", action="store_true")
    _add_workers_arg(q)
    _add_net_args(q)
    q.set_defaults(func=_cmd_aqm_matrix)

    q = aqm_sub.add_parser(
        "trace",
        help="log queue-telemetry shards from instrumented workloads",
    )
    q.add_argument("--aqm", default="codel",
                   help="teacher discipline on the instrumented bottleneck")
    q.add_argument("--bw", type=float, default=24.0, help="bottleneck Mbps")
    q.add_argument("--rtt", type=float, default=0.04,
                   help="propagation RTT, seconds")
    q.add_argument("--buffer-kb", type=float, default=90.0, dest="buffer_kb")
    q.add_argument("--duration", type=float, default=6.0,
                   help="arrival window per shard, seconds")
    q.add_argument("--arrival-rate", type=float, default=40.0,
                   dest="arrival_rate", help="workload sessions/second")
    q.add_argument("--scheme", default="cubic",
                   help="CC scheme driving the traffic")
    q.add_argument("--shards", type=int, default=2)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--out-dir", default=".", dest="out_dir")
    q.set_defaults(func=_cmd_aqm_trace)

    q = aqm_sub.add_parser(
        "learn",
        help="fit the ECN-marking predictor from telemetry shards",
    )
    q.add_argument("traces", nargs="+", help="queue_trace_*.npz shards")
    q.add_argument("--target", type=float, default=0.005,
                   help="sojourn-time target the predictor learns to guard")
    q.add_argument("--hidden", type=int, default=8,
                   help="hidden units (0 = logistic regression)")
    q.add_argument("--epochs", type=int, default=400)
    q.add_argument("--lr", type=float, default=0.5)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default="ecn_model.npz")
    q.add_argument("--verbose", action="store_true")
    q.set_defaults(func=_cmd_aqm_learn)

    p = sub.add_parser(
        "distill",
        help="fit / evaluate the symbolic controller distilled from a policy",
    )
    dis_sub = p.add_subparsers(dest="distill_command", required=True)

    q = dis_sub.add_parser(
        "fit", help="distill a policy into a CART controller on a pool"
    )
    q.add_argument("--agent", required=True, help="trained policy .npz")
    q.add_argument("--pool", required=True,
                   help="pool .npz or sharded store directory")
    q.add_argument("--out", default="distilled.npz")
    q.add_argument("--max-depth", type=int, default=12, dest="max_depth")
    q.add_argument("--max-leaves", type=int, default=256, dest="max_leaves")
    q.add_argument("--min-leaf", type=int, default=16, dest="min_leaf")
    q.add_argument("--coverage", type=float, default=0.85,
                   help="target fraction of decisions the symbolic tier "
                        "should answer")
    q.add_argument("--refresh", type=int, default=8,
                   help="serving forces an NN forward every REFRESH ticks")
    q.add_argument("--max-samples", type=int, default=0, dest="max_samples",
                   help="subsample the distillation dataset (0 = all)")
    q.add_argument("--rules", type=int, default=0,
                   help="print the first N fitted if-then rules")
    _add_net_args(q)
    q.set_defaults(func=_cmd_distill_fit)

    q = dis_sub.add_parser(
        "eval", help="imitation quality of a distilled controller on a pool"
    )
    q.add_argument("--model", required=True, help="distilled controller .npz")
    q.add_argument("--agent", required=True, help="trained policy .npz")
    q.add_argument("--pool", required=True,
                   help="pool .npz or sharded store directory")
    q.add_argument("--max-samples", type=int, default=0, dest="max_samples")
    _add_net_args(q)
    q.set_defaults(func=_cmd_distill_eval)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
