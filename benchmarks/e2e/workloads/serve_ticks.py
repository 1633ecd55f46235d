"""``serve_ticks`` — the Execution block against its 20 ms control tick.

64 connected flows, one tick = 64 ``submit`` + ``tick()``, replaying states
the policy itself visited; no simulator in the timed region. The NN-only
server and the tiered server (distilled tree in front of the batched GRU)
use the same engine differently: a change that speeds the symbolic path at
the batched forward's expense, or the reverse, moves one phase each way.

The policy weights are part of the configuration (``POLICY_SEED``), not of
the input: a random policy's behaviour decides how long its rollouts take
and how deep the distilled tree grows, so drawing it from ``--seed`` would
make every seed a different program. The seed draws the traffic — which
stretch of the pooled states each of the 64 flows replays.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

from harness import Outcome, Recorder, Workload, array_digest, now, steady

FLOWS = 64
TICK_BUDGET_MS = 20.0


class ServeTicks(Workload):
    name = "serve_ticks"
    #: seconds per slice of each mode, then the tail tick latency (in
    #: seconds) of the tiered server within a slice
    phases = ("nn", "tiered", "tiered_tick_p99")
    steps = ("nn", "tiered")

    POLICY_SEED = 1
    ROLLOUT_S = 3.0
    STREAM_TICKS = 1000
    WARMUP_TICKS = 40
    # ~0.5 s a slice each on the reference box. The gated tail is the
    # p99 of the tiered slice's 1 000 ticks (ten beyond it): every flow
    # refreshes through the GRU on the same tick, one tick in 32, so the
    # tiered p95 sits on the knee between the two kinds of tick and the
    # p99 inside the slow kind. The NN-only p95 is on record, not gated:
    # a slice of 100 ticks has only five beyond it.
    TICKS = {"nn": 100, "tiered": 1000}

    modules = (
        "repro.collector.rollout",
        "repro.core.agent",
        "repro.distill",
        "repro.serve",
    )

    def setup(self, seed: int, tmp: str) -> None:
        import numpy as np

        from repro.collector.environments import set1_environments
        from repro.collector.pool import PolicyPool
        from repro.collector.rollout import run_policy
        from repro.core.agent import SageAgent
        from repro.core.networks import NetworkConfig, SagePolicy
        from repro.distill import DistillConfig, fit_distilled
        from repro.serve import PolicyServer, ServeConfig

        self.tmp = tmp
        self.policy = SagePolicy(
            NetworkConfig(enc_dim=128, gru_dim=128),
            np.random.default_rng(self.POLICY_SEED),
        )
        start = now()
        pool = PolicyPool()
        agent = SageAgent(self.policy, deterministic=True, seed=self.POLICY_SEED)
        for env in set1_environments(
            bws=(24.0, 48.0), rtts=(0.04,), buffers=(2.0,),
            duration=self.ROLLOUT_S, include_steps=False,
        ):
            pool.add_rollout(run_policy(env, agent))
        self.rollout_s = now() - start

        self.pool = pool
        self.distill_config = DistillConfig(
            target_coverage=0.98, refresh_every=32, max_depth=10
        )
        self.distilled, self.fit_report = fit_distilled(
            self.policy, pool, self.distill_config
        )

        # the replay stream: flow i reads a contiguous, wrapping stretch of
        # the pooled states starting where the seed puts it
        states = np.concatenate(
            [np.asarray(t.states, dtype=np.float64) for t in pool.trajectories]
        )
        starts = np.random.default_rng(seed).integers(0, len(states), size=FLOWS)
        index = (starts[None, :] + np.arange(self.STREAM_TICKS)[:, None]) % len(states)
        self.stream = states[index]  # (ticks, flows, 69)

        self.config = ServeConfig(deterministic=True, tick_budget=None, seed=seed)
        self.servers = {
            "nn": PolicyServer(self.policy, self.config),
            "tiered": PolicyServer(self.policy, self.config, distilled=self.distilled),
        }
        self.cursor = {"nn": 0, "tiered": 0}
        self.bad_ticks = {"nn": 0, "tiered": 0}
        #: mode -> (wall, traced) of every slice; mode -> every tick's ms
        self.walls: Dict[str, List[tuple]] = {"nn": [], "tiered": []}
        self.tick_ms: Dict[str, List[float]] = {"nn": [], "tiered": []}
        warm = {}
        for mode, server in self.servers.items():
            for flow in range(FLOWS):
                server.connect(flow)
            ratios: List[float] = []
            self._slice(mode, self.WARMUP_TICKS, Recorder(), ratios)
            warm[mode] = array_digest([np.asarray(ratios)])
        self.warm_digests = warm

    # ------------------------------------------------------------------
    def _slice(self, mode: str, ticks: int, rec: Recorder, ratios=None):
        """``ticks`` closed-loop ticks on one server; returns the wall and
        every tick's latency (first ``submit`` to ``tick()`` returning)."""
        server = self.servers[mode]
        stream = self.stream
        flows = range(FLOWS)
        submit_name, tick_name = f"serve.{mode}.submit", f"serve.{mode}.tick"
        first = self.cursor[mode]
        latency = []
        bad = 0
        with rec.span(f"serve.{mode}.slice"):
            start = now()
            for t in range(first, first + ticks):
                row = stream[t % len(stream)]
                t0 = now()
                with rec.span(submit_name):
                    for flow in flows:
                        server.submit(flow, row[flow])
                with rec.span(tick_name):
                    decisions = server.tick()
                latency.append(now() - t0)
                total = 0.0
                for decision in decisions.values():
                    total += decision.ratio
                if len(decisions) != FLOWS or not math.isfinite(total):
                    bad += 1
                if ratios is not None:
                    ratios.extend(decisions[flow].ratio for flow in flows)
            wall = now() - start
        self.cursor[mode] = first + ticks
        self.bad_ticks[mode] += bad
        return wall, latency

    def step(self, mode: str, rec: Recorder) -> Dict[str, float]:
        import numpy as np

        wall, latency = self._slice(mode, self.TICKS[mode], rec)
        self.walls[mode].append((wall, rec.enabled))
        if rec.enabled:
            self.tick_ms[mode].extend(v * 1e3 for v in latency)
        tail = {"nn": ("nn_tick_p95", 95), "tiered": ("tiered_tick_p99", 99)}[mode]
        return {mode: wall, tail[0]: float(np.percentile(latency, tail[1]))}

    # ------------------------------------------------------------------
    def finish(self, rec: Recorder, trace: bool) -> Outcome:
        metrics = {mode: s.metrics for mode, s in self.servers.items()}
        decisions = sum(m.decisions for m in metrics.values())
        fallback = sum(
            m.sources["stale"] + m.sources["heuristic"] + m.invalid_actions
            for m in metrics.values()
        )
        ticks = sum(self.cursor.values())
        checks = {
            "every_tick_64_finite_ratios": sum(self.bad_ticks.values()) == 0,
            "every_flow_decided_every_tick": decisions == ticks * FLOWS,
            "nn_only_symbolic_hit_rate_is_0": metrics["nn"].symbolic_hit_rate == 0.0,
            "tiered_symbolic_hit_rate_in_0.9_1.0":
                0.9 < metrics["tiered"].symbolic_hit_rate < 1.0,
            "no_fallback_decisions": fallback == 0,
        }
        digests = {
            "nn_first_ratios": self.warm_digests["nn"],
            "tiered_first_ratios": self.warm_digests["tiered"],
            "distilled_tree": f"{self.fit_report['n_leaves']}-leaves-"
                              f"depth-{self.fit_report['depth']}",
        }
        layers = self._layers(rec) if trace else {}
        return Outcome(
            attempted=decisions,
            failed=fallback + sum(self.bad_ticks.values()) * FLOWS,
            checks=checks,
            digests=digests,
            layers=layers,
        )

    def _layers(self, rec: Recorder) -> Dict[str, float]:
        import numpy as np

        from repro.core.networks import FastPolicy
        from repro.distill import RegressionTree, build_distill_dataset
        from repro.serve import PolicyServer

        # the two halves of fit_distilled, each through its public function
        start = now()
        x, y = build_distill_dataset(FastPolicy(self.policy), self.pool)
        dataset_s = now() - start
        start = now()
        RegressionTree.fit(x, y, self.distill_config.tree_config())
        layers: Dict[str, float] = {
            "collector.policy_rollout_s": self.rollout_s,
            "distill.dataset_s": dataset_s,
            "distill.fit_s": now() - start,
            "distill.n_leaves": self.fit_report["n_leaves"],
        }
        for mode in self.steps:
            traced = [w for w, on in self.walls[mode] if on]
            wall, n_traced = steady(traced), len(traced)
            latency_ms = self.tick_ms[mode]
            layers.update({
                f"serve.{mode}.decisions_per_s": FLOWS * self.TICKS[mode] / wall,
                f"serve.{mode}.submit_s": rec.total(f"serve.{mode}.submit") / n_traced,
                f"serve.{mode}.tick_s": rec.total(f"serve.{mode}.tick") / n_traced,
                f"serve.{mode}.tick_p50_ms": np.percentile(latency_ms, 50),
                f"serve.{mode}.tick_p95_ms": np.percentile(latency_ms, 95),
                f"serve.{mode}.tick_p99_ms": np.percentile(latency_ms, 99),
                f"serve.{mode}.ticks_over_20ms":
                    sum(1 for v in latency_ms if v > TICK_BUDGET_MS),
            })

        snapshot = self.servers["tiered"].metrics.snapshot()
        layers["serve.symbolic_hit_rate"] = snapshot["symbolic_hit_rate"]
        for tier, row in snapshot["tiers"].items():
            layers[f"serve.tier.{tier}.decisions"] = row["decisions"]
            layers[f"serve.tier.{tier}.latency_p50_ms"] = row["latency_p50_ms"]

        fresh = PolicyServer(self.policy, self.config)
        start = now()
        for flow in range(FLOWS):
            fresh.connect(flow)
        for flow in range(FLOWS):
            fresh.close(flow)
        layers["serve.connect_close_us"] = (now() - start) / FLOWS * 1e6

        path = os.path.join(self.tmp, "server.npz")
        server = self.servers["tiered"]
        start = now()
        server.snapshot(path)
        layers["serve.snapshot_s"] = now() - start
        start = now()
        server.restore(path)
        layers["serve.restore_s"] = now() - start
        return layers
