"""`repro.serve` — the batched multi-flow policy-serving engine.

The production face of the paper's Execution block: one frozen policy
serving N concurrent flows through a shared hidden-state table and one
``(N, 69)`` batched GRU forward per control tick, with a deadline/fallback
path (stale ratio, then built-in heuristic) for inference brown-outs and
serving metrics throughout.

- :mod:`~repro.serve.engine` — :class:`PolicyServer`: hidden-state table,
  tick scheduler, deadline machinery.
- :mod:`~repro.serve.fallback` — ratio-space CUBIC / AIMD degraded modes.
- :mod:`~repro.serve.client` — :class:`ServedAgent`, a PolicyAgent that
  routes through a server (leagues/run_policy plug in directly).
- :mod:`~repro.serve.harness` — N served senders over one bottleneck, plus
  the open-loop workload mode (Poisson arrivals of short served flows over
  any :mod:`~repro.netsim.topo` class, FCT percentiles in the metrics).
- :mod:`~repro.serve.metrics` — latency percentiles, batch histogram,
  fallback rate.

Serving speed is measured from outside the package, by
``python3 benchmarks/e2e/run.py --workload serve_ticks``.
"""

from repro.serve.client import ServedAgent
from repro.serve.engine import PolicyServer, ServeConfig, ServeDecision
from repro.serve.fallback import AimdFallback, CubicFallback, make_fallback
from repro.serve.harness import (
    MultiFlowConfig,
    MultiFlowResult,
    WorkloadServeConfig,
    WorkloadServeResult,
    jain_index,
    run_served_flows,
    run_served_workload,
)
from repro.serve.metrics import ServingMetrics

__all__ = [
    "PolicyServer",
    "ServeConfig",
    "ServeDecision",
    "ServedAgent",
    "ServingMetrics",
    "MultiFlowConfig",
    "MultiFlowResult",
    "WorkloadServeConfig",
    "WorkloadServeResult",
    "run_served_flows",
    "run_served_workload",
    "jain_index",
    "CubicFallback",
    "AimdFallback",
    "make_fallback",
]
