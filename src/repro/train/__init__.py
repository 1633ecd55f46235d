"""High-throughput CRR training engine (the fused hot path).

The per-timestep reference :class:`~repro.core.crr.CRRTrainer` builds one
autograd subgraph per ``(t, layer)`` pair; at the default ``(B=16, L=8)``
scale the Python op dispatch — not the math — dominates the step time.
This package restructures the step around sequence-level kernels:

- :mod:`~repro.train.fastpath` — raw-numpy no-grad kernels (targets,
  advantage filter) over all ``(B, L)`` timesteps at once, with
  preallocated ``out=`` buffers.
- :mod:`~repro.train.engine` — :class:`FastCRRTrainer`, the drop-in
  trainer combining them with the fused autograd path for the two
  gradient losses, plus ``.npz`` checkpoint/resume and per-phase timing.
  It draws batches exactly as the reference trainer does.
- :mod:`~repro.train.parallel` — :class:`DataParallelTrainer`, N gradient
  worker processes over per-(step, grain) seed streams with a canonical
  grain-order all-reduce: bit-identical results for any worker count.

Step throughput is measured from outside the package, by
``python3 benchmarks/e2e/run.py --workload store_train``.
"""

from repro.train.engine import FastCRRTrainer
from repro.train.parallel import DataParallelTrainer

__all__ = ["DataParallelTrainer", "FastCRRTrainer"]
