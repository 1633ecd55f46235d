"""Sage's CRR learner and its training engines.

The learner (PAPER.md §4.2, Eq. 5/6) is implemented once, as
:class:`FastCRRTrainer`, around sequence-level kernels: a per-timestep
unrolling would build one autograd subgraph per ``(t, layer)`` pair, and
at the default ``(B=16, L=8)`` scale the Python op dispatch — not the math
— would dominate the step time.

- :mod:`~repro.train.fastpath` — raw-numpy no-grad kernels (targets,
  advantage filter) over all ``(B, L)`` timesteps at once, with
  preallocated ``out=`` buffers.
- :mod:`~repro.train.engine` — :class:`FastCRRTrainer`, combining them
  with the fused autograd path for the two gradient losses, plus ``.npz``
  checkpoint/resume and per-phase timing. A per-timestep oracle in
  ``tests/crr_oracle.py`` pins its random stream and losses.
- :mod:`~repro.train.parallel` — :class:`DataParallelTrainer`, N gradient
  worker processes over per-(step, grain) seed streams with a canonical
  grain-order all-reduce: bit-identical results for any worker count.
  :func:`make_trainer` picks between the two engines by ``grad_workers``.

Step throughput is measured from outside the package, by
``python3 benchmarks/e2e/run.py --workload store_train``.
"""

from repro.train.engine import FastCRRTrainer
from repro.train.parallel import DataParallelTrainer, make_trainer

__all__ = ["DataParallelTrainer", "FastCRRTrainer", "make_trainer"]
