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
- :mod:`~repro.train.guard` — the divergence guard that rolls a poisoned
  step back to the last clean snapshot.

It is the only engine: every network in ``src/`` that trains, the BC,
Indigo and Aurora baselines included, runs on the fused sequence path, in
one process. At the batch sizes the repo trains, splitting a step over
gradient worker processes costs more in communication than it saves
(measured in ``docs/architecture.md``, "One engine").

Step throughput is measured from outside the package, by
``python3 benchmarks/e2e/run.py --workload store_train``.
"""

from repro.train.engine import FastCRRTrainer

__all__ = ["FastCRRTrainer"]
