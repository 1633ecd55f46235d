"""FaultInjector: fires a :class:`~repro.chaos.plan.FaultPlan` into the system.

One injector instance is threaded through a run — the parallel collector,
the shard writer, the training engine, the serving engine, the topology
runner (``netsim.linkflap`` via
:func:`repro.workload.runner.apply_linkflap`), and the workload generator
(``workload.burst`` inside
:func:`repro.workload.generator.generate_schedule`) each accept an
optional ``chaos`` argument and consult it at their injection points. Every
fault is **one-shot**: once taken for its target occurrence it never fires
again, so a retried task / replayed batch runs clean and the surrounding
recovery machinery (re-dispatch, quarantine + repair, divergence rollback,
heuristic fallback) can fully mask it. ``injector.fired`` is the audit
trail: which faults actually armed/fired, with a human-readable detail.

With ``chaos=None`` (the default everywhere) the hooks cost one ``is None``
check — production paths carry no chaos overhead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.plan import FaultPlan, FaultSpec

__all__ = ["FaultInjector", "FiredFault"]


@dataclass
class FiredFault:
    """One fault the injector armed or fired, for the audit trail.

    ``at`` is the ``time.monotonic()`` instant the fault was taken — the
    soak harness subtracts it from the moment recovery completes to get a
    per-fault time-to-recovery.
    """

    site: str
    target: int
    param: float
    detail: str
    at: float = 0.0


class FaultInjector:
    """One-shot dispenser for a plan's faults, with an audit trail."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending: Dict[Tuple[str, int], FaultSpec] = {
            (f.site, f.target): f for f in plan.faults
        }
        self.fired: List[FiredFault] = []

    # ------------------------------------------------------------------
    def take(self, site: str, target: int, detail: str = "") -> Optional[FaultSpec]:
        """Pop the fault scheduled for ``(site, target)``, if any.

        Returns the spec exactly once per scheduled fault; subsequent calls
        for the same occurrence return ``None`` (recovery replays run
        clean).
        """
        spec = self._pending.pop((site, int(target)), None)
        if spec is not None:
            self.fired.append(
                FiredFault(
                    site=spec.site, target=spec.target, param=spec.param,
                    detail=detail or "fired", at=time.monotonic(),
                )
            )
        return spec

    def pending(self, site: str) -> List[FaultSpec]:
        """Faults at ``site`` that have not fired yet."""
        return sorted(
            (s for (st, _), s in self._pending.items() if st == site),
            key=lambda s: s.target,
        )

    @property
    def exhausted(self) -> bool:
        """True once every scheduled fault has been taken."""
        return not self._pending

    # ------------------------------------------------------------------
    # collector: crash / hang faults are armed up front because they fire
    # inside worker processes (the wrapper data must be picklable)
    # ------------------------------------------------------------------
    def collector_faults(self) -> Optional[Dict]:
        """Arm every pending collector fault for the next dispatch round.

        Returns ``{"crash": [task indices], "hang": {task index: seconds}}``
        — plain picklable data the worker-side chunk runner consults — or
        ``None`` when no collector faults remain. All returned faults are
        consumed (one-shot): retry rounds run clean.
        """
        crash = [
            s.target for s in self.pending("collector.crash")
            if self.take("collector.crash", s.target,
                         "armed: worker running this task will be killed")
        ]
        hang = {
            s.target: s.param for s in self.pending("collector.hang")
            if self.take("collector.hang", s.target,
                         f"armed: task will stall {s.param:g}s")
        }
        if not crash and not hang:
            return None
        return {"crash": sorted(crash), "hang": dict(sorted(hang.items()))}

    # ------------------------------------------------------------------
    # datastore: corrupt a shard's files right after they commit
    # ------------------------------------------------------------------
    def corrupt_shard(self, root, shard_index: int, files: Dict) -> List[str]:
        """Apply scheduled datastore faults to shard ``shard_index``.

        ``files`` maps part name -> ShardFile (as recorded in the
        manifest); corruption happens *after* the manifest recorded the
        good checksums, so ``verify_store`` detects it. Returns a list of
        descriptions of what was corrupted.
        """
        root = Path(root)
        done: List[str] = []
        spec = self.take(
            "datastore.bitflip", shard_index,
            "flipped one byte of the shard's states file",
        )
        if spec is not None:
            path = root / files["states"].file
            offset = self._flip_offset(path, spec)
            with open(path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ 0xFF]))
            done.append(f"bit-flip at byte {offset} of {path.name}")
        spec = self.take(
            "datastore.truncate", shard_index,
            "truncated the tail of the shard's rewards file",
        )
        if spec is not None:
            path = root / files["rewards"].file
            size = path.stat().st_size
            cut = int(min(max(spec.param, 1.0), max(size - 1, 1)))
            os.truncate(path, size - cut)
            done.append(f"truncated {cut} bytes off {path.name}")
        return done

    def _flip_offset(self, path: Path, spec: FaultSpec) -> int:
        """Deterministic in-file offset, past the ``.npy`` header."""
        size = path.stat().st_size
        header = 128  # .npy v1 header is 128 bytes for these arrays
        if size <= header + 1:
            return max(size - 1, 0)
        span = size - header - 1
        mix = (self.plan.seed * 2654435761 + spec.target * 97) & 0x7FFFFFFF
        return header + (mix % span)

    # ------------------------------------------------------------------
    # train: poison one sampled batch
    # ------------------------------------------------------------------
    def mutate_batch(self, batch_index: int, batch: Dict[str, np.ndarray]) -> None:
        """Apply scheduled training faults to batch ``batch_index`` in place."""
        spec = self.take(
            "train.nan", batch_index, "overwrote the batch's rewards with NaN"
        )
        if spec is not None:
            batch["rewards"][...] = np.nan
        spec = self.take(
            "train.spike", batch_index, "mis-scaled the batch's arrays"
        )
        if spec is not None:
            # a mis-scaled (un-normalized) batch: rewards alone would be
            # clamped by the critic's C51 atom support, so scale the states
            # too — the loss spike must actually reach the guard's metrics
            scale = spec.param or 1e6
            batch["rewards"][...] = batch["rewards"] * scale
            if "states" in batch:
                batch["states"][...] = batch["states"] * scale

    # ------------------------------------------------------------------
    # serve: poison or delay one tick's forward pass
    # ------------------------------------------------------------------
    def mutate_serve(
        self,
        tick_index: int,
        ratios: np.ndarray,
        h_next: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply scheduled serving faults to tick ``tick_index``.

        Called inside the engine's deadline-timed region, so a ``slow``
        fault shows up as real inference latency.
        """
        spec = self.take(
            "serve.slow", tick_index, "delayed the tick's forward pass"
        )
        if spec is not None:
            time.sleep(spec.param or 0.05)
        spec = self.take(
            "serve.nan", tick_index,
            "replaced the tick's policy outputs with NaN",
        )
        if spec is not None:
            ratios = np.full_like(np.asarray(ratios, dtype=np.float64), np.nan)
            if h_next is not None:
                h_next = np.full_like(h_next, np.nan)
        return ratios, h_next
