"""Seed derivation shared by every layer that fans work out.

Dependency-free on purpose: the workload generator and the simulator-only
paths need it without importing the collector (and with it
``multiprocessing``).
"""

from __future__ import annotations

__all__ = ["derive_seed"]


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-task seed from ``(base_seed, index)`` only.

    SplitMix64-style finalizer: adjacent indices map to well-separated
    32-bit seeds, and the mapping is independent of worker count, chunking,
    and completion order.
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFF
