"""Checkpointing: save/load a Module's parameter tree as ``.npz``."""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.nn.layers import Module
from repro.persist import verify_sidecar, write_npz_atomic


def save_params(module: Module, path) -> None:
    """Write a module's state dict atomically, with a CRC32 sidecar."""
    write_npz_atomic(path, module.state_dict())


def read_params(path) -> Dict[str, np.ndarray]:
    """The arrays of a parameter file written by :func:`save_params`.

    Raises
    ------
    ValueError
        If the file fails its sidecar check or is not a valid ``.npz``
        archive (truncated download, interrupted save, ...) — names the
        offending file and how to rebuild it rather than surfacing a bare
        ``zipfile.BadZipFile``. A file with no sidecar is read unchecked.
    """
    path = Path(path)
    verify_sidecar(path, "checkpoint")
    try:
        with np.load(path, allow_pickle=False) as data:
            return {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        # BadZipFile: zip magic present but archive truncated/corrupt.
        # ValueError: no zip magic at all (np.load takes the bytes for a
        # pickle and refuses it). Either way the checkpoint is unusable.
        raise ValueError(
            f"checkpoint {path} is not a valid .npz archive ({exc}); "
            f"the file is corrupt or truncated — regenerate it (for the "
            f"shipped model: python tools/export_pretrained.py)"
        ) from exc


def load_params(module: Module, path) -> None:
    """Load a state dict produced by :func:`save_params` into ``module``."""
    module.load_state_dict(read_params(path))
