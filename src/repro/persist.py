"""Atomic artifact writes (tmp file, then rename) and the CRC32 sidecar.

A kill -9 leaves the old file or the new one under the real name, never a
truncated one. On every import path through ``repro.netsim``: stdlib + numpy.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np


def file_crc32(path) -> int:
    """CRC32 of a file's raw bytes, streamed in bounded chunks."""
    crc = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
    return crc


def _replace_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json_atomic(path, obj) -> None:
    """Write ``obj`` as indented JSON, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _replace_text(path, json.dumps(obj, indent=1) + "\n")


def write_npz_atomic(path, payload) -> None:
    """Write a compressed ``.npz``, then ``<name>.crc32`` with its CRC and size."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:  # a handle: np.savez appends ".npz" to a path
        np.savez_compressed(fh, **payload)
    os.replace(tmp, path)
    stamp = {"crc32": file_crc32(path), "bytes": path.stat().st_size}
    _replace_text(Path(f"{path}.crc32"), json.dumps(stamp) + "\n")


def verify_sidecar(path, what: str) -> None:
    """``ValueError`` naming ``what`` if ``path`` and its sidecar (if any) differ."""
    sidecar = Path(f"{path}.crc32")
    if not sidecar.exists():
        return
    want = json.loads(sidecar.read_text())
    got = (file_crc32(path), os.path.getsize(path))
    if got != (int(want["crc32"]), int(want["bytes"])):
        raise ValueError(
            f"{what} {path} fails its integrity check (crc/size mismatch vs "
            f"{sidecar.name}); refusing to load"
        )
