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
    """Write a stored (not deflated) ``.npz``, then ``<name>.crc32`` (CRC + size).

    Artifacts here are many small float arrays: deflating them costs more
    than the training step a checkpoint protects and saves ~5 % of the file.
    The stale sidecar goes before the archive is renamed in, so a kill
    between the two renames leaves a whole archive with no sidecar (which
    loads), never a new archive beside the previous one's checksum.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:  # a handle: np.savez appends ".npz" to a path
        np.savez(fh, **payload)
    stamp = {"crc32": file_crc32(tmp), "bytes": tmp.stat().st_size}
    sidecar = Path(f"{path}.crc32")
    sidecar.unlink(missing_ok=True)
    os.replace(tmp, path)
    _replace_text(sidecar, json.dumps(stamp) + "\n")


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
