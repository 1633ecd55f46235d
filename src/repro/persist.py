"""Atomic artifact writes (tmp file, then rename) and the CRC32 sidecar.

A kill -9 leaves the old file or the new one under the real name, never a
truncated one. A write that fails (a refused payload, a full disk) leaves
the previous artifact and its sidecar as they were, and no ``.tmp`` file.

Every ``.npz`` artifact — trainer checkpoints, server snapshots, distilled
trees, ECN predictors — is the stored (not deflated) zip that numpy's
``savez`` writes, with ZIP64 fields on every member, written in one
pass: each array's bytes go to the file once, without a copy, and the
sidecar's CRC is accumulated from the same buffers instead of re-reading
the file. Members carry a fixed timestamp (1980-01-01), so the same
payload gives the same bytes. ``np.load`` reads these archives and the
deflated ones earlier revisions wrote alike.

On every import path through ``repro.netsim``: stdlib + numpy.
"""

from __future__ import annotations

import functools
import io
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

# zip records, in zipfile's layouts
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_END64 = struct.Struct("<4sQ2H2L4Q")
_LOCATOR = struct.Struct("<4sLQL")
_ZIP64_EXTRA = struct.Struct("<HHQQ")  # tag 1: uncompressed, compressed size
_ZIP64_VERSION = 45
_DOS_DATE = (1 << 5) | 1  # 1980-01-01, time 00:00:00
_MODE_600 = 0o600 << 16  # what zipfile gives a member opened for writing
_UTF8_NAME = 0x800
_OVERFLOW = 0xFFFFFFFF
# zipfile's thresholds for ZIP64 central records (module-level so a test
# can drive the large-archive path with small files)
_ZIP64_LIMIT = (1 << 31) - 1
_FILECOUNT_LIMIT = (1 << 16) - 1


def file_crc32(path) -> int:
    """CRC32 of a file's raw bytes, streamed in bounded chunks."""
    crc = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
    return crc


def _replace_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path, obj) -> None:
    """Write ``obj`` as indented JSON, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _replace_text(path, json.dumps(obj, indent=1) + "\n")


# a checkpoint's few hundred members repeat a few dozen layouts, save after save
@functools.lru_cache(maxsize=256)
def _npy_header(dtype: np.dtype, shape: tuple, fortran_order: bool) -> bytes:
    """``numpy.lib.format``'s own header for an array of this layout
    (format 1.0, or 2.0 when it does not fit, as ``np.save`` picks)."""
    meta = {
        "descr": npy_format.dtype_to_descr(dtype),
        "fortran_order": fortran_order,
        "shape": shape,
    }
    buf = io.BytesIO()
    try:
        npy_format.write_array_header_1_0(buf, meta)
    except ValueError:  # header over 64 KiB
        buf = io.BytesIO()
        npy_format.write_array_header_2_0(buf, meta)
    return buf.getvalue()


def _npy_member(key: str, value):
    """``(name, flag bits, .npy header, raw bytes)`` of one payload entry.

    The raw bytes are a view of the array's memory unless the array is
    neither C- nor Fortran-ordered.
    """
    array = np.asarray(value)
    if array.dtype.hasobject or array.dtype.kind not in "biufcmMSUV":
        raise ValueError(
            f"artifact member {key!r} has dtype {array.dtype}, which only a "
            f"pickle can store, and every loader refuses pickles"
        )
    if array.flags.c_contiguous:
        flat, fortran_order = array, False
    elif array.flags.f_contiguous:
        flat, fortran_order = array.T, True  # memory order as is
    else:
        flat, fortran_order = np.ascontiguousarray(array), False
    head = _npy_header(array.dtype, array.shape, fortran_order)
    raw = flat.reshape(-1).view(np.uint8) if array.nbytes else b""
    fname = key + ".npy"
    try:
        return fname.encode("ascii"), 0, head, raw
    except UnicodeEncodeError:
        return fname.encode("utf-8"), _UTF8_NAME, head, raw


def _central_record(name: bytes, flags: int, crc: int, size: int, offset: int) -> bytes:
    """One central-directory entry, with ZIP64 fields only for the values
    past zipfile's limit, as zipfile writes it."""
    extra = []
    if size > _ZIP64_LIMIT:
        extra += [size, size]
        size = _OVERFLOW
    if offset > _ZIP64_LIMIT:
        extra.append(offset)
        offset = _OVERFLOW
    extra_bytes = (
        struct.pack(f"<HH{len(extra)}Q", 1, 8 * len(extra), *extra) if extra else b""
    )
    return _CENTRAL.pack(
        b"PK\x01\x02", _ZIP64_VERSION, 3, _ZIP64_VERSION, 0, flags, 0, 0,  # 3: Unix
        _DOS_DATE, crc, size, size, len(name), len(extra_bytes), 0, 0, 0,
        _MODE_600, offset,
    ) + name + extra_bytes


def _write_stored_npz(fh, members) -> tuple:
    """Write ``members`` as a stored zip; return (CRC32, size) of the file."""
    crc = offset = 0
    directory = []
    for name, flags, head, raw in members:
        size = len(head) + len(raw)
        member_crc = zlib.crc32(raw, zlib.crc32(head))
        local = _LOCAL.pack(
            b"PK\x03\x04", _ZIP64_VERSION, 0, flags, 0, 0, _DOS_DATE,
            member_crc, _OVERFLOW, _OVERFLOW, len(name), _ZIP64_EXTRA.size,
        ) + name + _ZIP64_EXTRA.pack(1, 16, size, size) + head
        fh.write(local)
        fh.write(raw)
        crc = zlib.crc32(raw, zlib.crc32(local, crc))
        directory.append(_central_record(name, flags, member_crc, size, offset))
        offset += len(local) + len(raw)
    tail = b"".join(directory)
    count, dir_size = len(directory), len(tail)
    if count > _FILECOUNT_LIMIT or offset > _ZIP64_LIMIT or dir_size > _ZIP64_LIMIT:
        tail += _END64.pack(
            b"PK\x06\x06", 44, _ZIP64_VERSION, _ZIP64_VERSION, 0, 0,
            count, count, dir_size, offset,
        ) + _LOCATOR.pack(b"PK\x06\x07", 0, offset + dir_size, 1)
    tail += _END.pack(
        b"PK\x05\x06", 0, 0, min(count, 0xFFFF), min(count, 0xFFFF),
        min(dir_size, _OVERFLOW), min(offset, _OVERFLOW), 0,
    )
    fh.write(tail)
    return zlib.crc32(tail, crc), offset + len(tail)


def write_npz_atomic(path, payload) -> None:
    """Write a stored (not deflated) ``.npz``, then ``<name>.crc32`` (CRC + size).

    Artifacts here are many small float arrays: deflating them costs more
    than the training step a checkpoint protects and saves ~5 % of the file.
    The stale sidecar goes before the archive is renamed in, so a kill
    between the two renames leaves a whole archive with no sidecar (which
    loads), never a new archive beside the previous one's checksum.
    An object-dtype member is refused (``ValueError`` naming its key)
    before any file is touched.
    """
    path = Path(path)
    members = [_npy_member(key, value) for key, value in payload.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    sidecar = Path(f"{path}.crc32")
    try:
        with open(tmp, "wb", buffering=1 << 16) as fh:
            crc, size = _write_stored_npz(fh, members)
        sidecar.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _replace_text(sidecar, json.dumps({"crc32": crc, "bytes": size}) + "\n")


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
