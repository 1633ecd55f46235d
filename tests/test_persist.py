"""The one artifact writer (repro.persist) and the six kinds that use it.

What is pinned here, all structurally (no wall clock):

- every ``.npz`` artifact is a *stored* zip — deflating many small float
  arrays costs more than the training step a checkpoint protects — and the
  ``.crc32`` sidecar still describes the file byte for byte;
- the format did not fork: a deflated archive (what earlier revisions
  wrote) loads through every loader, with the same bytes in every array;
- a kill between the archive rename and the sidecar rename never turns a
  good checkpoint into a "corrupt" one;
- a refused ``load_checkpoint`` leaves the trainer exactly as it was;
- the one-pass writer, as properties over payloads: ``np.load`` returns
  every array bit for bit, every member is stored with ZIP64 fields and is
  byte for byte what ``numpy.lib.format`` writes, the sidecar describes
  the file on disk, and the archive is the one ``np.savez`` writes at the
  same clock — at ZIP64 thresholds lowered to a few bytes too, so the
  paper-scale path runs on small files;
- a failed write (a refused member, a full disk) leaves the previous
  archive and its sidecar byte-identical and no ``.tmp`` behind.
"""

import errno
import io
import json
import os
import struct
import tempfile
import time
import zipfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib import format as npy_format

from repro import persist
from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.agent import SageAgent
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig, SagePolicy
from repro.distill import FEATURE_DIM, DistilledPolicy
from repro.distill.tree import RegressionTree
from repro.netsim.ecn_model import EcnPredictor
from repro.netsim.telemetry import QueueTelemetryRecorder, load_traces
from repro.serve.engine import PolicyServer, ServeConfig
from repro.train.engine import FastCRRTrainer

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)


def _pool():
    rng = np.random.default_rng(0)
    trajs = []
    for i in range(6):
        actions = rng.uniform(0.6, 1.8, size=24)
        trajs.append(
            Trajectory(
                scheme=f"s{i}", env_id=f"e{i}", multi_flow=False,
                states=rng.standard_normal((24, STATE_DIM)) * 0.1,
                actions=actions,
                rewards=np.exp(-10.0 * (actions - 1.1) ** 2),
            )
        )
    return PolicyPool(trajs)


def _trainer(seed=3, steps=0):
    trainer = FastCRRTrainer(
        _pool(), net_config=TINY,
        config=CRRConfig(batch_size=4, seq_len=4, m_samples=2), seed=seed,
    )
    if steps:
        trainer.train(steps)
    return trainer


def _load_trainer(path):
    trainer = _trainer(seed=99)  # every array differs until the load
    trainer.load_checkpoint(path)
    return trainer


def _server(flows=3, ticks=4):
    server = PolicyServer(
        SagePolicy(TINY, np.random.default_rng(0)),
        ServeConfig(deterministic=True, tick_budget=None),
    )
    states = np.random.default_rng(1).standard_normal((ticks, flows, STATE_DIM))
    for flow in range(flows):
        server.connect(flow)
    for tick in range(ticks):
        for flow in range(flows):
            server.serve_one(flow, states[tick, flow], cwnd=10.0)
    return server


def _load_server(path):
    server = _server(flows=0, ticks=0)
    server.restore(path)
    return server


def _distilled():
    tree = RegressionTree(
        feature=np.array([2, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
        value=np.array([0.0, -0.1, 0.2]), conf=np.array([1.0, 0.9, 0.4]),
        n_features=FEATURE_DIM, depth=1,
    )
    return DistilledPolicy(tree, conf_threshold=0.5, refresh_every=7)


def _recorder():
    rec = QueueTelemetryRecorder()
    rows = np.random.default_rng(4).random((5, 5))
    rec.features = [tuple(row[:4]) for row in rows]
    rec.sojourns = list(rows[:, 4])
    return rec


def _load_recorder(path):
    data = load_traces(path)
    rec = QueueTelemetryRecorder()
    rec.features = [tuple(row) for row in data["features"]]
    rec.sojourns = list(data["sojourns"])
    return rec


#: kind -> (make an object, save it to a path, load a path into a new object)
KINDS = {
    "checkpoint": (
        lambda: _trainer(steps=2), FastCRRTrainer.save_checkpoint, _load_trainer
    ),
    "snapshot": (_server, PolicyServer.snapshot, _load_server),
    "distilled": (_distilled, DistilledPolicy.save, DistilledPolicy.load),
    "ecn": (
        lambda: EcnPredictor.init(hidden=8, seed=9),
        EcnPredictor.save, EcnPredictor.load,
    ),
    "policy": (
        lambda: SageAgent(SagePolicy(TINY, np.random.default_rng(2))),
        SageAgent.save, lambda path: SageAgent.load(path, net_config=TINY),
    ),
    "trace": (_recorder, QueueTelemetryRecorder.save, _load_recorder),
}


def _arrays(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: (data[k].dtype.str, data[k].shape, data[k].tobytes())
                for k in data.files}


def _stamp(path):
    raw = path.read_bytes()
    return json.dumps({"crc32": zlib.crc32(raw), "bytes": len(raw)}) + "\n"


def _compress_types(path):
    with zipfile.ZipFile(path) as zf:
        return {info.compress_type for info in zf.infolist()}


@pytest.mark.parametrize("kind", KINDS)
def test_archive_is_stored_and_sidecar_matches_the_file(kind, tmp_path):
    make, save, _ = KINDS[kind]
    path = tmp_path / "artifact.npz"
    save(make(), path)
    assert _compress_types(path) == {zipfile.ZIP_STORED}
    assert (tmp_path / "artifact.npz.crc32").read_text() == _stamp(path)
    # the same two files as ever, and no .tmp litter after a clean save
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "artifact.npz", "artifact.npz.crc32",
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_deflated_archive_loads_with_the_same_bytes(kind, tmp_path):
    make, save, load = KINDS[kind]
    stored = tmp_path / "stored.npz"
    save(make(), stored)
    with np.load(stored, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files}
    deflated = tmp_path / "deflated.npz"
    np.savez_compressed(deflated, **payload)  # what earlier revisions wrote
    (tmp_path / "deflated.npz.crc32").write_text(_stamp(deflated))
    assert _compress_types(deflated) == {zipfile.ZIP_DEFLATED}
    assert _arrays(deflated) == _arrays(stored)
    for source in (stored, deflated):
        again = tmp_path / f"again-{source.name}"
        save(load(source), again)  # verifies the sidecar, then round-trips
        assert _arrays(again) == _arrays(stored), source.name


class _Killed(Exception):
    """Stands in for kill -9 at one instruction of ``write_npz_atomic``."""


def _die(*args, **kwargs):
    raise _Killed


class TestTornPair:
    def _two_steps(self, tmp_path, monkeypatch, owner, dying_call):
        path = tmp_path / "ckpt.npz"
        trainer = _trainer(steps=1)
        trainer.save_checkpoint(path)
        trainer.train(1)
        with monkeypatch.context() as patch:
            patch.setattr(owner, dying_call, _die)
            with pytest.raises(_Killed):
                trainer.save_checkpoint(path)
        return path

    def test_death_before_the_sidecar_keeps_the_new_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # the step-2 archive is renamed in, its sidecar never written: the
        # step-1 sidecar must not be left beside it to condemn it
        path = self._two_steps(tmp_path, monkeypatch, persist, "_replace_text")
        assert _load_trainer(path).steps_done == 2

    def test_death_before_the_archive_rename_keeps_a_loadable_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = self._two_steps(tmp_path, monkeypatch, os, "replace")
        assert _load_trainer(path).steps_done in (1, 2)


def test_refused_load_leaves_the_trainer_untouched(tmp_path):
    # a valid .npz that is not this trainer's checkpoint: the policy keys
    # fit, everything after them is missing
    path = tmp_path / "policy_only.npz"
    donor = _trainer(seed=5, steps=1)._state_payload()
    persist.write_npz_atomic(
        path, {k: v for k, v in donor.items() if k.startswith("policy/")}
    )
    trainer = _trainer(steps=2)
    before = trainer.capture_state()  # nets, Adam m/v/t, step, RNG, sampler
    with pytest.raises(ValueError):
        trainer.load_checkpoint(path)
    after = trainer.capture_state()
    assert set(after) == set(before)
    for key in before:
        assert after[key].tobytes() == before[key].tobytes(), key


@pytest.mark.parametrize("kind", KINDS)
def test_savez_archive_loads_like_the_writers(kind, tmp_path):
    make, save, load = KINDS[kind]
    ours = tmp_path / "ours.npz"
    save(make(), ours)
    with np.load(ours, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files}
    theirs = tmp_path / "theirs.npz"
    np.savez(theirs, **payload)  # the call this writer replaced
    (tmp_path / "theirs.npz.crc32").write_text(_stamp(theirs))
    for source in (ours, theirs):
        again = tmp_path / f"again-{source.name}"
        save(load(source), again)
        assert _arrays(again) == _arrays(ours), source.name


# -- the one-pass writer, as properties over payloads ----------------------

_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "|b1", "|u1", "<U3"])


@st.composite
def _members(draw):
    array = draw(hnp.arrays(
        draw(_DTYPES), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    ))
    layout = draw(st.sampled_from(["as_is", "transposed", "fortran", "strided"]))
    if layout == "transposed":
        return array.T
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return array[::2]
    return array


_PAYLOADS = st.dictionaries(
    st.text(alphabet="ab/_.\u00e9", min_size=1, max_size=6), _members(), max_size=5,
)


def _clock_1980():
    """``np.savez`` stamps members with the wall clock; pin it to the
    writer's fixed 1980-01-01 so the two archives can be compared."""
    return mock.patch.object(
        time, "localtime", lambda *_: time.struct_time((1980, 1, 1, 0, 0, 0, 1, 1, -1)),
    )


def _local_header(raw, info):
    """A member's local header: its two 32-bit size fields and its extra
    field."""
    off = info.header_offset
    sizes = struct.unpack_from("<2L", raw, off + 18)
    name_len, extra_len = struct.unpack_from("<2H", raw, off + 26)
    extra = raw[off + 30 + name_len: off + 30 + name_len + extra_len]
    return sizes, extra


@settings(max_examples=60, deadline=None)
@given(payload=_PAYLOADS)
def test_writer_round_trips_bit_for_bit(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.npz"
        persist.write_npz_atomic(path, payload)
        raw = path.read_bytes()
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == sorted(payload)
            for key, value in payload.items():
                got = data[key]
                assert (got.dtype, got.shape) == (value.dtype, value.shape), key
                assert got.tobytes() == value.tobytes(), key
        with zipfile.ZipFile(path) as zf:
            assert zf.testzip() is None
            for info in zf.infolist():
                assert info.compress_type == zipfile.ZIP_STORED
                size = info.file_size
                assert _local_header(raw, info) == (
                    (0xFFFFFFFF, 0xFFFFFFFF), struct.pack("<HHQQ", 1, 16, size, size),
                )
                want = io.BytesIO()
                npy_format.write_array(
                    want, payload[info.filename[:-4]], allow_pickle=False,
                )
                assert zf.read(info) == want.getvalue(), info.filename
        assert (Path(tmp) / "a.npz.crc32").read_text() == _stamp(path)


@settings(max_examples=30, deadline=None)
@given(payload=_PAYLOADS)
def test_writer_writes_what_savez_writes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.npz", Path(tmp) / "theirs.npz"
        persist.write_npz_atomic(ours, payload)
        with _clock_1980():
            np.savez(theirs, **payload)
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("zip64_limit, count_limit", [
    (40, persist._FILECOUNT_LIMIT),  # sizes and offsets past the limit
    (persist._ZIP64_LIMIT, 2),  # only the member count past it
])
def test_paper_scale_path_matches_savez_on_small_files(
    tmp_path, zip64_limit, count_limit
):
    """Sizes, offsets and the member count past zipfile's ZIP64 limits:
    lowered to a few bytes, so ZIP64 central records and end-of-archive
    records are written — and read back — on a small archive."""
    payload = {f"m{i}": np.arange(i + 3, dtype=np.float64) for i in range(4)}
    with mock.patch.multiple(
        persist, _ZIP64_LIMIT=zip64_limit, _FILECOUNT_LIMIT=count_limit,
    ), mock.patch.multiple(
        zipfile, ZIP64_LIMIT=zip64_limit, ZIP_FILECOUNT_LIMIT=count_limit,
    ), _clock_1980():
        persist.write_npz_atomic(tmp_path / "ours.npz", payload)
        np.savez(tmp_path / "theirs.npz", **payload)
    raw = (tmp_path / "ours.npz").read_bytes()
    assert raw == (tmp_path / "theirs.npz").read_bytes()
    assert b"PK\x06\x06" in raw and b"PK\x06\x07" in raw  # ZIP64 end records
    with np.load(tmp_path / "ours.npz", allow_pickle=False) as data:
        for key, value in payload.items():
            assert data[key].tobytes() == value.tobytes()


# -- a failed write --------------------------------------------------------

def _previous(tmp_path):
    path = tmp_path / "ckpt.npz"
    persist.write_npz_atomic(path, {"w": np.arange(5.0)})
    return path, {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_object_member_is_refused_before_any_file_is_touched(tmp_path):
    path, before = _previous(tmp_path)
    payload = {"w": np.arange(5.0), "meta/names": np.array(["a", None], dtype=object)}
    with pytest.raises(ValueError, match="meta/names"):
        persist.write_npz_atomic(path, payload)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_full_disk_leaves_the_previous_archive_and_no_tmp(tmp_path, monkeypatch):
    path, before = _previous(tmp_path)

    class FullDisk:
        """A file that takes the first write, then reports ENOSPC."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(data)

    monkeypatch.setattr(persist, "open", FullDisk, raising=False)
    with pytest.raises(OSError) as err:
        persist.write_npz_atomic(path, {"w": np.arange(7.0), "v": np.ones(3)})
    assert err.value.errno == errno.ENOSPC
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
