"""The one artifact writer (repro.persist) and the four kinds that use it.

What is pinned here, all structurally (no wall clock):

- every ``.npz`` artifact is a *stored* zip — deflating many small float
  arrays costs more than the training step a checkpoint protects — and the
  ``.crc32`` sidecar still describes the file byte for byte;
- the format did not fork: a deflated archive (what earlier revisions
  wrote) loads through every loader, with the same bytes in every array;
- a kill between the archive rename and the sidecar rename never turns a
  good checkpoint into a "corrupt" one;
- a refused ``load_checkpoint`` leaves the trainer exactly as it was.
"""

import json
import os
import zipfile
import zlib

import numpy as np
import pytest

from repro import persist
from repro.collector.gr_unit import STATE_DIM
from repro.collector.pool import PolicyPool, Trajectory
from repro.core.crr import CRRConfig
from repro.core.networks import NetworkConfig, SagePolicy
from repro.distill import FEATURE_DIM, DistilledPolicy
from repro.distill.tree import RegressionTree
from repro.netsim.ecn_model import EcnPredictor
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
