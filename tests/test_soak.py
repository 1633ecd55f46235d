"""Tests for the continuous-chaos soak layer.

Covers the new robustness machinery end to end:

- ``FaultProcess``: seed determinism, per-site stream independence,
  horizon-prefix stability, JSON round-trips, and the replay-clean
  one-shot guarantee it inherits by materializing to a ``FaultPlan``;
- ``PolicyServer.snapshot()/restore()``: bit-identical decision streams
  across an in-process restore **and** a real ``kill -9``, corrupt
  snapshots refused via the CRC sidecar;
- ``reload_policy``: hot swap accepted for a good checkpoint, a
  NaN-poisoned one rejected by shadow validation with the old policy
  still serving, the optional divergence gate;
- resource guards: ``ShardWriter`` disk budgets + ENOSPC unwind,
  ``MemoryGuard`` valves;
- graceful degradation: corrupt ECN / distilled checkpoints fall back
  instead of raising through serving setup;
- ``verify_store`` sweeping orphaned ``*.tmp`` files;
- the soak harness itself: a tiny seeded run with all phases, zero
  invariant violations, artifacts bit-identical to its fault-free twin.
"""

import copy
import errno
import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import DEFAULT_RATES, FaultProcess
from repro.collector.gr_unit import STATE_DIM
from repro.core.networks import NetworkConfig, SagePolicy
from repro.datastore import ShardWriter, StoreFullError, verify_store
from repro.resources import MemoryGuard, rss_bytes
from repro.serve.engine import PolicyServer, ServeConfig
from repro.serve.metrics import ServingMetrics
from repro.serve.state import _COLUMNS
from repro.soak import SoakConfig, run_soak
from repro.soak.report import (
    FaultObserver,
    aggregate_faults,
    evaluate_slos,
)

REPO = Path(__file__).resolve().parent.parent

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=2, n_atoms=7)

HORIZONS = {"collector": 6, "train": 40, "serve": 50, "workload": 30}


@pytest.fixture()
def policy():
    return SagePolicy(TINY, np.random.default_rng(0))


def _serve_states(seed, ticks, flows):
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal((ticks, flows, STATE_DIM)))


def _drive(server, states, start=0, stop=None):
    stop = states.shape[0] if stop is None else stop
    out = []
    for t in range(start, stop):
        for flow in range(states.shape[1]):
            server.submit(flow, states[t, flow], cwnd=20.0)
        for flow, d in sorted(server.tick().items()):
            out.append((t, flow, float(d.ratio).hex(), d.source))
    return out


# --------------------------------------------------------------------------
# FaultProcess
# --------------------------------------------------------------------------


class TestFaultProcess:
    def test_same_seed_same_schedule(self):
        a = FaultProcess(seed=7).plan(HORIZONS)
        b = FaultProcess(seed=7).plan(HORIZONS)
        assert a == b
        assert FaultProcess(seed=8).plan(HORIZONS) != a

    def test_streams_are_disjoint_across_sites(self):
        # cranking one site's rate must not shift any other site's slots
        base = FaultProcess(seed=3)
        loud = FaultProcess(
            seed=3, rates={**DEFAULT_RATES, "train.nan": 50.0}
        )
        for site in DEFAULT_RATES:
            if site == "train.nan":
                continue
            assert base.arrivals(site, 64) == loud.arrivals(site, 64), site

    def test_arrivals_are_prefix_stable(self):
        proc = FaultProcess(seed=11)
        short = proc.arrivals("collector.crash", 16)
        long = proc.arrivals("collector.crash", 256)
        assert long[: len(short)] == short
        assert all(0 <= t < 16 for t in short)
        assert sorted(set(long)) == long  # strictly increasing, deduped

    def test_zero_rate_site_never_fires(self):
        proc = FaultProcess(seed=0, rates={"train.nan": 0.0})
        assert proc.arrivals("train.nan", 10_000) == []

    def test_json_round_trip(self):
        proc = FaultProcess(seed=5, rates={"serve.nan": 0.4})
        clone = FaultProcess.from_json(proc.to_json())
        assert clone == proc
        assert clone.plan(HORIZONS) == proc.plan(HORIZONS)

    def test_save_load(self, tmp_path):
        proc = FaultProcess(seed=9)
        proc.save(tmp_path / "proc.json")
        assert FaultProcess.load(tmp_path / "proc.json") == proc

    def test_schema_version_rejected(self):
        payload = FaultProcess(seed=1).to_json()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            FaultProcess.from_json(payload)

    def test_bad_sites_and_rates_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultProcess(rates={"nope.nope": 1.0})
        with pytest.raises(ValueError, match="rate"):
            FaultProcess(rates={"train.nan": -1.0})
        with pytest.raises(ValueError, match="rate"):
            FaultProcess(rates={"train.nan": float("nan")})

    def test_injector_is_one_shot(self):
        proc = FaultProcess(seed=2, rates={"train.nan": 5.0})
        injector = proc.injector({"train": 8})
        slots = proc.arrivals("train.nan", 8)
        assert slots, "a rate of 5/slot must fire within 8 slots"
        batch = {"rewards": np.ones(4), "states": np.ones((4, 3))}
        injector.mutate_batch(slots[0], batch)
        assert np.isnan(batch["rewards"]).all()
        clean = {"rewards": np.ones(4), "states": np.ones((4, 3))}
        injector.mutate_batch(slots[0], clean)  # replay: already spent
        assert np.isfinite(clean["rewards"]).all()
        assert [f.site for f in injector.fired] == ["train.nan"]

    def test_fired_faults_carry_timestamps(self):
        proc = FaultProcess(seed=2, rates={"train.nan": 5.0})
        injector = proc.injector({"train": 8})
        slot = proc.arrivals("train.nan", 8)[0]
        injector.mutate_batch(slot, {"rewards": np.ones(2)})
        assert injector.fired[0].at > 0.0


# --------------------------------------------------------------------------
# FaultObserver / report plumbing
# --------------------------------------------------------------------------


class _Tick:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestFaultObserver:
    def _injector(self):
        proc = FaultProcess(seed=2, rates={"train.nan": 5.0})
        return proc.injector({"train": 8}), proc.arrivals("train.nan", 8)

    def test_observe_stamps_detection_and_ttr(self):
        injector, slots = self._injector()
        obs = FaultObserver()
        injector.mutate_batch(slots[0], {"rewards": np.ones(2)})
        obs.observe(injector, "train-stage-complete")
        (record,) = obs.records
        assert record["site"] == "train.nan"
        assert record["recovery_boundary"] == "train-stage-complete"
        assert record["ttr_s"] >= 0.0 and record["detected_s"] >= 0.0

    def test_deferred_faults_close_at_resolve(self):
        injector, slots = self._injector()
        obs = FaultObserver(clock=_Tick())
        injector.mutate_batch(slots[0], {"rewards": np.ones(2)})
        obs.observe(injector, "collect", defer=("train.",))
        assert obs.records[0]["ttr_s"] is None
        obs.resolve("train.", "verify-repair")
        assert obs.records[0]["recovery_boundary"] == "verify-repair"
        assert obs.records[0]["ttr_s"] is not None

    def test_aggregate_and_slos(self):
        records = [
            {"site": "a.x", "ttr_s": 1.0, "detected_s": 0.5},
            {"site": "a.x", "ttr_s": 3.0, "detected_s": 2.0},
            {"site": "b.y", "ttr_s": 2.0, "detected_s": 1.0},
        ]
        faults = aggregate_faults(records)
        assert faults["by_site"] == {"a.x": 2, "b.y": 1}
        assert faults["sites_exercised"] == 2
        assert faults["mttr"]["p50_s"] == 2.0
        slos = evaluate_slos(faults, [], 10.0, 10.0, min_sites=2)
        assert slos["passed"]
        slos = evaluate_slos(faults, [{"invariant": "x", "detail": "d"}],
                             10.0, 10.0)
        assert not slos["passed"]


# --------------------------------------------------------------------------
# snapshot / restore
# --------------------------------------------------------------------------


class TestSnapshotRestore:
    def _server(self, policy, distilled=None, **kw):
        cfg = ServeConfig(deterministic=True, tick_budget=None, **kw)
        return PolicyServer(policy, cfg, distilled=distilled)

    def _straight_and_restored(self, tmp_path, policy, distilled=None):
        """One decision stream served straight through, and the same
        stream from a server snapshotted at tick 6 and restored fresh."""
        states = _serve_states(0, 12, 3)
        straight = self._server(policy, distilled)
        broken = self._server(policy, distilled)
        for flow in range(3):
            straight.connect(flow)
            broken.connect(flow)
        want = _drive(straight, states)
        got = _drive(broken, states, stop=6)
        broken.snapshot(tmp_path / "snap.npz")
        fresh = self._server(policy, distilled)
        fresh.restore(tmp_path / "snap.npz")
        got += _drive(fresh, states, start=6)
        return want, got

    def test_restored_decision_stream_is_bit_identical(self, tmp_path, policy):
        want, got = self._straight_and_restored(tmp_path, policy)
        assert got == want

    def test_restored_tiered_decision_stream_is_bit_identical(
        self, tmp_path, policy
    ):
        """The tier-0 tree reads each flow's cached hidden summary, which
        snapshots do not carry: restore must rebuild it from the table."""
        from repro.distill import DistilledPolicy
        from tests.test_serve import golden_tree

        distilled = DistilledPolicy(golden_tree(), conf_threshold=0.5,
                                    refresh_every=6)
        want, got = self._straight_and_restored(tmp_path, policy, distilled)
        assert got == want
        assert {"symbolic", "policy"} <= {source for *_, source in want}

    def test_snapshot_preserves_metrics_and_sessions(self, tmp_path, policy):
        server = self._server(policy)
        for flow in range(4):
            server.connect(flow)
        _drive(server, _serve_states(1, 5, 4))
        server.close(3)
        server.snapshot(tmp_path / "snap.npz")
        fresh = self._server(policy)
        fresh.restore(tmp_path / "snap.npz")
        assert sorted(fresh._sessions) == [0, 1, 2]
        assert fresh.metrics.decisions == server.metrics.decisions
        assert fresh.metrics.ticks == server.metrics.ticks
        assert fresh._tick_index == server._tick_index

    def test_corrupt_snapshot_is_refused(self, tmp_path, policy):
        server = self._server(policy)
        server.connect(0)
        server.snapshot(tmp_path / "snap.npz")
        raw = bytearray((tmp_path / "snap.npz").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / "snap.npz").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="integrity"):
            self._server(policy).restore(tmp_path / "snap.npz")

    def test_snapshot_refused_for_mismatched_network(self, tmp_path, policy):
        server = self._server(policy)
        server.connect(0)
        server.snapshot(tmp_path / "snap.npz")
        other = SagePolicy(
            NetworkConfig(enc_dim=16, gru_dim=8, n_components=2, n_atoms=7),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="pair"):
            self._server(other).restore(tmp_path / "snap.npz")

    @pytest.mark.parametrize("fault", [
        "row_out_of_range", "negative_row", "shared_row", "row_on_free_list",
        "free_row_out_of_range", "free_row_repeated", "short_column",
    ])
    def test_malformed_session_table_is_refused_and_server_kept(
        self, tmp_path, policy, fault
    ):
        from repro.persist import write_npz_atomic

        server = self._server(policy)
        for flow in range(3):
            server.connect(flow)
        server.close(1)  # capacity 16: rows 0 and 2 held, row 1 free again
        server.snapshot(tmp_path / "snap.npz")
        with np.load(tmp_path / "snap.npz", allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        meta = json.loads(bytes(payload["meta/json"]).decode("utf-8"))
        sessions, free = meta["sessions"], meta["free"]
        if fault == "row_out_of_range":
            sessions[0]["row"] = 999
        elif fault == "negative_row":
            sessions[0]["row"] = -1
        elif fault == "shared_row":
            sessions[1]["row"] = sessions[0]["row"]
        elif fault == "row_on_free_list":
            free.append(sessions[0]["row"])
        elif fault == "free_row_out_of_range":
            free.append(meta["capacity"])
        elif fault == "free_row_repeated":
            free.append(free[0])
        else:
            payload["cols/nn_age"] = payload["cols/nn_age"][:-1]
        payload["meta/json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        write_npz_atomic(tmp_path / "bad.npz", payload)  # CRC-valid

        target = self._server(policy)
        target.connect(0)
        states = _serve_states(2, 3, 1)
        _drive(target, states, stop=2)
        target.submit(0, states[2, 0], cwnd=20.0)  # one pending
        fields = ("_sessions", "_pending", "_free", "_tick_index", "metrics",
                  "_table", "_hsum", *(f"_{c}" for c in _COLUMNS))
        before = {k: getattr(target, k) for k in fields}
        copies = {k: copy.deepcopy(v) for k, v in before.items()}
        with pytest.raises(ValueError, match="server snapshot"):
            target.restore(tmp_path / "bad.npz")
        for key in fields:
            now = getattr(target, key)
            assert now is before[key], key
            if isinstance(now, np.ndarray):
                assert np.array_equal(now, copies[key]), key
        assert target._free == copies["_free"]
        assert list(target._sessions) == [0] and list(target._pending) == [0]

    def test_real_sigkill_then_restore_is_bit_identical(self, tmp_path, policy):
        # an uninterrupted reference stream, in-process
        states = _serve_states(4, 10, 3)
        straight = self._server(policy)
        for flow in range(3):
            straight.connect(flow)
        want = _drive(straight, states)

        snap = tmp_path / "snap.npz"
        first = tmp_path / "first_half.json"
        driver = f"""
import json, os, signal, sys
import numpy as np
sys.path.insert(0, {str(REPO / "src")!r})
sys.path.insert(0, {str(REPO)!r})
from tests.test_soak import TINY, _drive, _serve_states
from repro.core.networks import SagePolicy
from repro.serve.engine import PolicyServer, ServeConfig
policy = SagePolicy(TINY, np.random.default_rng(0))
server = PolicyServer(
    policy, ServeConfig(deterministic=True, tick_budget=None)
)
for flow in range(3):
    server.connect(flow)
states = _serve_states(4, 10, 3)
out = _drive(server, states, stop=5)
server.snapshot({str(snap)!r})
with open({str(first)!r}, "w") as fh:
    json.dump(out, fh)
    fh.flush()
    os.fsync(fh.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""
        proc = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, timeout=300
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        got = [tuple(x) for x in json.loads(first.read_text())]
        fresh = self._server(policy)
        fresh.restore(snap)
        got += _drive(fresh, states, start=5)
        assert got == want


# --------------------------------------------------------------------------
# hot reload
# --------------------------------------------------------------------------


class TestHotReload:
    def _server(self, policy):
        cfg = ServeConfig(deterministic=True, tick_budget=None)
        return PolicyServer(policy, cfg)

    def test_good_checkpoint_swaps_in(self, tmp_path, policy):
        other = SagePolicy(TINY, np.random.default_rng(1))
        np.savez(tmp_path / "ck.npz", **other.state_dict())
        server = self._server(policy)
        report = server.reload_policy(tmp_path / "ck.npz")
        assert report["accepted"], report["reason"]
        assert server.reload_events[-1] is report
        want = other.state_dict()
        got = server.policy.state_dict()
        assert all(np.array_equal(want[k], got[k]) for k in want)

    def test_poisoned_checkpoint_rejected_old_policy_serves(
        self, tmp_path, policy
    ):
        params = SagePolicy(TINY, np.random.default_rng(1)).state_dict()
        key = sorted(params)[0]
        params[key] = np.full_like(params[key], np.nan)
        np.savez(tmp_path / "bad.npz", **params)
        server = self._server(policy)
        server.connect(0)
        before = server.policy
        report = server.reload_policy(tmp_path / "bad.npz")
        assert not report["accepted"]
        assert "shadow validation" in report["reason"]
        assert server.policy is before
        server.submit(0, _serve_states(0, 1, 1)[0, 0], cwnd=20.0)
        (decision,) = server.tick().values()
        assert np.isfinite(decision.ratio) and decision.ratio > 0

    def test_unreadable_checkpoint_rejected(self, tmp_path, policy):
        (tmp_path / "junk.npz").write_bytes(b"not a checkpoint")
        server = self._server(policy)
        report = server.reload_policy(tmp_path / "junk.npz")
        assert not report["accepted"]
        assert "unusable" in report["reason"]
        report = server.reload_policy(tmp_path / "missing.npz")
        assert not report["accepted"]

    def test_divergence_gate(self, tmp_path, policy):
        np.savez(tmp_path / "same.npz", **policy.state_dict())
        far = SagePolicy(TINY, np.random.default_rng(99))
        for arr in far.state_dict().values():
            arr *= 50.0
        np.savez(tmp_path / "far.npz", **far.state_dict())
        server = self._server(policy)
        same = server.reload_policy(
            tmp_path / "same.npz", max_log_ratio_shift=1e-9
        )
        assert same["accepted"], same["reason"]
        report = server.reload_policy(
            tmp_path / "far.npz", max_log_ratio_shift=1e-9
        )
        assert not report["accepted"]
        assert "d log ratio" in report["reason"]


# --------------------------------------------------------------------------
# resource guards
# --------------------------------------------------------------------------


def _traj(rng, i, length=32):
    from repro.collector.pool import Trajectory

    return Trajectory(
        scheme=f"s{i}", env_id=f"e{i}", multi_flow=False,
        states=rng.standard_normal((length, STATE_DIM)),
        actions=rng.uniform(0.5, 2.0, size=length),
        rewards=rng.uniform(0.0, 1.0, size=length),
    )


class TestDiskBudget:
    def test_budget_exceeded_raises_before_writing(self, tmp_path):
        rng = np.random.default_rng(0)
        writer = ShardWriter(tmp_path / "st", disk_budget_bytes=10_000)
        writer.add(_traj(rng, 0))
        with pytest.raises(StoreFullError):
            writer.flush()
        assert not list((tmp_path / "st").glob("*.npy"))
        assert len(writer._buffer) == 1

    def test_flush_retries_after_budget_raised(self, tmp_path):
        rng = np.random.default_rng(0)
        writer = ShardWriter(tmp_path / "st", disk_budget_bytes=10_000)
        writer.add(_traj(rng, 0))
        with pytest.raises(StoreFullError):
            writer.flush()
        writer.disk_budget_bytes = 10_000_000
        writer.flush()
        writer.close()
        assert verify_store(tmp_path / "st", quarantine=False).clean

    def test_enospc_mid_commit_unwinds_to_valid_prefix(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(0)
        writer = ShardWriter(tmp_path / "st")
        writer.add(_traj(rng, 0))
        writer.flush()  # shard 0 lands

        real = ShardWriter._commit_array

        def exploding(self, name, arr):
            if name.endswith("rewards.npy"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(self, name, arr)

        monkeypatch.setattr(ShardWriter, "_commit_array", exploding)
        writer.add(_traj(rng, 1))
        with pytest.raises(StoreFullError):
            writer.flush()
        monkeypatch.setattr(ShardWriter, "_commit_array", real)
        # the failed shard's partial files are gone; manifest prefix valid
        assert verify_store(tmp_path / "st", quarantine=False).clean
        assert len(writer._buffer) == 1
        writer.flush()  # buffer preserved -> the retry lands shard 1
        writer.close()
        report = verify_store(tmp_path / "st", quarantine=False)
        assert report.clean and report.n_shards == 2

    def test_other_oserror_propagates(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        writer = ShardWriter(tmp_path / "st")

        def exploding(self, name, arr):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(ShardWriter, "_commit_array", exploding)
        writer.add(_traj(rng, 0))
        with pytest.raises(OSError) as excinfo:
            writer.flush()
        assert not isinstance(excinfo.value, StoreFullError)


class TestMemoryGuard:
    def test_rss_bytes_measures_something(self):
        assert rss_bytes() > 0

    def test_valves_fire_over_limit(self):
        readings = iter([100, 40])
        guard = MemoryGuard(
            soft_limit_bytes=50, check_every=1,
            measure=lambda: next(readings), clock=lambda: 0.0,
        )
        fired = []
        guard.add_valve("cache", lambda: fired.append("cache") or 7)
        event = guard.maybe_check()
        assert event is not None
        assert fired == ["cache"]
        assert event["rss_before"] == 100 and event["rss_after"] == 40
        assert event["released"] == {"cache": 7}
        assert guard.events == [event]

    def test_check_cadence(self):
        calls = []
        guard = MemoryGuard(
            soft_limit_bytes=10**12, check_every=4,
            measure=lambda: calls.append(1) or 0, clock=lambda: 0.0,
        )
        for _ in range(8):
            guard.maybe_check()
        assert len(calls) == 2  # measured on calls 4 and 8 only

    def test_valve_exceptions_are_contained(self):
        guard = MemoryGuard(
            soft_limit_bytes=1, check_every=1,
            measure=lambda: 100, clock=lambda: 0.0,
        )
        guard.add_valve("broken", lambda: 1 / 0)
        event = guard.maybe_check()
        assert "error" in event["released"]["broken"]

    def test_server_guard_shrinks_metrics(self, policy):
        cfg = ServeConfig(
            deterministic=True, tick_budget=None,
            rss_soft_limit_mb=1e-6, rss_check_every=1,
        )
        server = PolicyServer(policy, cfg)
        server.connect(0)
        _drive(server, _serve_states(0, 3, 1))
        assert server.memory_guard.events  # limit is tiny: every check fires


# --------------------------------------------------------------------------
# graceful degradation + tmp sweep
# --------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_learned_ecn_falls_back_on_bad_checkpoint(self, tmp_path):
        from repro.netsim.aqm import LearnedECN, make_aqm

        bad = tmp_path / "ecn.npz"
        bad.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="falling back"):
            aqm = make_aqm(f"learned_ecn@{bad}", 30_000)
        assert isinstance(aqm, LearnedECN)
        assert aqm.predictor is None
        assert "threshold" in aqm.load_warning

    def test_missing_ecn_checkpoint_also_falls_back(self):
        from repro.netsim.aqm import make_aqm

        with pytest.warns(RuntimeWarning):
            aqm = make_aqm("learned_ecn@/nonexistent/ecn.npz", 30_000)
        assert aqm.predictor is None

    def test_mount_distilled_garbage_keeps_nn_tier(self, tmp_path, policy):
        server = PolicyServer(
            policy, ServeConfig(deterministic=True, tick_budget=None)
        )
        bad = tmp_path / "tree.npz"
        bad.write_bytes(b"garbage")
        warning = server.mount_distilled(bad)
        assert warning is not None and "NN tier" in warning
        assert server.warnings == [warning]
        server.connect(0)
        server.submit(0, _serve_states(0, 1, 1)[0, 0], cwnd=20.0)
        (decision,) = server.tick().values()
        assert np.isfinite(decision.ratio)


class TestTmpSweep:
    def _store(self, tmp_path):
        rng = np.random.default_rng(0)
        with ShardWriter(tmp_path / "st") as writer:
            writer.add(_traj(rng, 0))
        return tmp_path / "st"

    def test_orphans_swept_when_quarantining(self, tmp_path):
        store = self._store(tmp_path)
        (store / "shard-00000001.states.npy.tmp").write_bytes(b"partial")
        report = verify_store(store, quarantine=True)
        assert report.tmp_orphans == ["shard-00000001.states.npy.tmp"]
        assert report.tmp_removed
        assert not (store / "shard-00000001.states.npy.tmp").exists()
        assert "swept 1 orphaned .tmp" in report.format()
        assert report.clean

    def test_orphans_only_reported_without_quarantine(self, tmp_path):
        store = self._store(tmp_path)
        (store / "leftover.npy.tmp").write_bytes(b"partial")
        report = verify_store(store, quarantine=False)
        assert report.tmp_orphans == ["leftover.npy.tmp"]
        assert not report.tmp_removed
        assert (store / "leftover.npy.tmp").exists()
        assert "found 1 orphaned .tmp" in report.format()


# --------------------------------------------------------------------------
# serving metrics state
# --------------------------------------------------------------------------


class TestMetricsState:
    def test_round_trip(self):
        metrics = ServingMetrics()
        metrics.record_tick(2, 0.01, missed_deadline=False)
        metrics.record_decision("policy")
        metrics.record_decision("heuristic")
        clone = ServingMetrics.from_state(metrics.to_state())
        assert clone.to_state() == metrics.to_state()
        assert clone.snapshot()["decisions"] == 2

    def test_shrink_drops_oldest(self):
        metrics = ServingMetrics()
        for i in range(100):
            metrics.record_tick(1, float(i), missed_deadline=False)
            metrics.record_decision("policy")
        dropped = metrics.shrink(keep=10)
        assert dropped > 0
        assert len(metrics.latencies_s) == 10
        assert metrics.latencies_s[0] == 90.0  # oldest went first
        assert metrics.decisions == 100  # counters untouched


# --------------------------------------------------------------------------
# pipeline status --json
# --------------------------------------------------------------------------


class TestStatusJson:
    def test_shape(self):
        from repro.pipeline.state import PipelineState, StageState

        state = PipelineState(
            stages=[
                StageState(name="collect", status="done", attempts=2,
                           started_at=1.0, finished_at=3.5,
                           info={"events": [{"kind": "crash",
                                             "detail": "x", "action": "y"}]}),
                StageState(name="train", status="failed", error="boom"),
            ]
        )
        payload = state.status_json()
        assert json.loads(json.dumps(payload)) == payload
        assert not payload["complete"]
        assert payload["stages"][0]["duration_s"] == 2.5
        assert payload["stages"][1]["error"] == "boom"
        assert payload["faults"] == [
            {"stage": "collect", "kind": "crash",
             "detail": "x", "action": "y"}
        ]


# --------------------------------------------------------------------------
# the soak harness
# --------------------------------------------------------------------------


class TestSoakHarness:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="phase"):
            SoakConfig(workdir=str(tmp_path), phases=("fly",))
        with pytest.raises(ValueError, match="rate_scale"):
            SoakConfig(workdir=str(tmp_path), rate_scale=0.0)
        with pytest.raises(ValueError, match="max_rounds"):
            SoakConfig(workdir=str(tmp_path), min_rounds=3, max_rounds=2)

    def test_serve_only_soak(self, tmp_path):
        cfg = SoakConfig(
            workdir=str(tmp_path), duration_s=0.0, min_rounds=1,
            max_rounds=1, seed=1, phases=("serve",), serve_ticks=6,
            serve_flows=2, workload_duration=0.3, arrival_rate=20.0,
            check_identity=False,
        )
        report = run_soak(cfg, out_path=tmp_path / "BENCH_soak.json")
        assert report["rounds"] == 1
        assert not report["invariants"]["violations"]
        on_disk = json.loads((tmp_path / "BENCH_soak.json").read_text())
        assert on_disk["schema_version"] == report["schema_version"]
        assert "mttr" in on_disk["faults"]

    def test_full_soak_with_identity_twin(self, tmp_path):
        cfg = SoakConfig(
            workdir=str(tmp_path), duration_s=0.0, min_rounds=1,
            max_rounds=1, seed=3, rate_scale=2.0, steps_per_round=3,
            serve_ticks=8, serve_flows=2, workload_duration=0.4,
            arrival_rate=25.0, check_identity=True,
        )
        report = run_soak(cfg)
        assert report["passed"], report["invariants"]["violations"]
        assert report["faults"]["total"] > 0
        assert report["identity"]["checked"]
        assert report["identity"]["store_manifest"]
        assert report["identity"]["train_checkpoint"]
        # every fired fault is timed
        for record in report["fault_log"]:
            assert record["ttr_s"] is not None
            assert record["ttr_s"] >= 0.0
        journal = json.loads(
            (tmp_path / "pipe" / "soak_journal.json").read_text()
        )
        assert [e["index"] for e in journal] == list(range(len(journal)))
