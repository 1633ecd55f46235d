"""Tests for the scheme x AQM winning-rate matrix and its env families."""

import json

import pytest

from repro.collector.environments import EnvConfig, aqm_environments, build_network
from repro.evalx.matrix import DEFAULT_MATRIX_AQMS, aqm_columns, run_matrix
from repro.evalx.leagues import Participant
from repro.netsim.aqm import FQCoDel, LearnedECN, TailDrop


class TestAqmEnvironments:
    def test_family_shape(self):
        envs = aqm_environments("codel", bws=(24.0, 96.0))
        # the bw x rtt x buffer grid plus one cubic-friendliness env
        assert len(envs) == 3
        assert all(e.aqm == "codel" for e in envs)
        assert envs[-1].n_competing_cubic == 1
        assert envs[-1].env_id.endswith("-vs-cubic")

    def test_env_ids_unique_per_aqm(self):
        ids = [e.env_id for e in aqm_environments("fq_codel")]
        assert len(ids) == len(set(ids))
        assert all("fqcodel" in i for i in ids)

    def test_threshold_only_arms_taildrop(self):
        td = aqm_environments("taildrop", ecn_threshold_bdp=0.5)
        assert all(e.ecn_threshold_bdp == 0.5 for e in td)
        fq = aqm_environments("fq_codel", ecn_threshold_bdp=0.5)
        assert all(e.ecn_threshold_bdp == 0.0 for e in fq)

    def test_checkpoint_suffix_survives_into_envs(self):
        envs = aqm_environments("learned_ecn@/tmp/model.npz")
        assert all(e.aqm == "learned_ecn@/tmp/model.npz" for e in envs)
        assert all("@" not in e.env_id for e in envs)


class TestBuildNetworkAqm:
    def _env(self, aqm, threshold=0.0):
        return EnvConfig(
            env_id="t",
            kind="flat",
            bw_mbps=24.0,
            min_rtt=0.04,
            buffer_bdp=2.0,
            aqm=aqm,
            ecn_threshold_bdp=threshold,
        )

    def test_builds_each_registered_discipline(self):
        for aqm, cls in (
            ("taildrop", TailDrop),
            ("fq_codel", FQCoDel),
            ("learned_ecn", LearnedECN),
        ):
            _, network = build_network(self._env(aqm))
            assert isinstance(network.topology.links[0].aqm, cls)

    def test_taildrop_threshold_armed(self):
        _, network = build_network(self._env("taildrop", threshold=0.5))
        q = network.topology.links[0].aqm
        assert q.ecn_threshold_bytes is not None and q.ecn_threshold_bytes > 0

    def test_native_markers_accept_threshold_request(self):
        for aqm in ("fq_codel", "learned_ecn"):
            _, network = build_network(self._env(aqm, threshold=0.5))
            assert network.topology.links[0].aqm.ecn_marks == 0  # built fine, marks natively

    def test_loss_only_aqm_rejects_threshold(self):
        with pytest.raises(ValueError, match="cannot honour"):
            build_network(self._env("codel", threshold=0.5))


class TestAqmMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(
            [Participant.from_scheme("cubic"), Participant.from_scheme("vegas")],
            aqm_columns(("taildrop", "fq_codel"), duration=2.0),
            n_intervals=2,
        )

    def test_matrix_covers_grid(self, matrix):
        assert matrix.columns == ["taildrop", "fq_codel"]
        assert sorted(matrix.participants) == ["cubic", "vegas"]
        for per_aqm in matrix.rates.values():
            for rate in per_aqm.values():
                assert 0.0 <= rate <= 1.0

    def test_entries_collected_per_column(self, matrix):
        assert all(len(matrix.entries[a]) > 0 for a in matrix.columns)

    def test_format_table_lists_everything(self, matrix):
        table = matrix.format_table()
        for name in ("cubic", "vegas", "taildrop", "fq_codel", "ce marks"):
            assert name in table

    def test_json_and_save_roundtrip(self, matrix, tmp_path):
        path = tmp_path / "out" / "aqm_matrix.json"
        matrix.save(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == 2
        assert loaded["columns"] == matrix.columns
        assert set(loaded["rates"]) == set(matrix.rates)
        assert set(loaded["ecn_marks"]) == set(matrix.rates)

    def test_default_panel_includes_intelligent_queues(self):
        assert "fq_codel" in DEFAULT_MATRIX_AQMS
        assert "learned_ecn" in DEFAULT_MATRIX_AQMS

    def test_empty_aqm_list_rejected(self):
        with pytest.raises(ValueError):
            aqm_columns(())

    def test_checkpoint_column_label_strips_suffix(self):
        columns = aqm_columns(("taildrop", "learned_ecn@/tmp/model.npz"))
        assert list(columns) == ["taildrop", "learned_ecn"]
        assert columns["learned_ecn"][0].aqm == "learned_ecn@/tmp/model.npz"
