"""Tests for the command-line interface."""

import hashlib

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_collect_defaults(self):
        args = build_parser().parse_args(["collect"])
        assert args.scale == "mini"
        assert args.out == "pool"

    def test_train_requires_pool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_deploy_requires_agent(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])

    def test_collect_store_defaults(self):
        # --out is the store directory; there is no other pool format
        args = build_parser().parse_args(["collect", "--out", "shards/"])
        assert args.out == "shards/"
        assert args.shard_mb == 32
        with pytest.raises(SystemExit):
            build_parser().parse_args(["collect", "--store", "shards/"])

    def test_pool_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pool"])

    def test_pool_pack_args(self):
        # there is no .npz pool to pack: collect writes a store directly
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pool", "pack", "p.npz", "st/"])

    def test_pool_verify_flags(self):
        args = build_parser().parse_args(
            ["pool", "verify", "st/", "--strict", "--no-quarantine"]
        )
        assert args.strict and args.no_quarantine

    def test_pipeline_run_args(self):
        args = build_parser().parse_args(
            ["pipeline", "run", "--workdir", "run/", "--fault-plan", "p.json"]
        )
        assert args.workdir == "run/" and not args.resume
        assert args.fault_plan == "p.json"
        assert args.task_timeout is None

    def test_pipeline_resume_and_status(self):
        args = build_parser().parse_args(["pipeline", "resume", "--workdir", "r/"])
        assert args.resume and args.workdir == "r/"
        args = build_parser().parse_args(["pipeline", "status", "--workdir", "r/"])
        assert args.workdir == "r/"

    def test_chaos_plan_args(self):
        args = build_parser().parse_args(
            ["chaos", "plan", "--seed", "7", "--faults", "train.nan",
             "--universes", "train=12", "--out", "plan.json"]
        )
        assert args.seed == 7 and args.faults == "train.nan"
        assert args.universes == "train=12" and args.out == "plan.json"

    def test_collect_task_timeout(self):
        args = build_parser().parse_args(["collect", "--task-timeout", "30"])
        assert args.task_timeout == 30.0

    def test_distill_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distill"])

    def test_distill_fit_args(self):
        args = build_parser().parse_args(
            ["distill", "fit", "--agent", "sage.npz", "--pool", "pool/",
             "--out", "tree.npz", "--coverage", "0.9", "--refresh", "16",
             "--max-depth", "8", "--rules", "5"]
        )
        assert args.agent == "sage.npz" and args.pool == "pool/"
        assert args.out == "tree.npz" and args.coverage == 0.9
        assert args.refresh == 16 and args.max_depth == 8 and args.rules == 5

    def test_distill_fit_requires_agent_and_pool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distill", "fit", "--agent", "a.npz"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distill", "fit", "--pool", "p.npz"])

    def test_distill_eval_args(self):
        args = build_parser().parse_args(
            ["distill", "eval", "--model", "tree.npz", "--agent", "sage.npz",
             "--pool", "pool/", "--max-samples", "500"]
        )
        assert args.model == "tree.npz" and args.max_samples == 500


class TestEndToEnd:
    def test_collect_train_deploy(self, tmp_path, capsys):
        pool_path = str(tmp_path / "pool")
        agent_path = str(tmp_path / "sage.npz")
        assert main([
            "collect", "--scale", "mini", "--schemes", "cubic,vegas",
            "--out", pool_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "ShardedPool" in out

        assert main([
            "train", "--pool", pool_path, "--steps", "4",
            "--checkpoints", "2", "--out", agent_path,
            "--enc-dim", "16", "--gru-dim", "16",
            "--components", "2", "--atoms", "7",
        ]) == 0

        assert main([
            "deploy", "--agent", agent_path, "--bw", "12", "--duration", "3",
            "--enc-dim", "16", "--gru-dim", "16",
            "--components", "2", "--atoms", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "throughput=" in out

    def test_collect_refuses_an_existing_store(self, tmp_path):
        from repro.datastore import ShardWriter

        with ShardWriter(tmp_path / "pool"):
            pass
        manifest = (tmp_path / "pool" / "manifest.json").read_bytes()
        with pytest.raises(FileExistsError, match="already holds a store"):
            main(["collect", "--scale", "mini", "--schemes", "cubic",
                  "--workers", "1", "--out", str(tmp_path / "pool")])
        assert (tmp_path / "pool" / "manifest.json").read_bytes() == manifest


def _array_sha256(path) -> str:
    """SHA-256 over an ``.npz``'s arrays: each key, then its bytes, keys sorted."""
    h = hashlib.sha256()
    with np.load(path) as data:
        for key in sorted(data.files):
            h.update(key.encode())
            h.update(data[key].tobytes())
    return h.hexdigest()


class TestCollectTrainGolden:
    """``collect`` -> ``train`` (GRU-16) -> ``distill fit`` on one mini pool,
    pinned by the arrays of the files they write. The constants were
    recorded when a pool could also be written as one ``.npz``; that route
    gave the same bits as the store."""

    NET = ["--enc-dim", "16", "--gru-dim", "16", "--components", "2",
           "--atoms", "7"]
    CHECKPOINT_SHA256 = (
        "6c5c63967308fd27f5d9cf5ad4e8a7cd2f476e594bb358c1e0c769eb8cb88f4d"
    )
    TREE_SHA256 = (
        "3eff26e83cd2666dbb780a1047840e49c5158353851bc107b6d92ecfb77418c4"
    )

    def test_checkpoint_and_tree_digests(self, tmp_path, capsys):
        pool = str(tmp_path / "pool")
        agent = tmp_path / "sage.npz"
        tree = tmp_path / "tree.npz"
        assert main([
            "collect", "--scale", "mini", "--schemes", "cubic,vegas",
            "--workers", "1", "--out", pool,
        ]) == 0
        assert main([
            "train", "--pool", pool, "--steps", "4", "--checkpoints", "2",
            "--out", str(agent), *self.NET,
        ]) == 0
        assert main([
            "distill", "fit", "--agent", str(agent), "--pool", pool,
            "--out", str(tree), *self.NET,
        ]) == 0
        capsys.readouterr()
        assert _array_sha256(agent) == self.CHECKPOINT_SHA256
        assert _array_sha256(tree) == self.TREE_SHA256


class TestTopoCli:
    def test_topo_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topo"])

    def test_topo_describe_args(self):
        args = build_parser().parse_args(
            ["topo", "describe", "parking_lot", "--segments", "4",
             "--bw", "24", "--rtt", "0.04"]
        )
        assert args.topo_class == "parking_lot"
        assert args.segments == 4 and args.bw == 24.0

    def test_topo_matrix_args(self):
        args = build_parser().parse_args(
            ["topo", "matrix", "--schemes", "cubic,vegas",
             "--classes", "dumbbell,incast", "--duration", "5",
             "--out", "m.json"]
        )
        assert args.schemes == "cubic,vegas"
        assert args.classes == "dumbbell,incast"
        assert args.duration == 5.0 and args.out == "m.json"

    def test_collect_topology_flag(self):
        args = build_parser().parse_args(["collect", "--topology", "incast"])
        assert args.topology == "incast"

    def test_describe_runs(self, capsys):
        assert main(["topo", "describe", "incast", "--senders", "4"]) == 0
        out = capsys.readouterr().out
        assert "egress" in out and "main path" in out

    def test_matrix_runs_and_saves(self, tmp_path, capsys):
        out_path = str(tmp_path / "matrix.json")
        assert main([
            "topo", "matrix", "--schemes", "cubic,vegas",
            "--classes", "dumbbell,proxy_split", "--duration", "2",
            "--workers", "1", "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "dumbbell" in out and "proxy_split" in out
        import json
        saved = json.loads((tmp_path / "matrix.json").read_text())
        assert saved["schema_version"] == 2
        assert saved["columns"] == ["dumbbell", "proxy_split"]
        assert set(saved["rates"]) == {"dumbbell", "proxy_split"}
        for per_class in saved["rates"].values():
            assert set(per_class) == {"cubic", "vegas"}


class TestAqmCli:
    def test_aqm_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["aqm"])

    def test_aqm_matrix_args(self):
        args = build_parser().parse_args(
            ["aqm", "matrix", "--schemes", "cubic,dctcp",
             "--aqms", "taildrop,fq_codel", "--duration", "4",
             "--ecn-model", "m.npz", "--out", "aqm.json"]
        )
        assert args.schemes == "cubic,dctcp"
        assert args.aqms == "taildrop,fq_codel"
        assert args.ecn_model == "m.npz" and args.out == "aqm.json"

    def test_aqm_trace_args(self):
        args = build_parser().parse_args(
            ["aqm", "trace", "--aqm", "pie", "--shards", "3",
             "--out-dir", "traces/"]
        )
        assert args.aqm == "pie" and args.shards == 3

    def test_aqm_learn_args(self):
        args = build_parser().parse_args(
            ["aqm", "learn", "a.npz", "b.npz", "--epochs", "50",
             "--out", "model.npz"]
        )
        assert args.traces == ["a.npz", "b.npz"] and args.epochs == 50

    def test_collect_aqm_flag(self):
        args = build_parser().parse_args(["collect", "--aqm", "fq_codel"])
        assert args.aqm == "fq_codel"

    def test_topo_describe_aqm_flags(self):
        args = build_parser().parse_args(
            ["topo", "describe", "incast", "--aqm", "fq_codel",
             "--ecn-kb", "30"]
        )
        assert args.aqm == "fq_codel" and args.ecn_kb == 30.0

    def test_trace_learn_matrix_loop(self, tmp_path, capsys):
        """trace -> learn -> matrix with the learned queue, at micro scale."""
        traces = tmp_path / "traces"
        model = str(tmp_path / "ecn.npz")
        assert main([
            "aqm", "trace", "--aqm", "codel", "--duration", "2",
            "--shards", "1", "--out-dir", str(traces),
        ]) == 0
        shards = sorted(str(p) for p in traces.glob("*.npz"))
        assert shards
        assert main([
            "aqm", "learn", *shards, "--epochs", "30", "--out", model,
        ]) == 0
        out_path = tmp_path / "aqm_matrix.json"
        assert main([
            "aqm", "matrix", "--schemes", "cubic", "--aqms",
            "taildrop,learned_ecn", "--ecn-model", model,
            "--duration", "2", "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        import json
        saved = json.loads(out_path.read_text())
        assert saved["columns"] == ["taildrop", "learned_ecn"]
        assert set(saved["rates"]) == {"taildrop", "learned_ecn"}


class TestChaosPipelineCli:
    def test_plan_run_status_resume(self, tmp_path, capsys):
        """A fault-injected run, its status journal, and a resume that
        rebuilds the run from the journal alone."""
        import json

        plan = str(tmp_path / "plan.json")
        workdir = tmp_path / "run"
        assert main([
            "chaos", "plan", "--seed", "7",
            "--faults", "collector.crash,collector.hang,datastore.bitflip,train.nan",
            "--universes", "collector=4,datastore=1,train=6", "--out", plan,
        ]) == 0
        assert main([
            "pipeline", "run", "--workdir", str(workdir), "--scale", "mini",
            "--schemes", "cubic", "--steps", "6", "--eval-duration", "2.0",
            "--fault-plan", plan,
        ]) == 0
        capsys.readouterr()

        assert main(["pipeline", "status", "--workdir", str(workdir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"]
        assert [s["status"] for s in status["stages"]] == ["done"] * 4
        kinds = {f["kind"] for f in status["faults"]}
        assert {"crash", "corrupt-shard", "store-repair", "train-non-finite"} <= kinds

        # lose the checkpoint: resume takes the config (steps, seed, fault
        # plan) from the journal, retrains, and lands on the same bytes
        ckpt = workdir / "checkpoint.npz"
        with np.load(ckpt) as data:
            before = {k: data[k].copy() for k in data.files}
        ckpt.unlink()
        assert main(["pipeline", "resume", "--workdir", str(workdir)]) == 0
        assert "pipeline complete" in capsys.readouterr().out
        with np.load(ckpt) as data:
            assert sorted(data.files) == sorted(before)
            for k in data.files:
                assert data[k].tobytes() == before[k].tobytes(), k
        assert main(["pipeline", "status", "--workdir", str(workdir), "--json"]) == 0
        attempts = {
            s["name"]: s["attempts"]
            for s in json.loads(capsys.readouterr().out)["stages"]
        }
        assert attempts["train"] == 2 and attempts["collect"] == 1


class TestDistillCli:
    NET = ["--enc-dim", "32", "--gru-dim", "32", "--atoms", "15"]

    def test_fit_then_eval_pretrained(self, tmp_path, capsys):
        from pathlib import Path

        model = str(Path(__file__).resolve().parent.parent / "models" / "sage_pretrained.npz")
        pool = str(tmp_path / "pool")
        tree = tmp_path / "tree.npz"
        assert main([
            "collect", "--scale", "mini", "--schemes", "cubic", "--out", pool,
            "--workers", "1",
        ]) == 0
        assert main([
            "distill", "fit", "--agent", model, "--pool", pool,
            "--out", str(tree), "--max-depth", "8", "--coverage", "0.9",
            "--rules", "5", *self.NET,
        ]) == 0
        out = capsys.readouterr().out
        assert tree.exists() and "rules (first 5 )" in out
        assert main([
            "distill", "eval", "--model", str(tree), "--agent", model,
            "--pool", pool, *self.NET,
        ]) == 0
        report = dict(
            line.split(":", 1) for line in capsys.readouterr().out.splitlines()
        )
        report = {k.strip(): float(v) for k, v in report.items()}
        assert report["n_samples"] > 0
        assert 0.5 < report["coverage"] <= 1.0
        assert report["ratio_within_5pct"] > 0.5
