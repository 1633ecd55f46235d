"""Schema checks for ``BENCHMARK.json`` and the recorded baseline.

Run explicitly (tier-1 collects ``tests/`` only):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_schema.py -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: the driver's budget for all its runs, and what one run costs beyond
#: ``run_seconds`` (three set-ups, the last round overshooting, the checks)
TOTAL_BUDGET_S = 3420
RUN_OVERHEAD_S = 9


def test_top_level_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(c, str) and len(c) <= 200 for c in SPEC["command"])
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_all_driver_runs_fit_the_budget():
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + RUN_OVERHEAD_S) <= TOTAL_BUDGET_S


def test_workloads_match_the_registry():
    from workloads import WORKLOADS

    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    from harness import SLOTS

    for cls in WORKLOADS.values():
        assert len(cls.phases) == len(set(cls.phases)) == len(SLOTS), cls.name
        assert cls.steps and cls.modules, cls.name


def test_metric_declarations():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    from harness import SLOTS

    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        # ISSUE 13: no bound above 0.10, set-up excepted
        assert 0 < m["bound"] <= (0.25 if m["name"] == "setup_s" else 0.10)
    assert [m["name"] for m in e2e] == [*SLOTS, "peak_rss_mb", "setup_s"]
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names), "a name is used twice"
    for m in e2e + layers:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    setup = {m["name"]: m for m in e2e}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_baseline_holds_exactly_the_declared_pairs():
    declared = {
        (w["name"], m["name"]) for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for path in sorted((HERE / "baseline").glob("set_*.json")):
        records = json.loads(path.read_text())
        seen = set()
        per_workload = {}
        for r in records:
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
            assert not r["trace"]
            for key in ("cpu_count", "loadavg_start", "python", "numpy", "git_rev"):
                assert key in r["env"], (path.name, key)
            for name, metric in r["metrics"].items():
                assert metric["unit"] == units[name]
                assert metric["value"] > 0
                seen.add((r["workload"], name))
            per_workload[r["workload"]] = per_workload.get(r["workload"], 0) + 1
        assert seen == declared and len(seen) == 20, path.name
        assert min(per_workload.values()) >= 5, path.name
    assert len(list((HERE / "baseline").glob("set_*.json"))) == 2
