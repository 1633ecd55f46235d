#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --record``.

    python3 benchmarks/e2e/compare.py a.json b.json

For every end-to-end metric x workload pair: median and quartiles of each
set, the spread (quartile distance / median), the relative difference of
the medians and the bound from ``BENCHMARK.json``. Exits non-zero when a
pair's medians differ by more than its bound, when a spread exceeds the
bound (``setup_s`` excepted, as in the acceptance rule), when a run was
incorrect, or when a set holds fewer than 5 runs of a workload.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_RUNS = 5


def load(path: str) -> dict:
    """(workload, metric) -> values, from the untraced records of a set."""
    pairs: dict = {}
    runs: dict = {}
    for record in json.loads(Path(path).read_text()):
        if record["trace"]:
            continue
        if not record["correct"]:
            raise SystemExit(f"{path}: incorrect run of {record['workload']} "
                             f"(seed {record['seed']})")
        runs[record["workload"]] = runs.get(record["workload"], 0) + 1
        for name, metric in record["metrics"].items():
            pairs.setdefault((record["workload"], name), []).append(metric["value"])
    short = {w: n for w, n in runs.items() if n < MIN_RUNS}
    if short or not runs:
        raise SystemExit(f"{path}: need >= {MIN_RUNS} runs per workload, got {runs}")
    return pairs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load(argv[0]), load(argv[1])
    if set(a) != set(b):
        raise SystemExit(f"sets cover different pairs: {sorted(set(a) ^ set(b))}")

    print(f"{'workload':15s} {'metric':12s} {'median a':>10s} {'[q1, q3]':>22s} "
          f"{'median b':>10s} {'[q1, q3]':>22s} {'spread a':>8s} {'spread b':>8s} "
          f"{'b vs a':>8s} {'bound':>6s}")
    bad = 0
    for workload, name in sorted(a):
        bound = bounds[name]["bound"]
        (a1, am, a3), (b1, bm, b3) = quartiles(a[workload, name]), quartiles(b[workload, name])
        spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
        diff = (bm - am) / am
        flags = []
        if abs(diff) > bound:
            flags.append("MEDIANS DISAGREE")
        if name != "setup_s" and max(spread_a, spread_b) > bound:
            flags.append("TOO NOISY")
        bad += bool(flags)
        print(f"{workload:15s} {name:12s} {am:10.4f} {f'[{a1:.4f}, {a3:.4f}]':>22s} "
              f"{bm:10.4f} {f'[{b1:.4f}, {b3:.4f}]':>22s} {spread_a:8.3f} {spread_b:8.3f} "
              f"{diff:+8.3f} {bound:6.2f}  {' '.join(flags)}")
    print(f"{len(a)} pairs, {bad} outside their bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
