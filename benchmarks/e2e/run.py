#!/usr/bin/env python3
"""The end-to-end benchmark ladder: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload <name> --seed <int>
                                  [--seconds <s>] [--trace [0|1]] [--record <file>]

Prints every metric by name and unit, then one ``detail:`` line (digests,
every slice's seconds as measured, every machine-speed probe, environment)
and, last, the result object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``, in seconds at the reference box's speed; ``--trace 1``
runs every other round under the span recorder and reports the per-layer
metrics as measured (a layer the workload never enters reports 0). Exits
non-zero when an output check fails. See README.md beside this file.
"""

import os

# one process, one driving thread: pin the BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from harness import SLOTS, Recorder, Speedometer, measure, median, now, peak_rss_mb  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_local_repro() -> None:
    """Refuse to measure an installed copy of ``repro`` by mistake."""
    try:
        import repro
    except ImportError:
        raise SystemExit(f"no `repro` package under {ROOT / 'src'}: run from a full checkout")

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"`repro` resolves to {where}, outside {ROOT / 'src'}")


def fresh_import_s(modules) -> float:
    """Wall seconds of a new interpreter that imports ``modules`` and exits."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import " + ", ".join(modules)
    start = now()
    subprocess.run([sys.executable, "-c", code], check=True)
    return now() - start


def micros(obj):
    """``obj`` with every float rounded to the microsecond (record size)."""
    if isinstance(obj, dict):
        return {k: micros(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [micros(v) for v in obj]
    return round(obj, 6)


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def append_record(path: str, record: dict) -> None:
    """``path`` holds a JSON list, one record a line."""
    target = Path(path)
    records = json.loads(target.read_text()) if target.exists() else []
    records.append(record)
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    target.write_text(f"[\n{lines}\n]\n")


SETUPS = 3


def main(argv=None) -> int:
    spec = load_spec()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--record", help="append the full record to this JSON file")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    loadavg = os.getloadavg()
    cpu_count = os.cpu_count() or 1
    load_warning = loadavg[0] > cpu_count
    if load_warning:
        print(f"warning: 1-min load average {loadavg[0]:.2f} > {cpu_count} cpus",
              file=sys.stderr)

    workload = WORKLOADS[args.workload]()
    rec = Recorder()
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        import numpy

        require_local_repro()
        for module in workload.modules:
            importlib.import_module(module)

        # one set-up = importing the workload's modules in a fresh
        # interpreter + building its inputs; it runs several times, the
        # median is reported and the last build is what gets measured
        setup_meter = Speedometer(gap_s=0.0)
        import_s, build_s = [], []
        for k in range(SETUPS):
            if k:
                workload.teardown()
            setup_meter.probe()
            import_s.append(fresh_import_s(workload.modules))
            setup_meter.probe()
            scratch = os.path.join(tmp, f"setup{k}")
            os.mkdir(scratch)
            start = now()
            workload.setup(args.seed, scratch)
            build_s.append(now() - start)
        setup_meter.probe()

        measured = measure(workload, args.seconds, rec, trace)
        outcome = workload.finish(rec, trace)
        workload.teardown()
        rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        layers = dict(outcome.layers)
        layers["bench.import_s"] = median(import_s)
        layers["bench.speed"] = measured.meter.speed()
        layers["bench.trace_overhead_share"] = (
            measured.round_s(traced=True) / measured.round_s(traced=False) - 1.0
        )
        declared = {m["name"]: m for m in spec["per_layer"]}
        unknown = sorted(set(layers) - set(declared))
        if unknown:
            raise SystemExit(f"{workload.name} reported undeclared layer metrics {unknown}")
        values = {name: float(layers.get(name, 0.0)) for name in declared}
        rec.dump(OUT / f"{workload.name}.trace.json", {
            "workload": workload.name, "seed": args.seed,
            "traced_rounds": measured.traced, "layers": values,
        })
    else:
        declared = {m["name"]: m for m in spec["end_to_end"]}
        values = {
            slot: measured.reference_s(phase)
            for slot, phase in zip(SLOTS, workload.phases)
        }
        values["setup_s"] = (
            median(a + b for a, b in zip(import_s, build_s)) / setup_meter.speed()
        )
        values["peak_rss_mb"] = rss_mb
        if set(values) != set(declared):
            raise SystemExit(f"end-to-end metrics {sorted(values)} != declared {sorted(declared)}")

    correct = all(outcome.checks.values())
    metrics = {
        name: {"value": value, "unit": declared[name]["unit"]}
        for name, value in values.items()
    }
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(trace),
        "seconds": args.seconds,
        "measured_s": measured.wall_s,
        "rounds": measured.rounds,
        "traced_rounds": measured.traced,
        "phases": dict(zip(SLOTS, workload.phases)),
        "speed": measured.meter.speed(),
        "setup_speed": setup_meter.speed(),
        # as measured (not scaled), every one, so a stalled slice shows
        "slice_s": micros(measured.slices),
        "step_s": micros(measured.step_s),
        "probe_s": micros(measured.meter.probes),
        "setup_probe_s": micros(setup_meter.probes),
        "import_s": micros(import_s),
        "build_s": micros(build_s),
        "checks": outcome.checks,
        "digests": outcome.digests,
        "load_warning": load_warning,
        "env": {
            "cpu_count": cpu_count,
            "loadavg_start": list(loadavg),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }

    for name, m in metrics.items():
        phase = detail["phases"].get(name)
        print(f"{name:44s} {m['value']:.6g} {m['unit']}" + (f"   # {phase}" if phase else ""))
    for name, ok in outcome.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    if args.record:
        detail["env"]["git_rev"] = git_rev()
        detail["env"]["time"] = time.time()
        append_record(args.record, {**detail, **result})
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
