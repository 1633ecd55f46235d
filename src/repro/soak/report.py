"""Soak-run accounting: MTTR aggregation, SLO evaluation, BENCH output.

The harness hands this module its raw observations — one record per fired
fault (with detection latency and time-to-recovery), the invariant
violations, the per-round journal — and gets back the ``BENCH_soak.json``
payload: per-site fault counts, MTTR p50/p99, and a pass/fail verdict per
SLO. Times are **conservative upper bounds**: recovery is credited at the
granularity of the boundary that masked the fault (stage completion,
verify-repair completion, the next serving tick), never earlier.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.persist import write_json_atomic

__all__ = [
    "SOAK_SCHEMA_VERSION",
    "FaultObserver",
    "aggregate_faults",
    "evaluate_slos",
    "write_soak_report",
]

SOAK_SCHEMA_VERSION = 1


class FaultObserver:
    """Turns an injector's audit trail into timed fault records.

    The harness calls :meth:`observe` at every recovery boundary; faults
    fired since the previous call are stamped with detection latency and
    time-to-recovery relative to that boundary. Sites listed in ``defer``
    stay *open* — their corruption is only found by a later audit (e.g.
    ``datastore.*`` damage surfaces in the verify stage) — and are closed
    by :meth:`resolve` at that audit's boundary.
    """

    def __init__(self, clock=None) -> None:
        import time

        self.clock = clock if clock is not None else time.monotonic
        self.records: List[Dict] = []
        self._cursor: Dict[int, int] = {}  # id(injector) -> fired seen
        self._open: List[Dict] = []

    def observe(self, injector, boundary: str, defer=()) -> None:
        """Stamp faults fired since the last call at this boundary."""
        if injector is None:
            return
        now = self.clock()
        seen = self._cursor.get(id(injector), 0)
        new = injector.fired[seen:]
        self._cursor[id(injector)] = len(injector.fired)
        for fault in new:
            record = {
                "site": fault.site,
                "target": fault.target,
                "detail": fault.detail,
                "recovery_boundary": boundary,
                "detected_s": max(now - fault.at, 0.0),
                "ttr_s": max(now - fault.at, 0.0),
                "fired_at": fault.at,
            }
            if any(fault.site.startswith(prefix) for prefix in defer):
                record["recovery_boundary"] = None
                record["detected_s"] = None
                record["ttr_s"] = None
                self._open.append(record)
            self.records.append(record)

    def resolve(self, prefix: str, boundary: str) -> None:
        """Close every open fault under ``prefix`` at this boundary."""
        now = self.clock()
        still_open = []
        for record in self._open:
            if record["site"].startswith(prefix):
                record["recovery_boundary"] = boundary
                record["detected_s"] = max(now - record["fired_at"], 0.0)
                record["ttr_s"] = max(now - record["fired_at"], 0.0)
            else:
                still_open.append(record)
        self._open = still_open


def _percentiles(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0, "n": 0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "p50_s": round(float(np.percentile(arr, 50.0)), 6),
        "p99_s": round(float(np.percentile(arr, 99.0)), 6),
        "max_s": round(float(arr.max()), 6),
        "n": int(arr.size),
    }


def aggregate_faults(records: List[Dict]) -> Dict:
    """Per-site counts plus MTTR / detection percentiles."""
    by_site: Dict[str, int] = {}
    for record in records:
        by_site[record["site"]] = by_site.get(record["site"], 0) + 1
    ttrs = [r["ttr_s"] for r in records if r.get("ttr_s") is not None]
    dets = [r["detected_s"] for r in records if r.get("detected_s") is not None]
    return {
        "total": len(records),
        "by_site": dict(sorted(by_site.items())),
        "sites_exercised": len(by_site),
        "mttr": _percentiles(ttrs),
        "detection": _percentiles(dets),
    }


def evaluate_slos(
    faults: Dict,
    violations: List[Dict],
    mttr_p50_limit_s: float,
    mttr_p99_limit_s: float,
    min_sites: int = 0,
) -> Dict:
    """Per-SLO ``{"limit", "actual", "pass"}`` verdicts plus the overall."""
    mttr = faults["mttr"]
    slos = {
        "mttr_p50_s": {
            "limit": mttr_p50_limit_s,
            "actual": mttr["p50_s"],
            "pass": mttr["p50_s"] <= mttr_p50_limit_s,
        },
        "mttr_p99_s": {
            "limit": mttr_p99_limit_s,
            "actual": mttr["p99_s"],
            "pass": mttr["p99_s"] <= mttr_p99_limit_s,
        },
        "invariant_violations": {
            "limit": 0,
            "actual": len(violations),
            "pass": not violations,
        },
        "sites_exercised": {
            "limit": min_sites,
            "actual": faults["sites_exercised"],
            "pass": faults["sites_exercised"] >= min_sites,
        },
    }
    slos["passed"] = all(
        v["pass"] for k, v in slos.items() if isinstance(v, dict)
    )
    return slos


def write_soak_report(report: Dict, path) -> None:
    """Atomically write ``BENCH_soak.json``."""
    write_json_atomic(path, report)


def format_soak_report(report: Dict) -> str:
    """Human-readable soak summary (CLI output)."""
    faults = report["faults"]
    lines = [
        f"soak: {report['rounds']} round(s) in {report['wall_s']:.1f}s, "
        f"{faults['total']} fault(s) across "
        f"{faults['sites_exercised']} site(s)"
    ]
    for site, count in faults["by_site"].items():
        lines.append(f"  {site:20s} x{count}")
    mttr = faults["mttr"]
    lines.append(
        f"MTTR p50={mttr['p50_s']:.3f}s p99={mttr['p99_s']:.3f}s "
        f"max={mttr['max_s']:.3f}s (n={mttr['n']})"
    )
    inv = report["invariants"]
    lines.append(
        f"invariants: {len(inv['checked'])} checked, "
        f"{len(inv['violations'])} violation(s)"
    )
    for violation in inv["violations"]:
        lines.append(f"  VIOLATION [{violation['invariant']}] "
                     f"{violation['detail']}")
    identity = report.get("identity")
    if identity and identity.get("checked"):
        lines.append(
            "artifacts vs fault-free twin: "
            + ", ".join(
                f"{k}={'identical' if v else 'DIVERGED'}"
                for k, v in identity.items()
                if k != "checked"
            )
        )
    for name, slo in report["slos"].items():
        if not isinstance(slo, dict):
            continue
        verdict = "PASS" if slo["pass"] else "FAIL"
        lines.append(
            f"SLO {name:22s} actual={slo['actual']} "
            f"limit={slo['limit']} {verdict}"
        )
    lines.append("soak PASSED" if report["passed"] else "soak FAILED")
    return "\n".join(lines)
