"""Persistent pipeline state: the supervisor's crash-safe journal.

One JSON file (``pipeline_state.json`` in the pipeline workdir) records the
run's configuration, every stage's status/attempts/timing/outcome, and an
append-only event log of what the supervisor observed and did — including
every fault the resilience layer caught and the recovery action it took.

The file is rewritten atomically (tmp, then rename) after **every**
state transition, so a ``kill -9`` at any instant leaves either the state
before the transition or the state after it, never a torn file. A stage
found ``running`` on load is the signature of an interrupted run: the
supervisor restarts that stage on resume.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.persist import write_json_atomic

__all__ = ["StageState", "PipelineState", "STATUSES"]

STATE_SCHEMA_VERSION = 1

#: a stage's lifecycle: pending -> running -> done | failed
STATUSES = ("pending", "running", "done", "failed")


@dataclass
class StageState:
    """One stage's journal entry."""

    name: str
    status: str = "pending"
    attempts: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: stage-specific outcome (counts, fault/recovery events, artifact info)
    info: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "info": self.info,
        }

    @classmethod
    def from_json(cls, d: Dict) -> "StageState":
        status = str(d.get("status", "pending"))
        if status not in STATUSES:
            raise ValueError(f"unknown stage status {status!r}")
        return cls(
            name=str(d["name"]),
            status=status,
            attempts=int(d.get("attempts", 0)),
            started_at=d.get("started_at"),
            finished_at=d.get("finished_at"),
            error=d.get("error"),
            info=dict(d.get("info", {})),
        )


@dataclass
class PipelineState:
    """The whole run's journal: config + stages + event log."""

    config: Dict = field(default_factory=dict)
    stages: List[StageState] = field(default_factory=list)
    events: List[Dict] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageState:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(f"no stage named {name!r}")

    def log(self, source: str, message: str) -> None:
        """Append one event (persisted on the next save)."""
        self.events.append(
            {"time": time.time(), "source": source, "message": message}
        )

    @property
    def complete(self) -> bool:
        return bool(self.stages) and all(s.status == "done" for s in self.stages)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema_version": STATE_SCHEMA_VERSION,
            "created_at": self.created_at,
            "config": self.config,
            "stages": [s.to_json() for s in self.stages],
            "events": self.events,
        }

    @classmethod
    def from_json(cls, d: Dict) -> "PipelineState":
        version = d.get("schema_version")
        if version != STATE_SCHEMA_VERSION:
            raise ValueError(
                f"pipeline state has schema version {version!r}; this build "
                f"reads version {STATE_SCHEMA_VERSION}"
            )
        return cls(
            config=dict(d.get("config", {})),
            stages=[StageState.from_json(s) for s in d.get("stages", [])],
            events=list(d.get("events", [])),
            created_at=float(d.get("created_at", 0.0)),
        )

    def save(self, path) -> None:
        """Atomic tmp-then-rename write; survives kill -9 at any instant."""
        write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path) -> "PipelineState":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt pipeline state {path}: {exc}") from exc
        return cls.from_json(data)

    # ------------------------------------------------------------------
    def fault_log(self) -> List[Dict]:
        """Every fault/recovery event recorded by any stage, in order.

        Stages deposit ``{"kind", "detail", "action"}`` entries under
        ``info["events"]``; this flattens them with their stage names —
        the record behind ``repro pipeline status``.
        """
        out: List[Dict] = []
        for st in self.stages:
            for ev in st.info.get("events", []):
                out.append({"stage": st.name, **ev})
        return out

    def status_json(self) -> Dict:
        """Machine-readable run summary (CLI ``pipeline status --json``).

        Everything CI needs to gate on without parsing the table: stage
        states with attempts/durations, the flattened fault log, and the
        completion verdict.
        """
        stages = []
        for st in self.stages:
            duration = None
            if st.started_at is not None and st.finished_at is not None:
                duration = round(st.finished_at - st.started_at, 6)
            stages.append(
                {
                    "name": st.name,
                    "status": st.status,
                    "attempts": st.attempts,
                    "duration_s": duration,
                    "error": st.error,
                }
            )
        return {
            "complete": self.complete,
            "created_at": self.created_at,
            "stages": stages,
            "faults": self.fault_log(),
            "n_events": len(self.events),
        }

    def format_status(self) -> str:
        """Human-readable run summary (CLI ``pipeline status``)."""
        lines = ["stage      status    attempts  detail"]
        for st in self.stages:
            detail = ""
            if st.status == "done" and st.started_at and st.finished_at:
                detail = f"{st.finished_at - st.started_at:.1f}s"
            elif st.error:
                detail = st.error
            lines.append(
                f"{st.name:<10} {st.status:<9} {st.attempts:<9} {detail}"
            )
        faults = self.fault_log()
        if faults:
            lines.append("")
            lines.append(f"faults caught & recovered ({len(faults)}):")
            for ev in faults:
                lines.append(
                    f"  [{ev['stage']}] {ev.get('kind', '?')}: "
                    f"{ev.get('detail', '')} -> {ev.get('action', '')}"
                )
        else:
            lines.append("")
            lines.append("no faults observed")
        lines.append("")
        lines.append(
            "pipeline complete" if self.complete else "pipeline incomplete"
        )
        return "\n".join(lines)
