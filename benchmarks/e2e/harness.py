"""Shared machinery of the end-to-end ladder.

- :class:`Recorder` — the benchmark-side span recorder that wraps
  the public calls into each layer (spans inside ``src/`` are a later PR).
- :class:`Workload` — what ``run.py`` drives: ``setup`` builds the inputs
  from the seed, ``step`` runs one equal-work slice of one phase, ``finish``
  checks outputs and reports layer numbers.
- :func:`measure` — the closed loop: the workload's steps round-robin,
  back to back, until the time budget is spent.
- :func:`steady` and :class:`Speedometer` — what a phase's slices are
  reduced to: their lower quartile, at the reference box's speed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

now = time.perf_counter


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.index = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans.append([name, now(), 0.0, parent, rec.run_id])
        rec._stack.append(self.index)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.index][2] = now()
        self.rec._stack.pop()
        return False


class Recorder:
    """In-memory spans ``[name, start, end, parent, run_id]``.

    Disabled (the default, and every untraced round) ``span`` hands back a
    shared no-op context manager, so the timed loops are written once.
    """

    FIELDS = ("name", "start", "end", "parent", "run_id")

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = 0
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def add(self, name: str, start: float, end: float, parent: int = -1) -> None:
        """Record a span whose bounds were taken elsewhere (a hook's marks)."""
        if self.enabled:
            self.spans.append([name, start, end, parent, self.run_id])

    # -- aggregation ----------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds, and self seconds
        (duration minus the part covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _), kids in zip(self.spans, child_time):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - kids
        return out

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["fields"] = list(self.FIELDS)
        payload["spans"] = self.spans
        payload["summary"] = self.summary()
        with open(path, "w") as f:
            json.dump(payload, f)


# --------------------------------------------------------------------------
# small numeric helpers
# --------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def digest(obj) -> str:
    """Short stable fingerprint of JSON-able data or raw bytes."""
    if not isinstance(obj, (bytes, bytearray)):
        obj = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(obj).hexdigest()[:16]


def array_digest(arrays) -> str:
    """Fingerprint of a sequence of numpy arrays (dtype, shape and bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")



# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

#: the two probe kernels' lower-quartile times on the reference box in a
#: quiet hour (``baseline/``): a speed of 1.0 is that box, left alone
REF_PY_S = 0.0234
REF_NP_S = 0.0226
#: during the rounds, no second probe sooner than this after the last one
PROBE_GAP_S = 0.3

_KERNEL: dict = {}


def steady(values: Iterable[float]) -> float:
    """The lower quartile: what the values settle at when nothing gets in
    the way, without hanging on the single fastest one."""
    return float(statistics.quantiles(list(values), n=4)[0])


class Speedometer:
    """How much slower than the reference box this machine runs.

    The boxes this ladder is measured on share their cores. Identical code
    runs 10-15 % slower or faster for minutes at a time and up to 2x
    slower for seconds, so seconds as measured cannot be compared between
    two runs, however many slices a run has. Two small fixed kernels are
    therefore timed all through a run — ``py``, interpreter work shaped
    like the simulator (arithmetic, a dict, a heap), and ``np``, numpy
    work shaped like the learner and the server (small matmul, tanh,
    gather), ~25 ms each — and every time the run reports is divided by
    ``speed()``: the geometric mean of the two kernels' lower quartiles
    over the run, relative to the reference box.
    """

    def __init__(self, gap_s: float = PROBE_GAP_S) -> None:
        #: (py seconds, np seconds) of every probe
        self.probes: List[Tuple[float, float]] = []
        self.gap_s = gap_s
        self._last = -gap_s

    def probe(self) -> None:
        import numpy as np

        if now() - self._last < self.gap_s:
            return
        if not _KERNEL:
            rng = np.random.default_rng(0)
            _KERNEL["a"] = rng.standard_normal((64, 128))
            _KERNEL["w"] = rng.standard_normal((128, 384))
            _KERNEL["rows"] = rng.standard_normal((20000, 69))
            _KERNEL["index"] = rng.integers(0, 20000, size=(16, 9))
        t0 = now()
        heap: list = []
        table: dict = {}
        acc = 0
        for i in range(36000):
            acc += i * i
            table[i & 255] = acc
            heapq.heappush(heap, (acc & 1023, i))
            if i & 1:
                heapq.heappop(heap)
        t1 = now()
        a, w, rows, index = (_KERNEL[k] for k in ("a", "w", "rows", "index"))
        for _ in range(140):
            np.tanh(a @ w)
            rows[index]
        self._last = now()
        self.probes.append((t1 - t0, self._last - t1))

    def speed(self) -> float:
        py = steady(p for p, _ in self.probes) / REF_PY_S
        np_ = steady(q for _, q in self.probes) / REF_NP_S
        return math.sqrt(py * np_)


# --------------------------------------------------------------------------
# the workload protocol and the round loop
# --------------------------------------------------------------------------

#: the end-to-end names the three gated phases of a workload are reported under
SLOTS = ("phase1_s", "phase2_s", "phase3_s")


@dataclass
class Outcome:
    """What a workload hands back after its rounds."""

    attempted: int
    failed: int
    #: name -> passed; any False fails the run
    checks: Dict[str, bool]
    #: fingerprints of the outputs, for exact commit-to-commit comparison
    digests: Dict[str, str]
    #: per-layer metrics this workload measured (the rest report 0)
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One rung of the ladder. Subclasses set ``name``, ``phases``, ``steps``."""

    name = ""
    #: the three gated phases, in the order of :data:`SLOTS`
    phases: Tuple[str, ...] = ()
    #: what one round runs, in order; a step feeds one or more phases
    steps: Tuple[str, ...] = ()
    #: every ``repro`` module the workload touches; importing them in a
    #: fresh interpreter is the first half of set-up
    modules: Tuple[str, ...] = ()

    #: set by :func:`measure`: takes a machine-speed probe right now. A
    #: step that runs for seconds calls it at its seams.
    probe = staticmethod(lambda: None)

    def setup(self, seed: int, tmp: str) -> None:
        """Build the inputs from ``seed``; ``tmp`` is a private scratch dir.
        Called several times (``setup_s`` is a median); the last call's
        state is the one measured."""
        raise NotImplementedError

    def step(self, name: str, rec: Recorder) -> Dict[str, float]:
        """Run one slice of fixed work; return phase -> seconds for it
        (gated phases and any others the workload wants on record).

        Seconds are per *nominal* slice: a workload whose amount of work
        depends on the seed scales them to a fixed amount (see sim_churn).
        """
        raise NotImplementedError

    def finish(self, rec: Recorder, trace: bool) -> Outcome:
        """Check outputs; with ``trace`` also run the layer probes."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened (before the next ``setup``, and at
        the end)."""


@dataclass
class Measurement:
    #: phase -> seconds of every slice, as measured, in the order they ran
    slices: Dict[str, List[float]]
    #: step -> wall seconds of each call; round -> was the recorder on
    step_s: Dict[str, List[float]]
    traced: List[bool]
    wall_s: float
    meter: Speedometer

    @property
    def rounds(self) -> int:
        return len(self.traced)

    def reference_s(self, phase: str) -> float:
        """Seconds of one slice of ``phase`` at the reference box's speed."""
        return steady(self.slices[phase]) / self.meter.speed()

    def round_s(self, traced: bool) -> float:
        """Seconds of one round: sum over steps of the steady slice, over
        the rounds that ran with the recorder on (or off)."""
        return sum(
            steady(w for w, t in zip(walls, self.traced) if t == traced)
            for walls in self.step_s.values()
        )


MIN_ROUNDS = 4


def measure(workload: Workload, seconds: float, rec: Recorder, trace: bool) -> Measurement:
    """Closed loop: run rounds until ``seconds`` are spent (at least four).

    A round runs every step once, so each phase's slices are spread over
    the whole run and not bunched into one stretch of it, with the
    machine-speed probe between steps. With ``trace`` the recorder is on
    for every other round, so one run yields the span data and, from the
    same minutes, an untraced reference for the overhead.
    """
    meter = Speedometer()
    workload.probe = meter.probe
    slices: Dict[str, List[float]] = {}
    step_s: Dict[str, List[float]] = {s: [] for s in workload.steps}
    traced: List[bool] = []
    start = now()
    meter.probe()
    while True:
        rec.run_id = len(traced)
        rec.enabled = trace and rec.run_id % 2 == 0
        traced.append(rec.enabled)
        t0 = now()
        for name in workload.steps:
            t1 = now()
            out = workload.step(name, rec)
            step_s[name].append(now() - t1)
            meter.probe()
            for phase, value in out.items():
                slices.setdefault(phase, []).append(value)
        round_s = now() - t0
        rec.enabled = False
        # stop when one more round would overshoot by more than stopping
        # now undershoots
        if len(traced) >= MIN_ROUNDS and (now() - start) + 0.5 * round_s >= seconds:
            break
    return Measurement(slices, step_s, traced, now() - start, meter)
