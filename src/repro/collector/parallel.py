"""Parallel Policy-Collector engine: fan rollouts across worker processes.

Sage's premise is data-scale — the paper rolls 13 kernel heuristics through
>1000 emulated environments to build the offline pool — and every rollout is
embarrassingly parallel: one environment, one flow, no shared state. This
module is the fan-out layer the rest of the repo sits on:

- :func:`run_tasks` — the generic engine. Takes a list of picklable tasks
  and a module-level task function, spreads chunks of tasks over a
  ``ProcessPoolExecutor``, and returns results *in task order* together
  with a :class:`CollectionReport`. ``workers=1`` bypasses the executor
  entirely and runs in-process (exactly the historical serial path).
- :func:`make_rollout_tasks` / :func:`collect_rollouts` /
  :func:`collect_pool_parallel` — the Policy-Collector specialization:
  ``(scheme, env)`` product, deterministic per-task seeds, and a
  :class:`~repro.collector.pool.PolicyPool` assembled in the same order the
  serial nested loop would produce.

Determinism
-----------
Scheme rollouts are pure functions of ``(env, scheme)`` — every source of
randomness (traces, AQMs, jitter) is seeded from the :class:`EnvConfig` —
so a pool collected with ``workers=N`` is bit-identical to ``workers=1``.
Tasks additionally carry a seed derived only from ``(base_seed, index)``
(never from worker identity or scheduling), so stochastic task functions
(e.g. sampling agents) stay deterministic under any worker count.

Crash recovery
--------------
A failed task — whether its function raised, its worker process died, or
the watchdog declared it hung — is re-dispatched in later rounds (fresh
executor each round, exponential backoff between rounds) and then
*reported*, never silently dropped: the result slot stays ``None`` and the
failure (with its error text and kind) is listed in
``CollectionReport.failures`` — the poison-task quarantine. Pool builders
treat any failure as an error by default (``strict=True``).

Hang detection
--------------
``max_task_seconds`` arms a watchdog: each dispatched chunk gets a
deadline, and when every still-running chunk is past its deadline the
round is abandoned — the executor's worker processes are terminated (a
wedged child no longer blocks collection forever) and the overdue tasks
re-dispatched next round. The timeout needs real worker processes;
the in-process ``workers=1`` path cannot preempt a wedged task function.

Determinism under retry
-----------------------
Before running any task that carries a ``seed`` attribute, the chunk
runner reseeds numpy's *global* generator from it. Task functions that
draw global randomness are therefore a pure function of their task, not
of chunk composition or dispatch round — a re-dispatched task reproduces
its first attempt bit-for-bit.

Fault injection
---------------
``chaos`` accepts a :class:`~repro.chaos.inject.FaultInjector`; its
pending ``collector.crash`` / ``collector.hang`` faults are armed for the
first dispatch round only (picklable target sets consulted by the chunk
runner), so every injected fault is recoverable by the retry machinery.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.environments import EnvConfig
from repro.collector.gr_unit import WindowConfig
from repro.collector.pool import PolicyPool
from repro.collector.rewards import DEFAULT_REWARDS, RewardConfig
from repro.collector.rollout import TICK, collect_trajectory
from repro.seeding import derive_seed  # also re-exported: this was its home


def default_workers() -> int:
    """The default worker count: one per CPU."""
    return max(os.cpu_count() or 1, 1)


# --------------------------------------------------------------------------
# Task and report types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RolloutTask:
    """One ``(scheme, env)`` collection job."""

    index: int
    env: EnvConfig
    scheme: str
    seed: int = 0
    windows: Optional[WindowConfig] = None
    rewards: Optional[RewardConfig] = None  # None -> DEFAULT_REWARDS
    tick: float = TICK

    @property
    def label(self) -> str:
        return f"{self.scheme} on {self.env.env_id}"


@dataclass
class TaskFailure:
    """A task that failed every dispatch round (quarantined as poison)."""

    index: int
    label: str
    error: str
    attempts: int
    #: "error" (task function raised), "crash" (worker process died), or
    #: "timeout" (watchdog declared the task hung)
    kind: str = "error"


@dataclass
class ProgressEvent:
    """Passed to the progress callback after every completed task."""

    done: int
    total: int
    label: str
    elapsed: float  # seconds since the engine started
    throughput: float  # completed tasks per second so far
    retried: bool = False  # True if this task needed a second attempt


@dataclass
class CollectionReport:
    """What a :func:`run_tasks` call did: timing, retries, failures."""

    total: int
    workers: int
    chunksize: int
    elapsed: float = 0.0
    n_retried: int = 0
    #: worker-death events observed (each may cover a whole chunk)
    n_crashes: int = 0
    #: watchdog timeouts observed (each may cover a whole chunk)
    n_timeouts: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    #: fault/recovery log: ``{"kind", "detail", "action"}`` per event —
    #: what went wrong and what the engine did about it
    events: List[Dict[str, str]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.total - len(self.failures)

    @property
    def throughput(self) -> float:
        """Completed tasks per second of wall clock."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def raise_on_failure(self) -> None:
        if self.failures:
            lines = [
                f"{len(self.failures)}/{self.total} collection tasks failed "
                f"after {self.failures[0].attempts} attempts:"
            ]
            lines += [f"  - {f.label}: {f.error}" for f in self.failures]
            raise RuntimeError("\n".join(lines))


class CollectionError(RuntimeError):
    """Raised by strict pool builders when tasks failed permanently."""


class OrderedConsumer:
    """Re-serialize out-of-order task completions into index order.

    Wraps a ``sink(result)`` callable: results may arrive in any completion
    order (and retried tasks arrive late), but the sink only ever sees the
    contiguous prefix, in task order. Used to stream rollouts into a
    :class:`~repro.datastore.writer.ShardWriter` so the shard layout — and
    therefore sampling — is deterministic whatever the worker scheduling
    was. Memory is bounded by the out-of-order slack, not the run size.
    """

    def __init__(self, sink: Callable[[Any], None], start: int = 0) -> None:
        self._sink = sink
        self._next = int(start)
        self._held: dict = {}

    def __call__(self, index: int, result: Any) -> None:
        self._held[index] = result
        while self._next in self._held:
            self._sink(self._held.pop(self._next))
            self._next += 1

    @property
    def held(self) -> int:
        """Results buffered waiting for an earlier index."""
        return len(self._held)

    def finish(self) -> None:
        """Flush past permanently-failed indices (non-strict runs only)."""
        for index in sorted(self._held):
            self._sink(self._held.pop(index))
            self._next = index + 1


# --------------------------------------------------------------------------
# Worker-side functions (must be module-level so they pickle)
# --------------------------------------------------------------------------


def _run_rollout_task(task: RolloutTask):
    """Default task function: record one scheme x environment trajectory."""
    return collect_trajectory(
        task.env,
        task.scheme,
        windows=task.windows,
        rewards=task.rewards if task.rewards is not None else DEFAULT_REWARDS,
        tick=task.tick,
    )


def _reseed_for(task: Any) -> None:
    """Pin numpy's global generator to the task's own seed, if it has one.

    Makes any global-randomness-consuming task function a pure function of
    its task — independent of chunk composition, worker identity, and
    dispatch round — so a re-dispatched task reproduces its first attempt.
    """
    seed = getattr(task, "seed", None)
    if seed is not None:
        np.random.seed(int(seed) & 0xFFFFFFFF)


def _run_chunk(
    fn: Callable,
    chunk: List[Tuple[int, Any]],
    chaos: Optional[Dict] = None,
) -> List[Tuple[int, bool, Any]]:
    """Run a chunk of tasks in one worker; capture per-task exceptions.

    Returns ``(index, ok, payload)`` triples, where ``payload`` is the task
    result on success and the error string on failure — one bad task must
    not take its chunk-mates down with it.

    ``chaos`` (first dispatch round only) is armed fault data from a
    :class:`~repro.chaos.inject.FaultInjector`: tasks in ``chaos["crash"]``
    kill this worker process outright; tasks in ``chaos["hang"]`` stall for
    the scheduled seconds before running (long enough to trip the
    watchdog).
    """
    crash = chaos.get("crash", ()) if chaos else ()
    hang = chaos.get("hang", {}) if chaos else {}
    out: List[Tuple[int, bool, Any]] = []
    for index, task in chunk:
        _reseed_for(task)
        if index in crash:
            os._exit(3)  # injected fault: die like a real worker crash
        if index in hang:
            time.sleep(float(hang[index]))  # injected fault: wedge the task
        try:
            out.append((index, True, fn(task)))
        except BaseException as exc:  # noqa: BLE001 - reported, never dropped
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            out.append((index, False, f"{type(exc).__name__}: {exc}"))
    return out


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Kill a broken/abandoned executor's worker processes.

    Without this a wedged child would survive ``shutdown(wait=False)`` and
    block interpreter exit (concurrent.futures joins workers at exit).
    """
    procs = getattr(executor, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):  # already dead / exotic platform
            pass


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


def _auto_chunksize(n_tasks: int, workers: int) -> int:
    """Chunks big enough to amortize IPC, small enough to balance load.

    Targets two chunks per worker (ceiling division), so every task batch
    — even a small one — pays at most ``2 * workers`` submit/pickle round
    trips while retaining one spare chunk per worker for load balancing.
    The floor division this replaces collapsed to chunksize 1 whenever
    ``n_tasks < 8 * workers``, which put a full dispatch round trip on
    every single task and made 2-worker runs *slower* than serial. The
    cap of 8 keeps watchdog deadlines (which scale with chunk length)
    and retry granularity bounded.
    """
    return max(1, min(8, -(-n_tasks // (workers * 2))))


def run_tasks(
    tasks: Sequence[Any],
    fn: Callable = _run_rollout_task,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    consume: Optional[Callable[[int, Any], None]] = None,
    max_task_seconds: Optional[float] = None,
    max_rounds: int = 2,
    retry_backoff_s: float = 0.0,
    chaos=None,
) -> Tuple[List[Any], CollectionReport]:
    """Run ``fn`` over every task, fanning across worker processes.

    Parameters
    ----------
    tasks:
        Picklable task objects; results come back in the same order.
    fn:
        Module-level callable applied to each task in a worker process.
    workers:
        Process count; ``None`` means one per CPU; ``1`` runs everything
        in-process with no executor (the historical serial path).
    chunksize:
        Tasks per worker dispatch; ``None`` picks a balanced default.
    progress:
        Called with a :class:`ProgressEvent` after every completed task.
    consume:
        Streaming hook: called as ``consume(index, result)`` the moment a
        task succeeds, *instead of* retaining the result — ``results[i]``
        stays ``None`` for consumed tasks, so a large run never accumulates
        in driver memory. Completion order is arbitrary; wrap the hook in
        :class:`OrderedConsumer` when the sink needs task order.
    max_task_seconds:
        Watchdog budget per task: a dispatched chunk's deadline is this
        times its task count (scaled for dispatch queueing). When every
        still-running chunk is overdue the round is abandoned, its worker
        processes are terminated, and the overdue tasks are re-dispatched.
        ``None`` disables the watchdog. Needs real worker processes — the
        in-process ``workers=1`` path cannot preempt a wedged function.
    max_rounds:
        Dispatch rounds per task before it is quarantined as poison and
        listed in ``report.failures``. Round 1 uses ``chunksize``; retry
        rounds dispatch one task per chunk in a fresh executor.
    retry_backoff_s:
        Base of the exponential backoff slept before each retry round
        (``retry_backoff_s * 2**(round - 1)`` seconds).
    chaos:
        Optional :class:`~repro.chaos.inject.FaultInjector`; pending
        ``collector.*`` faults are armed for the first dispatch round.

    Returns
    -------
    ``(results, report)`` — ``results[i]`` is ``fn(tasks[i])``, or ``None``
    if the task failed every round (see ``report.failures``) or was handed
    to ``consume``.
    """
    n = len(tasks)
    workers = default_workers() if workers is None else max(int(workers), 1)
    workers = min(workers, n) if n else 1
    chunksize = _auto_chunksize(n, workers) if chunksize is None else max(chunksize, 1)
    max_rounds = max(int(max_rounds), 1)
    report = CollectionReport(total=n, workers=workers, chunksize=chunksize)
    results: List[Any] = [None] * n
    started = time.perf_counter()
    done = 0

    def _emit(index: int, retried: bool) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            elapsed = time.perf_counter() - started
            label = getattr(tasks[index], "label", f"task {index}")
            progress(
                ProgressEvent(
                    done=done,
                    total=n,
                    label=label,
                    elapsed=elapsed,
                    throughput=done / elapsed if elapsed > 0 else 0.0,
                    retried=retried,
                )
            )

    def _label(index: int) -> str:
        return getattr(tasks[index], "label", f"task {index}")

    if n == 0:
        return results, report

    armed = chaos.collector_faults() if chaos is not None else None

    if workers == 1:
        # In-process serial path: identical to the historical nested loop,
        # with the same retry-then-quarantine contract as the pool path.
        # Injected crashes are simulated as raises (killing the driver
        # process would defeat the point); injected hangs are skipped — no
        # watchdog can preempt a wedged in-process function.
        armed_crash = set(armed.get("crash", ())) if armed else set()
        for hi in sorted(armed.get("hang", {})) if armed else ():
            report.events.append(
                {
                    "kind": "hang",
                    "detail": f"injected hang for {_label(hi)} cannot fire "
                              "in-process (workers=1 has no watchdog)",
                    "action": "skipped",
                }
            )
        for i, task in enumerate(tasks):
            attempt_errors: List[str] = []
            for attempt in range(max_rounds):
                if attempt > 0 and retry_backoff_s > 0:
                    time.sleep(retry_backoff_s * (2 ** (attempt - 1)))
                try:
                    _reseed_for(task)
                    if attempt == 0 and i in armed_crash:
                        report.n_crashes += 1
                        report.events.append(
                            {
                                "kind": "crash",
                                "detail": f"injected crash for {_label(i)} "
                                          "(simulated in-process)",
                                "action": "retrying",
                            }
                        )
                        raise RuntimeError("injected worker crash")
                    outcome = fn(task)
                    break
                except BaseException as exc:  # noqa: BLE001
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    attempt_errors.append(f"{type(exc).__name__}: {exc}")
            else:
                report.failures.append(
                    TaskFailure(
                        index=i,
                        label=_label(i),
                        error=attempt_errors[-1],
                        attempts=max_rounds,
                        kind="crash" if i in armed_crash and max_rounds == 1
                        else "error",
                    )
                )
                continue
            # consume errors are driver-side (e.g. disk full) and must not
            # be retried as if the task itself had failed
            if consume is not None:
                consume(i, outcome)
            else:
                results[i] = outcome
            if attempt_errors:
                report.n_retried += 1
            _emit(i, retried=bool(attempt_errors))
        for f in report.failures:
            report.events.append(
                {
                    "kind": f.kind,
                    "detail": f"{f.label}: {f.error}",
                    "action": f"quarantined after {f.attempts} attempt(s)",
                }
            )
        report.elapsed = time.perf_counter() - started
        return results, report

    # Round 1: chunked fan-out, chaos armed. Retry rounds: failed tasks,
    # one per chunk, in a fresh executor (a crashed worker poisons its
    # whole executor) after exponential backoff — and always clean.
    pending: List[Tuple[int, Any]] = list(enumerate(tasks))
    last_error: Dict[int, Tuple[str, str]] = {}  # index -> (kind, message)
    for round_no in range(max_rounds):
        if not pending:
            break
        if round_no > 0 and retry_backoff_s > 0:
            time.sleep(retry_backoff_s * (2 ** (round_no - 1)))
        size = chunksize if round_no == 0 else 1
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        retry_next: List[Tuple[int, Any]] = []
        round_armed = armed if round_no == 0 else None
        n_exec = min(workers, len(chunks))
        executor = ProcessPoolExecutor(max_workers=n_exec)
        round_start = time.perf_counter()
        last_round = round_no + 1 >= max_rounds
        crashed_chunks: List[List[Tuple[int, Any]]] = []
        abandoned = False
        try:
            futures = {}
            deadlines: Dict[Any, float] = {}
            for pos, chunk in enumerate(chunks):
                try:
                    fut = executor.submit(_run_chunk, fn, chunk, round_armed)
                except BaseException as exc:  # pool broke during submission
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    for index, task in chunk:
                        last_error[index] = (
                            "crash",
                            f"worker pool broken ({type(exc).__name__}: {exc})",
                        )
                        retry_next.append((index, task))
                    continue
                futures[fut] = chunk
                if max_task_seconds is not None:
                    # chunks queue behind the first `n_exec` waves, so later
                    # positions get proportionally later deadlines
                    wave = 1 + pos // n_exec
                    deadlines[fut] = (
                        round_start + max_task_seconds * len(chunk) * wave
                    )
            not_done = set(futures)
            while not_done:
                poll = 0.05 if max_task_seconds is not None else None
                finished, not_done = wait(not_done, timeout=poll)
                for fut in finished:
                    chunk = futures[fut]
                    try:
                        triples = fut.result()
                    except BaseException as exc:  # worker process died
                        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                            raise
                        crashed_chunks.append(chunk)
                        for index, task in chunk:
                            last_error[index] = (
                                "crash",
                                "worker process crashed "
                                f"({type(exc).__name__}: {exc})",
                            )
                            retry_next.append((index, task))
                        continue
                    for index, ok, payload in triples:
                        if ok:
                            if consume is not None:
                                consume(index, payload)
                            else:
                                results[index] = payload
                            retried = round_no > 0
                            if retried:
                                report.n_retried += 1
                            _emit(index, retried=retried)
                        else:
                            last_error[index] = ("error", payload)
                            retry_next.append((index, tasks[index]))
                if not not_done or max_task_seconds is None:
                    continue
                now = time.perf_counter()
                overdue = {
                    f for f in not_done
                    if now >= deadlines.get(f, float("inf"))
                }
                if overdue and overdue == not_done:
                    # every still-running chunk is past its deadline: the
                    # pool is wedged — abandon the round and re-dispatch
                    abandoned = True
                    for fut in overdue:
                        chunk = futures[fut]
                        report.n_timeouts += 1
                        labels = ", ".join(_label(i) for i, _ in chunk)
                        report.events.append(
                            {
                                "kind": "timeout",
                                "detail": f"watchdog: [{labels}] exceeded "
                                          f"{max_task_seconds:g}s per task",
                                "action": "quarantined" if last_round
                                else "terminating workers, re-dispatching",
                            }
                        )
                        for index, task in chunk:
                            last_error[index] = (
                                "timeout",
                                "watchdog timeout: task still running after "
                                f"max_task_seconds={max_task_seconds:g}",
                            )
                            retry_next.append((index, task))
                    break
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            if abandoned:
                _terminate_workers(executor)
        if crashed_chunks:
            report.n_crashes += 1
            labels = ", ".join(
                _label(i) for chunk in crashed_chunks for i, _ in chunk
            )
            report.events.append(
                {
                    "kind": "crash",
                    "detail": "worker death broke dispatch round "
                              f"{round_no + 1}; affected: [{labels}]",
                    "action": "quarantined" if last_round
                    else "re-dispatching in a fresh pool",
                }
            )
        # de-duplicate by index (a chunk can be both crashed and resubmitted)
        seen: set = set()
        pending = [
            p for p in sorted(retry_next, key=lambda p: p[0])
            if p[0] not in seen and not seen.add(p[0])
        ]

    for index, task in pending:  # failed every dispatch round
        kind, message = last_error.get(index, ("error", "unknown error"))
        report.failures.append(
            TaskFailure(
                index=index,
                label=_label(index),
                error=message,
                attempts=max_rounds,
                kind=kind,
            )
        )
    report.failures.sort(key=lambda f: f.index)
    for f in report.failures:
        report.events.append(
            {
                "kind": f.kind,
                "detail": f"{f.label}: {f.error}",
                "action": f"quarantined after {f.attempts} round(s)",
            }
        )
    report.elapsed = time.perf_counter() - started
    return results, report


# --------------------------------------------------------------------------
# Policy-Collector specialization
# --------------------------------------------------------------------------


def make_rollout_tasks(
    environments: Sequence[EnvConfig],
    schemes: Sequence[str],
    windows: Optional[WindowConfig] = None,
    rewards: Optional[RewardConfig] = None,
    tick: float = TICK,
    base_seed: int = 0,
) -> List[RolloutTask]:
    """The ``(env, scheme)`` product in the serial nested-loop order."""
    tasks: List[RolloutTask] = []
    for env in environments:
        for scheme in schemes:
            index = len(tasks)
            tasks.append(
                RolloutTask(
                    index=index,
                    env=env,
                    scheme=scheme,
                    seed=derive_seed(base_seed, index),
                    windows=windows,
                    rewards=rewards,
                    tick=tick,
                )
            )
    return tasks


def collect_rollouts(
    tasks: Sequence[RolloutTask],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    strict: bool = True,
    max_task_seconds: Optional[float] = None,
    max_rounds: int = 2,
    retry_backoff_s: float = 0.0,
    chaos=None,
) -> Tuple[List[Any], CollectionReport]:
    """Run rollout tasks; with ``strict`` any permanent failure raises."""
    results, report = run_tasks(
        tasks, fn=_run_rollout_task, workers=workers,
        chunksize=chunksize, progress=progress,
        max_task_seconds=max_task_seconds, max_rounds=max_rounds,
        retry_backoff_s=retry_backoff_s, chaos=chaos,
    )
    if strict and report.failures:
        try:
            report.raise_on_failure()
        except RuntimeError as exc:
            raise CollectionError(str(exc)) from None
    return results, report


def collect_pool_parallel(
    environments: Sequence[EnvConfig],
    schemes: Sequence[str],
    windows: Optional[WindowConfig] = None,
    tick: float = TICK,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    base_seed: int = 0,
    strict: bool = True,
    max_task_seconds: Optional[float] = None,
    max_rounds: int = 2,
    retry_backoff_s: float = 0.0,
    chaos=None,
    report_sink: Optional[Callable[[CollectionReport], None]] = None,
) -> PolicyPool:
    """Build the pool of policies across workers.

    The returned pool is bit-identical to the serial
    ``for env: for scheme: collect_trajectory`` loop for the same inputs,
    whatever ``workers`` is — rollouts are deterministic given their
    :class:`EnvConfig` and results are assembled in task order. That holds
    under injected faults too: crashed/hung tasks are re-dispatched with
    the same seeds and land in the same slots.
    """
    tasks = make_rollout_tasks(
        environments, schemes, windows=windows, tick=tick, base_seed=base_seed
    )
    results, report = collect_rollouts(
        tasks, workers=workers, chunksize=chunksize,
        progress=progress, strict=strict,
        max_task_seconds=max_task_seconds, max_rounds=max_rounds,
        retry_backoff_s=retry_backoff_s, chaos=chaos,
    )
    if report_sink is not None:
        report_sink(report)
    pool = PolicyPool()
    for rollout in results:
        if rollout is not None:
            pool.add_rollout(rollout)
    return pool


def collect_pool_to_store(
    environments: Sequence[EnvConfig],
    schemes: Sequence[str],
    store,
    windows: Optional[WindowConfig] = None,
    tick: float = TICK,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    base_seed: int = 0,
    strict: bool = True,
    shard_bytes: Optional[int] = None,
    max_task_seconds: Optional[float] = None,
    max_rounds: int = 2,
    retry_backoff_s: float = 0.0,
    chaos=None,
    report_sink: Optional[Callable[[CollectionReport], None]] = None,
):
    """Stream the pool of policies straight into a sharded store.

    Unlike :func:`collect_pool_parallel`, rollouts never accumulate in the
    driver: each one is committed to a
    :class:`~repro.datastore.writer.ShardWriter` the moment its turn in
    task order comes up (an :class:`OrderedConsumer` re-serializes worker
    completions), so peak driver memory is bounded by the out-of-order
    slack, not the pool size. The shard layout is deterministic — identical
    for any ``workers`` — and sampling the returned
    :class:`~repro.datastore.reader.ShardedPool` is bit-identical to
    sampling the in-memory pool the serial loop would have built.

    ``store`` is a directory path or an existing ``ShardWriter`` (left
    open for further appends; paths are finalized before returning).
    """
    from repro.datastore.reader import ShardedPool
    from repro.datastore.writer import DEFAULT_SHARD_BYTES, ShardWriter

    tasks = make_rollout_tasks(
        environments, schemes, windows=windows, tick=tick, base_seed=base_seed
    )
    if isinstance(store, ShardWriter):
        writer, owns_writer = store, False
    else:
        writer = ShardWriter(
            store,
            shard_bytes=DEFAULT_SHARD_BYTES if shard_bytes is None else shard_bytes,
            chaos=chaos,
        )
        owns_writer = True
    consumer = OrderedConsumer(writer.add_rollout)
    try:
        _results, report = run_tasks(
            tasks, fn=_run_rollout_task, workers=workers,
            chunksize=chunksize, progress=progress, consume=consumer,
            max_task_seconds=max_task_seconds, max_rounds=max_rounds,
            retry_backoff_s=retry_backoff_s, chaos=chaos,
        )
        if report_sink is not None:
            report_sink(report)
        if strict and report.failures:
            try:
                report.raise_on_failure()
            except RuntimeError as exc:
                raise CollectionError(str(exc)) from None
        consumer.finish()  # skip past permanently-failed slots (non-strict)
    finally:
        if owns_writer:
            writer.close()
        else:
            writer.flush()
    return ShardedPool.open(writer.root)
