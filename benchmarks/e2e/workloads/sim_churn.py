"""``sim_churn`` — the simulator the *other* way from ``pipeline_small``.

A thousand short open-loop flows a repetition (Poisson arrivals, Pareto
sizes) over multi-hop ``FlowPath`` routes: timer churn and 60-110 concurrent
flows at the peak. Three cells: the parking lot on the cheap queue
(tail-drop), the incast fan-in on the known-slow one (FQ-CoDel), and the
parking lot on FQ-CoDel, which tells a queue change from a topology change.
No datastore, trainer or server code runs.

The schedule comes from the seed, so the number of packets a repetition
delivers differs from seed to seed (by up to 10 % on the incast cells). The
slice time is therefore scaled to ``NOMINAL_PKTS`` delivered packets:
seconds = wall / delivered * NOMINAL_PKTS.
"""

from __future__ import annotations

from typing import Dict, List

from harness import Outcome, Recorder, Workload, digest, now, steady

NOMINAL_PKTS = 25_000


def _cells():
    from repro.netsim import incast_topology, parking_lot_topology

    def parking_lot(aqm):
        return lambda: parking_lot_topology(n_segments=3, bw_mbps=48, aqm=aqm)

    def incast(aqm):
        return lambda: incast_topology(n_senders=8, bw_mbps=48, aqm=aqm)

    return {
        "pl_taildrop": parking_lot("taildrop"),
        "incast_fqcodel": incast("fq_codel"),
        "pl_fqcodel": parking_lot("fq_codel"),
    }


class SimChurn(Workload):
    name = "sim_churn"
    phases = ("pl_taildrop", "incast_fqcodel", "pl_fqcodel")
    steps = phases

    # ~1 000 flows and ~0.4 s a repetition on the reference box
    ARRIVAL_RATE = 400.0
    DURATION = 2.5
    DRAIN = 10.0

    modules = (
        "repro.netsim",
        "repro.tcp",
        "repro.workload",
    )

    def setup(self, seed: int, tmp: str) -> None:
        from repro.workload import WorkloadConfig, run_workload

        self.config = WorkloadConfig(
            arrival_rate=self.ARRIVAL_RATE,
            duration=self.DURATION,
            mean_size_bytes=15000,
            seed=seed,
        )
        self.cells = _cells()
        # the first repetition in a process runs ~20 % slow: warm every
        # cell on two fifths of the schedule
        warm = WorkloadConfig(
            arrival_rate=self.ARRIVAL_RATE,
            duration=self.DURATION * 0.4,
            mean_size_bytes=15000,
            seed=seed,
        )
        for build in self.cells.values():
            run_workload(build(), warm, scheme="cubic", drain=self.DRAIN)
        #: cell -> one record per repetition
        self.reps: Dict[str, List[dict]] = {c: [] for c in self.phases}

    def step(self, cell: str, rec: Recorder) -> Dict[str, float]:
        from repro.workload import run_workload

        with rec.span(f"netsim.{cell}.build"):
            topology = self.cells[cell]()
        with rec.span(f"netsim.{cell}.run"):
            start = now()
            result = run_workload(topology, self.config, scheme="cubic", drain=self.DRAIN)
            wall = now() - start
        links = result.link_stats
        delivered = sum(s["delivered_packets"] for s in links)
        self.reps[cell].append({
            "traced": rec.enabled,
            "wall_s": wall,
            "delivered": delivered,
            "flows": result.summary.n_flows,
            "completed": result.summary.n_completed,
            "peak_concurrent": result.peak_concurrent,
            "links": links,
            "fct": result.summary.to_json(),
            "digests": {
                "schedule": result.digest,
                "links": digest(links),
                "fct": digest(result.summary.to_json()),
            },
        })
        return {cell: wall / delivered * NOMINAL_PKTS}

    def finish(self, rec: Recorder, trace: bool) -> Outcome:
        checks = {}
        digests = {}
        attempted = failed = 0
        for cell, reps in self.reps.items():
            first = reps[0]
            checks[f"{cell}_reps_bit_identical"] = all(
                r["digests"] == first["digests"] for r in reps
            )
            checks[f"{cell}_delivered_packets"] = first["delivered"] > 0
            for key, value in first["digests"].items():
                digests[f"{cell}.{key}"] = value
            attempted += sum(r["flows"] for r in reps)
            failed += sum(r["flows"] - r["completed"] for r in reps)
        layers = self._layers(rec) if trace else {}
        return Outcome(attempted, failed, checks, digests, layers)

    # ------------------------------------------------------------------
    def _layers(self, rec: Recorder) -> Dict[str, float]:
        from repro.workload import generate_schedule

        layers: Dict[str, float] = {}
        start = now()
        generate_schedule(self.config)
        layers["workload.schedule_s"] = now() - start
        for cell, reps in self.reps.items():
            first = reps[0]
            run_s = steady(r["wall_s"] for r in reps if r["traced"])
            links = first["links"]
            layers.update({
                f"netsim.{cell}.build_s": steady(rec.durations(f"netsim.{cell}.build")),
                f"netsim.{cell}.run_s": run_s,
                f"netsim.{cell}.delivered_pkts": first["delivered"],
                f"netsim.{cell}.enqueues": sum(s["enqueues"] for s in links),
                f"netsim.{cell}.drops": sum(s["drops"] for s in links),
                f"netsim.{cell}.ecn_marks": sum(s["ecn_marks"] for s in links),
                f"netsim.{cell}.pkts_per_s": first["delivered"] / run_s,
                f"workload.{cell}.flows": first["flows"],
                f"workload.{cell}.abandoned": first["flows"] - first["completed"],
                f"workload.{cell}.peak_concurrent": first["peak_concurrent"],
                f"workload.{cell}.flows_per_s": first["flows"] / run_s,
                f"workload.{cell}.fct_p50_ms": first["fct"]["fct_p50_ms"],
                f"workload.{cell}.fct_p99_ms": first["fct"]["fct_p99_ms"],
            })
        layers.update(_eventloop_probe())
        return layers


def _eventloop_probe(n_events: int = 200_000) -> Dict[str, float]:
    """The bottom rung: raw ``EventLoop`` dispatch through its public API.

    Self-rescheduling no-op callbacks, then the same with every callback
    also arming and cancelling a far-future timer — the RTO pattern that
    bloats the lazily-cancelled heap.
    """
    from repro.netsim import EventLoop

    def rate(cancel_heavy: bool) -> float:
        loop = EventLoop()
        left = [n_events]

        def fire() -> None:
            left[0] -= 1
            if cancel_heavy:
                loop.call_later(1000.0, _noop).cancel()
            if left[0] > 0:
                loop.call_later(0.001, fire)

        loop.call_later(0.001, fire)
        start = now()
        loop.run_until(n_events * 0.001 + 1.0)
        wall = now() - start
        if left[0] != 0:
            raise RuntimeError(f"event loop left {left[0]} callbacks undispatched")
        return n_events / wall

    return {
        "netsim.eventloop.events_per_s": rate(False),
        "netsim.eventloop.cancel_heavy_events_per_s": rate(True),
    }


def _noop() -> None:
    pass
