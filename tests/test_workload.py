"""Tests for the open-loop workload layer (`repro.workload`).

Covers schedule generation (determinism, distributions, web sessions),
finite flows, end-to-end FCT accounting, the chaos injection points
(`workload.burst`, `netsim.linkflap`), and the served-workload mode.
"""

import gc
import subprocess
import sys

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core.networks import NetworkConfig, SagePolicy
from repro.netsim.aqm import TailDrop
from repro.netsim.topo import dumbbell_topology, parking_lot_topology
from repro.netsim.traces import FlatRate
from repro.serve.harness import WorkloadServeConfig, run_served_workload
from repro.tcp.flow import Flow
from repro.workload import (
    FctRecord,
    FctSummary,
    WorkloadConfig,
    generate_schedule,
    run_workload,
    schedule_digest,
)

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=3, n_atoms=7)


def _dumbbell(bw=48e6, buf=120_000):
    return dumbbell_topology(FlatRate(bw), TailDrop(buf))


def test_simulator_only_import_leaves_the_collector_out():
    # derive_seed used to live in repro.collector.parallel, which made the
    # 8-line helper cost the workload layer the whole collector
    # (concurrent.futures.process, multiprocessing) at import time
    probe = (
        "import sys; import repro.netsim, repro.tcp, repro.workload; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == "
        "'multiprocessing' or m.startswith('repro.collector')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    from repro.collector import parallel
    from repro.seeding import derive_seed

    assert parallel.derive_seed is derive_seed


# ---------------------------------------------------------------------------
# schedule generation
# ---------------------------------------------------------------------------


class TestGenerateSchedule:
    def test_deterministic_per_seed(self):
        cfg = WorkloadConfig(arrival_rate=200.0, duration=5.0, seed=11)
        a, b = generate_schedule(cfg), generate_schedule(cfg)
        assert schedule_digest(a) == schedule_digest(b)
        assert [x.time for x in a] == [x.time for x in b]
        assert [x.total_bytes for x in a] == [x.total_bytes for x in b]

    def test_seed_changes_schedule(self):
        base = WorkloadConfig(arrival_rate=200.0, duration=5.0, seed=1)
        other = WorkloadConfig(arrival_rate=200.0, duration=5.0, seed=2)
        assert schedule_digest(generate_schedule(base)) != schedule_digest(
            generate_schedule(other)
        )

    def test_poisson_count_near_rate(self):
        cfg = WorkloadConfig(arrival_rate=300.0, duration=10.0, seed=0)
        n = len(generate_schedule(cfg))
        assert 2400 < n < 3600  # 3000 +- many sigma

    def test_arrivals_ordered_within_window(self):
        sched = generate_schedule(
            WorkloadConfig(arrival_rate=100.0, duration=4.0, seed=3)
        )
        times = [a.time for a in sched]
        assert times == sorted(times)
        assert all(0.0 <= t < 4.0 for t in times)

    @pytest.mark.parametrize("dist", ["pareto", "lognormal", "fixed"])
    def test_size_distributions_clamped_and_sane(self, dist):
        cfg = WorkloadConfig(
            arrival_rate=400.0, duration=5.0, size_dist=dist,
            mean_size_bytes=40_000.0, max_size_bytes=2_000_000, seed=5,
        )
        sizes = [
            r.size_bytes for a in generate_schedule(cfg) for r in a.requests
        ]
        assert all(64 <= s <= 2_000_000 for s in sizes)
        mean = float(np.mean(sizes))
        if dist == "fixed":
            assert mean == 40_000.0
        else:
            assert 15_000 < mean < 90_000  # heavy tails, clamped above

    def test_web_sessions_have_multiple_requests(self):
        cfg = WorkloadConfig(
            arrival_rate=100.0, duration=5.0, requests_per_session=4.0,
            think_time=0.1, seed=9,
        )
        sched = generate_schedule(cfg)
        per_session = [len(a.requests) for a in sched]
        assert max(per_session) > 1
        assert 2.0 < float(np.mean(per_session)) < 7.0
        # first request of a session is immediate; later ones think
        for a in sched:
            assert a.requests[0].think_time == 0.0
            assert all(r.think_time > 0.0 for r in a.requests[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(size_dist="uniform")


# ---------------------------------------------------------------------------
# finite flows
# ---------------------------------------------------------------------------


class TestFiniteFlows:
    def test_flow_completes_and_reports_time(self):
        topo = _dumbbell()
        done = []
        flow = Flow(topo.view(("snd", "rcv")), flow_id=1, scheme="cubic",
                    min_rtt=0.04, size_bytes=150_000)
        flow.sender.on_complete = lambda s: done.append(topo.loop.now)
        flow.start()
        topo.loop.run_until(10.0)
        assert flow.sender.completed_at is not None
        assert done == [flow.sender.completed_at]
        # 150 KB over 48 Mbps with a 40 ms RTT: more than one RTT, well
        # under a second
        assert 0.04 < flow.sender.completed_at < 1.0

    def test_unbounded_flow_never_completes(self):
        topo = _dumbbell()
        flow = Flow(topo.view(("snd", "rcv")), flow_id=1, scheme="cubic",
                    min_rtt=0.04)
        flow.start()
        topo.loop.run_until(2.0)
        assert flow.sender.completed_at is None

    def test_tiny_flow_rounds_up_to_one_packet(self):
        topo = _dumbbell()
        flow = Flow(topo.view(("snd", "rcv")), flow_id=1, scheme="cubic",
                    min_rtt=0.04, size_bytes=10)
        flow.start()
        topo.loop.run_until(2.0)
        assert flow.sender.size_pkts == 1
        assert flow.sender.completed_at is not None


# ---------------------------------------------------------------------------
# end-to-end workload runs
# ---------------------------------------------------------------------------


class TestRunWorkload:
    def test_all_flows_complete_and_fcts_positive(self):
        res = run_workload(
            _dumbbell(),
            WorkloadConfig(arrival_rate=100.0, duration=2.0,
                           mean_size_bytes=20_000.0, seed=4),
        )
        assert res.summary.n_completed == res.summary.n_flows > 100
        assert res.summary.p50_s > 0.0
        assert res.summary.p99_s >= res.summary.p50_s
        assert res.peak_concurrent >= 1

    def test_deterministic_per_seed(self):
        cfg = WorkloadConfig(arrival_rate=80.0, duration=2.0, seed=6)
        a = run_workload(_dumbbell(), cfg)
        b = run_workload(_dumbbell(), cfg)
        assert a.digest == b.digest
        assert a.summary.to_json() == b.summary.to_json()
        assert [(r.flow_id, r.finish) for r in a.records] == [
            (r.flow_id, r.finish) for r in b.records
        ]

    def test_parking_lot_round_robins_sources(self):
        topo = parking_lot_topology(n_segments=2, bw_mbps=48.0)
        res = run_workload(
            topo,
            WorkloadConfig(arrival_rate=60.0, duration=1.5,
                           mean_size_bytes=15_000.0, seed=2),
        )
        assert res.summary.n_completed > 50

    def test_slowdown_at_least_one(self):
        res = run_workload(
            _dumbbell(),
            WorkloadConfig(arrival_rate=50.0, duration=1.5, seed=8),
        )
        assert res.summary.mean_slowdown >= 1.0

    def test_size_buckets_partition_records(self):
        res = run_workload(
            _dumbbell(),
            WorkloadConfig(arrival_rate=150.0, duration=2.0,
                           mean_size_bytes=80_000.0, seed=12),
        )
        assert sum(b["n"] for b in res.summary.buckets.values()) == (
            res.summary.n_flows
        )

    def test_finished_simulation_is_freed_not_parked(self):
        # A finished sender must die with its flow (reference counting), not
        # wait for a generation-2 pass: TcpSender.stop() breaks the
        # sender <-> RTO timer cycle. Only the topology's own link cycles
        # may be left for the collector.
        gc.collect()
        gc.disable()
        try:
            topo = parking_lot_topology(n_segments=3, bw_mbps=48.0)
            res = run_workload(
                topo, WorkloadConfig(arrival_rate=100.0, duration=1.0, seed=3)
            )
            assert res.summary.n_completed == res.summary.n_flows > 50
            del topo, res
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            parked = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert "TopoLink" in parked  # the collection did see the topology
        assert not parked & {"TcpSender", "Timer", "Cubic"}


class TestFctSummary:
    def test_incomplete_records_counted_not_ranked(self):
        records = [
            FctRecord(flow_id=1, arrival_index=0, size_bytes=10_000,
                      start=0.0, finish=0.5),
            FctRecord(flow_id=2, arrival_index=1, size_bytes=10_000,
                      start=0.1, finish=None),
        ]
        summary = FctSummary.from_records(records, base_rtt=0.04,
                                          bottleneck_bps=48e6)
        assert summary.n_flows == 2
        assert summary.n_completed == 1
        assert summary.p50_s == pytest.approx(0.5)

    def test_empty(self):
        summary = FctSummary.from_records([], base_rtt=0.04,
                                          bottleneck_bps=48e6)
        assert summary.n_flows == 0
        assert summary.to_json()["n_completed"] == 0

    def test_queue_signals_surfaced(self):
        summary = FctSummary.from_records([], base_rtt=0.04,
                                          bottleneck_bps=48e6,
                                          drops=7, ecn_marks=3)
        js = summary.to_json()
        assert js["drops"] == 7 and js["ecn_marks"] == 3


# ---------------------------------------------------------------------------
# chaos: workload.burst + netsim.linkflap, one-shot with clean replay
# ---------------------------------------------------------------------------


class TestWorkloadChaos:
    def test_burst_injects_extra_sessions_once(self):
        cfg = WorkloadConfig(arrival_rate=50.0, duration=2.0, seed=3)
        clean = generate_schedule(cfg)
        chaos = FaultInjector(FaultPlan(seed=0, faults=[
            FaultSpec("workload.burst", target=5, param=16.0),
        ]))
        burst = generate_schedule(cfg, chaos=chaos)
        assert len(burst) == len(clean) + 16
        extras = [a for a in burst if a.burst]
        assert len(extras) == 16
        # all clones share the trigger arrival's time (synchronized burst)
        assert len({a.time for a in extras}) == 1
        # consumed: the retry generates the clean schedule again
        retry = generate_schedule(cfg, chaos=chaos)
        assert schedule_digest(retry) == schedule_digest(clean)

    def test_burst_clones_draw_fresh_sizes(self):
        cfg = WorkloadConfig(arrival_rate=50.0, duration=2.0, seed=3)
        chaos = FaultInjector(FaultPlan(seed=0, faults=[
            FaultSpec("workload.burst", target=5, param=8.0),
        ]))
        burst = generate_schedule(cfg, chaos=chaos)
        sizes = {a.total_bytes for a in burst if a.burst}
        assert len(sizes) > 1  # not byte-identical clones

    def test_linkflap_fires_once_and_replays_clean(self):
        chaos = FaultInjector(FaultPlan(seed=0, faults=[
            FaultSpec("netsim.linkflap", target=0, param=0.5),
        ]))
        cfg = WorkloadConfig(arrival_rate=60.0, duration=2.0, seed=5)
        flapped = run_workload(_dumbbell(), cfg, chaos=chaos)
        assert flapped.flapped_links == [0]
        assert chaos.exhausted
        retry = run_workload(_dumbbell(), cfg, chaos=chaos)
        assert retry.flapped_links == []
        baseline = run_workload(_dumbbell(), cfg)
        assert retry.summary.to_json() == baseline.summary.to_json()
        # the flap hurt: fewer completions or worse tail than clean
        assert (
            flapped.summary.n_completed < baseline.summary.n_completed
            or flapped.summary.p99_s > baseline.summary.p99_s
        )

    def test_aqmstall_fires_once_and_replays_clean(self):
        chaos = FaultInjector(FaultPlan(seed=0, faults=[
            FaultSpec("netsim.aqmstall", target=0, param=0.4),
        ]))
        cfg = WorkloadConfig(arrival_rate=60.0, duration=2.0, seed=5)
        stalled = run_workload(_dumbbell(), cfg, chaos=chaos)
        assert stalled.stalled_links == [0]
        assert chaos.exhausted
        retry = run_workload(_dumbbell(), cfg, chaos=chaos)
        assert retry.stalled_links == []
        baseline = run_workload(_dumbbell(), cfg)
        # consumed fault -> the retry is bit-identical to a chaos-free run
        assert retry.summary.to_json() == baseline.summary.to_json()
        # the freeze hurt: fewer completions or a worse tail than clean
        assert (
            stalled.summary.n_completed < baseline.summary.n_completed
            or stalled.summary.p99_s > baseline.summary.p99_s
        )
        # service recovered after the stall: flows kept completing
        assert stalled.summary.n_completed > 0

    def test_aqmstall_counts_on_link_stats(self):
        chaos = FaultInjector(FaultPlan(seed=0, faults=[
            FaultSpec("netsim.aqmstall", target=0, param=0.3),
        ]))
        cfg = WorkloadConfig(arrival_rate=40.0, duration=1.5, seed=9)
        res = run_workload(_dumbbell(), cfg, chaos=chaos)
        assert res.link_stats[0]["stalls"] == 1
        assert "links" in res.to_json()


# ---------------------------------------------------------------------------
# served workloads (open-loop serving mode)
# ---------------------------------------------------------------------------


class TestServedWorkload:
    def _policy(self):
        return SagePolicy(TINY, np.random.default_rng(0))

    def test_fct_lands_in_serving_metrics(self):
        cfg = WorkloadServeConfig(arrival_rate=60.0, duration=1.0,
                                  drain=2.0, mean_size_bytes=15_000.0,
                                  seed=2)
        res = run_served_workload(self._policy(), cfg)
        fct = res.metrics["fct"]
        assert fct["n_completed"] + fct["n_abandoned"] == res.n_requests
        assert fct["n_completed"] > 0
        assert fct["p99_ms"] >= fct["p50_ms"] > 0.0
        assert res.metrics["decisions"] > 0  # flows actually got served

    def test_deterministic(self):
        cfg = WorkloadServeConfig(arrival_rate=60.0, duration=1.0,
                                  drain=2.0, seed=7)
        a = run_served_workload(self._policy(), cfg)
        b = run_served_workload(self._policy(), cfg)
        assert a.metrics["fct"] == b.metrics["fct"]
        assert a.fct.to_json() == b.fct.to_json()

    def test_topology_classes_supported(self):
        cfg = WorkloadServeConfig(topology="parking_lot", arrival_rate=40.0,
                                  duration=1.0, drain=2.0, bw_mbps=24.0,
                                  min_rtt=0.04, seed=1)
        res = run_served_workload(self._policy(), cfg)
        assert res.fct.n_completed > 0
