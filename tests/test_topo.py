"""Tests for the graph topology engine (`repro.netsim.topo`).

Two pillars:

- **Dumbbell fidelity** — the paper's dumbbell is a two-node graph; the
  3-flow and raw jitter/ACK scenarios must reproduce, bit for bit, the
  event streams the pre-graph dumbbell emitted (golden digests in
  `tests/test_sim_golden.py`: identical sender evolution, counters and
  jitter draws).
- **Parking-lot physics** — multi-bottleneck closed-form checks: who gets
  which share, where the queue actually builds.
"""

import pytest

from repro.netsim.aqm import TailDrop
from repro.netsim.packet import Packet
from repro.netsim.topo import (
    TOPOLOGY_CLASSES,
    PathConfig,
    Topology,
    describe_topology,
    dumbbell_topology,
    incast_topology,
    make_topology,
    parking_lot_topology,
    proxy_split_topology,
)
from repro.netsim.traces import FlatRate
from repro.serve.harness import jain_index
from repro.tcp.flow import Flow
from tests.test_sim_golden import (
    DUMBBELL_RATES,
    GOLDEN_DUMBBELL,
    GOLDEN_JITTER,
    _json_sha,
    drive_jitter,
    dumbbell_digests,
    dumbbell_view,
    run_dumbbell,
)


class TestDumbbellBitIdentity:
    """The dumbbell graph must reproduce the pre-graph dumbbell bitwise."""

    @pytest.mark.parametrize("kind", sorted(DUMBBELL_RATES))
    def test_flows_evolve_identically(self, kind):
        """Full cwnd/una/retx trace, delivered/dropped counters, per-flow
        throughput and loss — exact."""
        run = run_dumbbell(dumbbell_view(DUMBBELL_RATES[kind](), 60_000))
        assert dumbbell_digests(run) == GOLDEN_DUMBBELL[kind]

    def test_jitter_stream_identical(self):
        """Raw-API check: seeded jitter draws land at identical times."""
        events = drive_jitter(dumbbell_view(FlatRate(10e6), 30_000, seed=3))
        assert _json_sha(events) == GOLDEN_JITTER

    def test_facade_exposes_graph(self):
        aqm = TailDrop(60_000)
        net = dumbbell_topology(FlatRate(24e6), aqm).view(("snd", "rcv"))
        assert list(net.topology.nodes) == ["snd", "rcv"]
        assert len(net.topology.links) == 1
        assert net.topology.links[0].aqm is aqm


# ---------------------------------------------------------------------------
# topology construction and routing
# ---------------------------------------------------------------------------


class TestTopologyBasics:
    def test_unknown_node_in_link_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError, match="unknown node"):
            topo.add_link("a", "b", FlatRate(1e6), TailDrop(10_000))

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError, match="already"):
            topo.add_node("a")

    def test_unattached_send_raises_value_error(self):
        topo = dumbbell_topology(FlatRate(1e6), TailDrop(10_000))
        with pytest.raises(ValueError, match="flow 9 is not attached"):
            topo.send_data(Packet(flow_id=9, seq=0))
        with pytest.raises(ValueError, match="flow 9 is not attached"):
            topo.send_ack(Packet(flow_id=9, seq=0, is_ack=True))

    def test_path_must_follow_links(self):
        topo = parking_lot_topology(n_segments=2)
        with pytest.raises(ValueError, match="no link"):
            topo.view(("r0", "r2"))  # no direct r0 -> r2 link

    def test_detached_flow_orphans_in_flight(self):
        topo = dumbbell_topology(FlatRate(10e6), TailDrop(30_000))
        got = []
        view = topo.view(("snd", "rcv"))
        view.attach_flow(
            1, PathConfig(min_rtt=0.05), lambda p: got.append(p.seq),
            lambda p: None,
        )
        for i in range(4):
            view.send_data(Packet(flow_id=1, seq=i))
        topo.loop.run_until(0.001)  # serialized, still propagating
        topo.detach_flow(1)
        topo.loop.run_until(1.0)
        assert got == []
        assert topo.orphaned >= 1

    def test_min_rtt_matches_path_config(self):
        """The per-flow access delay tops up graph propagation to min_rtt."""
        topo = parking_lot_topology(n_segments=3, min_rtt=0.04)
        flow = Flow(topo.view(("r0", "r1", "r2", "r3")), flow_id=5,
                    scheme="cubic", min_rtt=0.1)
        assert topo.min_rtt(5) == pytest.approx(0.1)

    def test_link_flap_drops_then_recovers(self):
        topo = dumbbell_topology(FlatRate(10e6), TailDrop(30_000))
        link = topo.links[0]
        link.schedule_flap(at=0.5, down_for=0.5)
        flow = Flow(topo.view(("snd", "rcv")), flow_id=1, scheme="cubic",
                    min_rtt=0.04)
        flow.start()
        topo.loop.run_until(3.0)
        flow.sample()
        assert link.drops_down > 0  # packets died in the down window
        assert link.up  # came back
        assert flow.sender.snd_una > 0  # and traffic resumed

    def test_random_loss_deterministic_per_seed(self):
        def run(seed):
            topo = Topology(seed=seed)
            topo.add_node("a")
            topo.add_node("b")
            topo.add_link("a", "b", FlatRate(10e6), TailDrop(30_000),
                          loss=0.05)
            flow = Flow(topo.view(("a", "b")), flow_id=1, scheme="newreno",
                        min_rtt=0.04)
            flow.start()
            topo.loop.run_until(3.0)
            return topo.links[0].drops_loss, flow.sender.snd_una

        assert run(1) == run(1)
        assert run(1)[0] > 0
        assert run(1) != run(2)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


class TestFactories:
    def test_make_topology_dispatch(self):
        for cls in TOPOLOGY_CLASSES:
            assert make_topology(cls).links  # builds and has links
        assert make_topology("parking-lot")  # dash alias
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("star")

    def test_describe_mentions_every_link(self):
        out = describe_topology("proxy_split")
        assert "wan" in out and "lan" in out and "main path" in out

    def test_describe_pins_discipline_kwargs(self):
        out = describe_topology("incast", aqm="fq_codel")
        assert "FQCoDel" in out
        assert "n_queues=32" in out and "quantum=1514" in out

    def test_describe_pins_ecn_threshold(self):
        out = describe_topology("incast", ecn_threshold_bytes=30_000)
        assert "ecn_threshold_bytes=30000" in out

    def test_incast_rejects_threshold_on_loss_only_aqm(self):
        with pytest.raises(ValueError):
            incast_topology(n_senders=2, aqm="codel", ecn_threshold_bytes=30_000)

    def test_link_stats_surface(self):
        topo = incast_topology(n_senders=2, aqm="fq_codel")
        stats = topo.link_stats()
        assert len(stats) == len(topo.links)
        row = stats[0]
        for key in ("name", "aqm", "drops", "ecn_marks", "enqueues",
                    "queue_bytes", "stalls"):
            assert key in row
        assert row["ecn_marks"] == 0 and row["stalls"] == 0

    def test_incast_shape(self):
        topo = incast_topology(n_senders=4)
        assert sum(1 for n in topo.nodes.values() if n.kind == "host") == 5
        egress = topo.link_between("sw", "rcv")
        access = topo.link_between("s0", "sw")
        assert access.rate.rate_at(0.0) > egress.rate.rate_at(0.0)

    def test_proxy_split_generic_knobs(self):
        topo = make_topology("proxy_split", bw_mbps=10.0, min_rtt=0.1,
                             buffer_bytes=50_000)
        wan = topo.link_between("snd", "proxy")
        lan = topo.link_between("proxy", "rcv")
        assert wan.rate.rate_at(0.0) == pytest.approx(10e6)
        assert lan.rate.rate_at(0.0) == pytest.approx(40e6)
        assert wan.prop_delay + lan.prop_delay == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# parking-lot physics: closed-form shares and queue placement
# ---------------------------------------------------------------------------


def _run_parking_lot(duration=20.0):
    """One end-to-end cubic vs one cross cubic per segment, (48, 12, 48)."""
    topo = parking_lot_topology(
        n_segments=3, bw_per_segment=(48.0, 12.0, 48.0), min_rtt=0.04,
        buffer_bytes=120_000,
    )
    main = Flow(topo.view(("r0", "r1", "r2", "r3")), flow_id=0,
                scheme="cubic", min_rtt=0.04)
    crosses = [
        Flow(topo.view((f"r{i}", f"r{i+1}")), flow_id=10 + i,
             scheme="cubic", min_rtt=0.04)
        for i in range(3)
    ]
    flows = [main] + crosses
    for flow in flows:
        flow.start()
    queue_samples = {i: [] for i in range(3)}
    t = 0.0
    while t < duration:
        t += 0.1
        topo.loop.run_until(t)
        for flow in flows:
            flow.sample()
        for i, link in enumerate(topo.links):
            queue_samples[i].append(link.queue_delay())
    return topo, [f.stats() for f in flows], queue_samples


@pytest.fixture(scope="module")
def parking_lot_run():
    return _run_parking_lot()


class TestParkingLotFairness:
    """Closed-form: seg1 (12 Mbps) is the only shared bottleneck for the
    end-to-end flow, so main and the middle cross each get ~6 Mbps while
    the outer crosses take the rest of their 48 Mbps segments (~42)."""

    def test_middle_bottleneck_split(self, parking_lot_run):
        _, stats, _ = parking_lot_run
        main, mid_cross = stats[0], stats[2]
        for s in (main, mid_cross):
            assert 3.0e6 < s.avg_throughput_bps < 9.0e6
        # together they fill the 12 Mbps segment
        total = main.avg_throughput_bps + mid_cross.avg_throughput_bps
        assert total > 0.85 * 12e6

    def test_outer_crosses_take_residual(self, parking_lot_run):
        _, stats, _ = parking_lot_run
        for s in (stats[1], stats[3]):
            assert s.avg_throughput_bps > 30e6

    def test_jain_matches_closed_form(self, parking_lot_run):
        """Ideal shares (6, 42, 6, 42) Mbps give Jain = 96^2/(4*3600) = 0.64."""
        _, stats, _ = parking_lot_run
        jain = jain_index([s.avg_throughput_bps for s in stats])
        assert 0.5 < jain < 0.8

    def test_queue_delay_concentrates_at_the_bottleneck(self, parking_lot_run):
        """Cross cubics keep bytes queued everywhere, but queueing *delay*
        (bytes/rate) concentrates on the slow middle segment: the same
        120 KB standing queue costs 80 ms at 12 Mbps vs 20 ms at 48."""
        _, _, queues = parking_lot_run
        mean = {i: sum(q) / len(q) for i, q in queues.items()}
        assert mean[1] > 3 * mean[0]
        assert mean[1] > 3 * mean[2]

    def test_per_segment_drops_accounted(self, parking_lot_run):
        topo, _, _ = parking_lot_run
        assert topo.links[1].drops > 0  # cubic probes past the 12 Mbps pipe


class TestIncastBehaviour:
    def test_synchronized_senders_overrun_shallow_egress(self):
        topo = incast_topology(n_senders=8, bw_mbps=48.0, min_rtt=0.01,
                               buffer_bytes=45_000)
        flows = [
            Flow(topo.view((f"s{i}", "sw", "rcv")), flow_id=i,
                 scheme="cubic", min_rtt=0.01)
            for i in range(8)
        ]
        for flow in flows:
            flow.start()
        topo.loop.run_until(5.0)
        for flow in flows:
            flow.sample()
        egress = topo.link_between("sw", "rcv")
        assert egress.drops > 0
        total = sum(f.stats().avg_throughput_bps for f in flows)
        assert total > 0.6 * 48e6  # the fan-in still fills the egress
