"""Unit tests for the AQM disciplines."""

import pytest

from repro.netsim.aqm import (
    BoDe,
    CoDel,
    FQCoDel,
    HeadDrop,
    LearnedECN,
    PIE,
    TailDrop,
    make_aqm,
)
from repro.netsim.packet import Packet


def pkt(seq=0, size=1500, flow=0, ect=False):
    p = Packet(flow_id=flow, seq=seq, size=size)
    p.ect = ect
    return p


def jain(values):
    total = sum(values)
    return total * total / (len(values) * sum(v * v for v in values))


class TestTailDrop:
    def test_admits_until_full(self):
        q = TailDrop(capacity_bytes=3000)
        assert q.enqueue(pkt(0), 0.0)
        assert q.enqueue(pkt(1), 0.0)
        assert not q.enqueue(pkt(2), 0.0)
        assert q.drops == 1
        assert len(q) == 2

    def test_dequeue_fifo(self):
        q = TailDrop(capacity_bytes=10_000)
        for i in range(3):
            q.enqueue(pkt(i), 0.0)
        assert [q.dequeue(0.0).seq for _ in range(3)] == [0, 1, 2]

    def test_dequeue_empty_returns_none(self):
        assert TailDrop(1500).dequeue(0.0) is None

    def test_bytes_accounting(self):
        q = TailDrop(capacity_bytes=10_000)
        q.enqueue(pkt(0, size=1000), 0.0)
        q.enqueue(pkt(1, size=500), 0.0)
        assert q.bytes_queued == 1500
        q.dequeue(0.0)
        assert q.bytes_queued == 500

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TailDrop(0)


class TestHeadDrop:
    def test_evicts_oldest_on_overflow(self):
        q = HeadDrop(capacity_bytes=3000)
        q.enqueue(pkt(0), 0.0)
        q.enqueue(pkt(1), 0.0)
        assert q.enqueue(pkt(2), 0.0)  # arrival admitted, head dropped
        assert q.drops == 1
        assert q.dequeue(0.0).seq == 1

    def test_queue_never_exceeds_capacity(self):
        q = HeadDrop(capacity_bytes=4500)
        for i in range(10):
            q.enqueue(pkt(i), 0.0)
        assert q.bytes_queued <= 4500


class TestCoDel:
    def test_no_drops_below_target(self):
        q = CoDel(capacity_bytes=100_000, target=0.005, interval=0.1)
        now = 0.0
        for i in range(50):
            q.enqueue(pkt(i), now)
            got = q.dequeue(now + 0.001)  # sojourn 1 ms < 5 ms target
            assert got is not None
            now += 0.002
        assert q.drops == 0

    def test_drops_after_sustained_delay(self):
        q = CoDel(capacity_bytes=1_000_000, target=0.005, interval=0.05)
        # Fill the queue, then dequeue slowly so sojourn stays high.
        for i in range(200):
            q.enqueue(pkt(i), 0.0)
        now = 0.2
        delivered = 0
        for _ in range(200):
            got = q.dequeue(now)
            if got is not None:
                delivered += 1
            now += 0.01
        assert q.drops > 0
        assert delivered > 0  # it does not drop everything

    def test_hard_overflow_still_tail_drops(self):
        q = CoDel(capacity_bytes=1500)
        assert q.enqueue(pkt(0), 0.0)
        assert not q.enqueue(pkt(1), 0.0)


class TestPIE:
    def test_no_drops_when_queue_small(self):
        q = PIE(capacity_bytes=100_000)
        q.current_rate_bps = 10e6
        accepted = sum(q.enqueue(pkt(i), i * 0.001) for i in range(3))
        assert accepted == 3

    def test_drop_probability_rises_with_standing_queue(self):
        q = PIE(capacity_bytes=10_000_000, target=0.005)
        q.current_rate_bps = 1e6  # slow link -> big queueing delay
        now = 0.0
        for i in range(2000):
            q.enqueue(pkt(i), now)
            now += 0.005
            if i % 10 == 0 and len(q):
                q.dequeue(now)
        assert q._p > 0.0
        assert q.drops > 0

    def test_deterministic_given_seed(self):
        def run(seed):
            q = PIE(capacity_bytes=1_000_000, seed=seed)
            q.current_rate_bps = 1e6
            now = 0.0
            outcome = []
            for i in range(500):
                outcome.append(q.enqueue(pkt(i), now))
                now += 0.005
            return outcome

        assert run(7) == run(7)


class TestBoDe:
    def test_bounds_delay(self):
        q = BoDe(capacity_bytes=10_000_000, delay_bound=0.02)
        q.current_rate_bps = 12e6  # 0.02 s == 30 KB at 12 Mbps
        admitted = 0
        for i in range(100):
            if q.enqueue(pkt(i), 0.0):
                admitted += 1
        assert q.bytes_queued * 8.0 / 12e6 <= 0.02 + 1e-9
        assert admitted < 100

    def test_admits_when_under_bound(self):
        q = BoDe(capacity_bytes=1_000_000, delay_bound=1.0)
        q.current_rate_bps = 100e6
        assert q.enqueue(pkt(0), 0.0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("taildrop", TailDrop),
            ("tdrop", TailDrop),
            ("headdrop", HeadDrop),
            ("hdrop", HeadDrop),
            ("codel", CoDel),
            ("pie", PIE),
            ("bode", BoDe),
        ],
    )
    def test_make_aqm(self, name, cls):
        assert isinstance(make_aqm(name, 10_000), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_aqm("red", 10_000)

    def test_case_insensitive(self):
        assert isinstance(make_aqm("CoDel", 10_000), CoDel)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fq_codel", FQCoDel),
            ("fqcodel", FQCoDel),
            ("learned_ecn", LearnedECN),
        ],
    )
    def test_intelligent_queue_registry(self, name, cls):
        assert isinstance(make_aqm(name, 30_000), cls)

    def test_checkpoint_suffix_only_for_learned_ecn(self):
        with pytest.raises(ValueError, match="learned_ecn"):
            make_aqm("codel@/tmp/model.npz", 30_000)


class TestEcnCounters:
    def test_all_disciplines_expose_ecn_marks(self):
        for name in ("taildrop", "headdrop", "codel", "pie", "bode", "fq_codel"):
            q = make_aqm(name, 30_000)
            assert q.ecn_marks == 0

    def test_taildrop_step_marks_ect_above_threshold(self):
        q = TailDrop(capacity_bytes=30_000, ecn_threshold_bytes=3000)
        q.enqueue(pkt(0, ect=True), 0.0)
        q.enqueue(pkt(1, ect=True), 0.0)
        assert q.ecn_marks == 0
        assert q.enqueue(pkt(2, ect=True), 0.0)  # backlog 3000 >= threshold
        assert q.ecn_marks == 1
        assert q.drops == 0

    def test_taildrop_does_not_mark_non_ect(self):
        q = TailDrop(capacity_bytes=30_000, ecn_threshold_bytes=1500)
        q.enqueue(pkt(0), 0.0)
        q.enqueue(pkt(1), 0.0)
        assert q.ecn_marks == 0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            TailDrop(30_000, ecn_threshold_bytes=0)


class TestFQCoDel:
    def test_sparse_flow_priority_closed_form(self):
        """RFC 8290 new-queue credit: a sparse arrival overtakes bulk backlog.

        The bulk flow holds its first new-flow quantum (1514 B covers one
        1500 B packet plus change, so two dequeues exhaust it). Once spent,
        the bulk queue rotates to the old list — and a freshly-arrived sparse
        flow lands on the new list, which DRR serves first.
        """
        q = FQCoDel(capacity_bytes=200_000, n_queues=32)
        for i in range(20):
            q.enqueue(pkt(i, size=1500, flow=0), 0.0)
        # Burn the bulk flow's new-queue quantum (1514 - 2*1500 < 0).
        assert q.dequeue(0.0).flow_id == 0
        assert q.dequeue(0.0).flow_id == 0
        q.enqueue(pkt(0, size=200, flow=1), 0.0)
        nxt = q.dequeue(0.0)
        assert nxt.flow_id == 1  # sparse packet jumps the 18-packet backlog
        assert q.dequeue(0.0).flow_id == 0  # then bulk resumes

    def test_drr_fairness_across_bulk_flows(self):
        """Equal-size bulk flows drain at equal rates: Jain index ~= 1."""
        q = FQCoDel(capacity_bytes=1_000_000, n_queues=32)
        n_flows, per_flow = 4, 30
        for i in range(per_flow):
            for f in range(n_flows):
                q.enqueue(pkt(i, size=1500, flow=f), 0.0)
        served = {f: 0 for f in range(n_flows)}
        for _ in range(n_flows * per_flow // 2):  # drain half the backlog
            got = q.dequeue(0.0)
            served[got.flow_id] += 1
        assert jain(list(served.values())) > 0.99

    def test_overflow_evicts_from_fattest_queue(self):
        q = FQCoDel(capacity_bytes=6000, n_queues=32)
        for i in range(4):
            q.enqueue(pkt(i, size=1500, flow=0), 0.0)  # buffer now full
        assert q.enqueue(pkt(0, size=200, flow=1), 0.0)  # sparse still admitted
        assert q.drops == 1  # the eviction came out of flow 0's backlog
        flows = []
        while True:
            got = q.dequeue(0.0)
            if got is None:
                break
            flows.append(got.flow_id)
        assert flows.count(0) == 3  # one bulk packet was evicted
        assert flows.count(1) == 1

    def test_ect_traffic_marked_not_dropped(self):
        """Under sustained delay, CoDel signals land as CE marks on ECT flows."""
        q = FQCoDel(capacity_bytes=1_000_000, target=0.005, interval=0.05)
        for i in range(200):
            q.enqueue(pkt(i, ect=True), 0.0)
        now = 0.2
        delivered = 0
        for _ in range(200):
            if q.dequeue(now) is not None:
                delivered += 1
            now += 0.01
        assert q.ecn_marks > 0
        assert q.drops == 0
        assert delivered == 200  # every signalled packet survived as a mark

    def test_non_ect_traffic_dropped_under_sustained_delay(self):
        q = FQCoDel(capacity_bytes=1_000_000, target=0.005, interval=0.05)
        for i in range(200):
            q.enqueue(pkt(i), 0.0)
        now = 0.2
        for _ in range(200):
            q.dequeue(now)
            now += 0.01
        assert q.drops > 0
        assert q.ecn_marks == 0

    def test_len_counts_all_subqueues(self):
        q = FQCoDel(capacity_bytes=100_000)
        for f in range(5):
            q.enqueue(pkt(0, flow=f), 0.0)
        assert len(q) == 5
        q.dequeue(0.0)
        assert len(q) == 4

    def test_params_pinned(self):
        q = FQCoDel(capacity_bytes=100_000, n_queues=16, quantum=3000)
        p = q.params()
        assert p["n_queues"] == 16 and p["quantum"] == 3000

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FQCoDel(100_000, n_queues=0)
        with pytest.raises(ValueError):
            FQCoDel(100_000, quantum=0)


class TestLearnedECNFallback:
    def test_threshold_mode_marks_ect(self):
        q = LearnedECN(capacity_bytes=15_000, threshold_frac=0.35)
        now = 0.0
        for i in range(6):
            q.enqueue(pkt(i, ect=True), now)
            now += 0.001
        # occupancy crosses 0.35 after ~4 packets; later ECT arrivals marked
        assert q.ecn_marks > 0
        assert q.drops == 0

    def test_threshold_mode_drops_non_ect(self):
        q = LearnedECN(capacity_bytes=15_000, threshold_frac=0.35)
        now = 0.0
        for i in range(8):
            q.enqueue(pkt(i), now)
            now += 0.001
        assert q.drops > 0
        assert q.ecn_marks == 0

    def test_seed_deterministic(self):
        def run(seed):
            q = LearnedECN(capacity_bytes=15_000, seed=seed)
            now = 0.0
            outcome = []
            for i in range(50):
                outcome.append(q.enqueue(pkt(i, ect=(i % 2 == 0)), now))
                if i % 3 == 0:
                    q.dequeue(now + 0.0005)
                now += 0.001
            return outcome, q.drops, q.ecn_marks

        assert run(11) == run(11)
        # And the LCG state actually matters: mark/drop totals move with seed
        # only when decisions are probabilistic; threshold mode is invariant.
        assert run(11) == run(99)  # fallback is a deterministic step

    def test_rejects_bad_threshold_frac(self):
        with pytest.raises(ValueError):
            LearnedECN(15_000, threshold_frac=0.0)

    def test_params_report_mode(self):
        q = LearnedECN(capacity_bytes=15_000)
        assert q.params()["mode"] == "threshold"


class TestPIEEdgeCases:
    def test_zero_rate_link_delay_estimate_is_finite(self):
        q = PIE(capacity_bytes=100_000)
        q.current_rate_bps = 0.0
        q.enqueue(pkt(0), 0.0)
        est = q.queue_delay_estimate()
        assert est == pytest.approx(1500 * 8.0 / 1e3)  # floor rate, not inf

    def test_zero_rate_link_still_updates_probability(self):
        q = PIE(capacity_bytes=10_000_000)
        q.current_rate_bps = 0.0
        now = 0.0
        for i in range(500):
            q.enqueue(pkt(i), now)
            now += 0.005
        assert 0.0 <= q._p <= 1.0  # no NaN/inf poisoning the controller

    def test_burst_larger_than_capacity(self):
        q = PIE(capacity_bytes=4500)
        admitted = sum(q.enqueue(pkt(i), 0.0) for i in range(10))
        assert admitted == 3
        assert q.drops == 7
        assert q.bytes_queued <= q.capacity_bytes

    def test_queue_delay_estimate_empty_queue(self):
        q = PIE(capacity_bytes=100_000)
        assert q.queue_delay_estimate() == 0.0


class TestBoDeEdgeCases:
    def test_zero_rate_link_uses_floor_rate(self):
        q = BoDe(capacity_bytes=1_000_000, delay_bound=0.02)
        q.current_rate_bps = 0.0
        # At the 1 kbps floor even one packet projects way over the bound.
        assert not q.enqueue(pkt(0), 0.0)
        assert q.drops == 1

    def test_burst_larger_than_capacity(self):
        q = BoDe(capacity_bytes=3000, delay_bound=10.0)
        q.current_rate_bps = 100e6
        admitted = sum(q.enqueue(pkt(i), 0.0) for i in range(10))
        assert admitted == 2
        assert q.bytes_queued <= q.capacity_bytes

    def test_queue_delay_estimate_empty_queue(self):
        q = BoDe(capacity_bytes=100_000)
        assert q.queue_delay_estimate() == 0.0
