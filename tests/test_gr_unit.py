"""Tests for the General Representation unit (Table 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.gr_unit import (
    GRUnit,
    LOSS_INFLIGHT_INDICES,
    MINMAX_INDICES,
    RTTVAR_RATE_INDICES,
    STATE_DIM,
    STATE_FIELDS,
    WindowConfig,
    normalize_state,
)
from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.topo import dumbbell_topology
from repro.netsim.traces import FlatRate
from repro.tcp.flow import Flow


def make_gr(windows=None, bw=12e6, rtt=0.04):
    loop = EventLoop()
    net = dumbbell_topology(FlatRate(bw), TailDrop(60_000), loop=loop).view(("snd", "rcv"))
    flow = Flow(net, 0, "cubic", min_rtt=rtt)
    flow.start()
    return loop, flow, GRUnit(flow.sender, windows=windows)


class TestTable1Layout:
    def test_exactly_69_fields(self):
        assert STATE_DIM == 69
        assert len(STATE_FIELDS) == 69

    def test_field_order_matches_table1(self):
        assert STATE_FIELDS[0] == "srtt"
        assert STATE_FIELDS[1] == "rttvar"
        assert STATE_FIELDS[2] == "thr"
        assert STATE_FIELDS[3] == "ca_state"
        assert STATE_FIELDS[4] == "rtt_s.avg"
        assert STATE_FIELDS[12] == "rtt_l.max"
        assert STATE_FIELDS[13] == "thr_s.avg"
        assert STATE_FIELDS[58] == "time_delta"
        assert STATE_FIELDS[68] == "pre_act"

    def test_ablation_index_groups(self):
        # min/max stats: 2 of every 3 in each of the six 9-field blocks
        assert len(MINMAX_INDICES) == 36
        # rows 23-40 in the paper's 1-based numbering: 18 fields
        assert len(RTTVAR_RATE_INDICES) == 18
        # rows 41-58: 18 fields
        assert len(LOSS_INFLIGHT_INDICES) == 18

    def test_removing_minmax_leaves_33(self):
        # the paper's "no Min/Max" ablation keeps a 33-element vector
        assert STATE_DIM - len(MINMAX_INDICES) == 33


class TestGRUnitSampling:
    def test_state_shape_and_finiteness(self):
        loop, flow, gr = make_gr()
        loop.run_until(0.5)
        state, action = gr.tick()
        assert state.shape == (STATE_DIM,)
        assert np.all(np.isfinite(state))
        assert 1 / 3 <= action <= 3

    def test_action_reflects_cwnd_ratio(self):
        loop, flow, gr = make_gr()
        loop.run_until(0.1)
        gr.tick()
        before = flow.sender.cwnd
        flow.sender.cwnd = before * 1.5
        _, action = gr.tick()
        assert action == pytest.approx(1.5)

    def test_action_clipped(self):
        loop, flow, gr = make_gr()
        loop.run_until(0.1)
        gr.tick()
        flow.sender.cwnd *= 100.0
        _, action = gr.tick()
        assert action == pytest.approx(3.0)

    def test_pre_act_carried_to_next_state(self):
        loop, flow, gr = make_gr()
        loop.run_until(0.1)
        _, a1 = gr.tick()
        s2, _ = gr.tick()
        assert s2[STATE_FIELDS.index("pre_act")] == pytest.approx(a1)

    def test_time_delta_normalized_to_min_rtt(self):
        loop, flow, gr = make_gr(rtt=0.04)
        loop.run_until(0.5)
        gr.tick()
        loop.run_until(0.52)  # 20 ms later = 0.5 min RTT
        s, _ = gr.tick()
        assert s[STATE_FIELDS.index("time_delta")] == pytest.approx(0.5, rel=0.2)

    def test_window_stats_ordering(self):
        loop, flow, gr = make_gr()
        t = 0.0
        state = None
        for _ in range(50):
            t += 0.02
            loop.run_until(t)
            state, _ = gr.tick()
        for prefix in ("rtt", "thr"):
            for w in ("s", "m", "l"):
                avg = state[STATE_FIELDS.index(f"{prefix}_{w}.avg")]
                mn = state[STATE_FIELDS.index(f"{prefix}_{w}.min")]
                mx = state[STATE_FIELDS.index(f"{prefix}_{w}.max")]
                assert mn <= avg <= mx

    def test_small_window_reacts_faster_than_large(self):
        loop, flow, gr = make_gr(windows=WindowConfig(small=2, medium=10, large=50))
        t = 0.0
        for _ in range(60):
            t += 0.02
            loop.run_until(t)
            state, _ = gr.tick()
        srtt_small = state[STATE_FIELDS.index("rtt_s.avg")]
        srtt_large = state[STATE_FIELDS.index("rtt_l.avg")]
        # cubic fills the buffer: recent RTTs exceed the long-run average
        assert srtt_small >= srtt_large * 0.9


class TestWindowConfig:
    def test_defaults_are_paper_values(self):
        w = WindowConfig()
        assert (w.small, w.medium, w.large) == (10, 200, 1000)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            WindowConfig(small=100, medium=10, large=1000)
        with pytest.raises(ValueError):
            WindowConfig(small=0)


class TestNormalization:
    def test_output_bounded(self):
        raw = np.full(STATE_DIM, 1e9)
        out = normalize_state(raw)
        assert np.all(out <= 10.0)

    def test_typical_values_order_one(self):
        loop, flow, gr = make_gr()
        t = 0.0
        for _ in range(30):
            t += 0.02
            loop.run_until(t)
            state, _ = gr.tick()
        norm = normalize_state(state)
        assert np.abs(norm).max() <= 10.0
        assert np.abs(norm).mean() < 5.0

    @given(
        scale=st.floats(0.1, 100.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_normalize_is_linear(self, scale):
        raw = np.ones(STATE_DIM)
        a = normalize_state(raw)
        b = normalize_state(raw * scale)
        mask = np.abs(b) < 10.0  # away from the clip
        np.testing.assert_allclose(b[mask], a[mask] * scale, rtol=1e-9)

    def test_batch_normalization(self):
        raw = np.ones((5, STATE_DIM))
        out = normalize_state(raw)
        assert out.shape == (5, STATE_DIM)
