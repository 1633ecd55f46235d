"""Tests for Mahimahi trace-file interoperability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.mahimahi import (
    mahimahi_from_rate,
    parse_mahimahi_lines,
    trace_from_mahimahi,
    write_mahimahi,
)
from repro.netsim.packet import MSS_BYTES


class TestParsing:
    def test_basic(self):
        assert parse_mahimahi_lines(["0", "1", "1", "5"]) == [0, 1, 1, 5]

    def test_skips_comments_and_blanks(self):
        assert parse_mahimahi_lines(["# hdr", "", "3"]) == [3]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mahimahi_lines(["abc"])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_mahimahi_lines(["-1"])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            parse_mahimahi_lines(["5", "1"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_mahimahi_lines([])


class TestConversion:
    def test_constant_trace_rate(self):
        # one packet per ms = 12 Mbps
        lines = [str(t) for t in range(1000)]
        trace = trace_from_mahimahi(lines, slot=0.1)
        assert trace.rate_at(0.05) == pytest.approx(MSS_BYTES * 8 * 1000, rel=0.01)

    def test_bursty_trace(self):
        # 5 opportunities at t=0, nothing for 99 ms
        lines = ["0", "0", "0", "0", "0", "99"]
        trace = trace_from_mahimahi(lines, slot=0.1)
        expected = 6 * MSS_BYTES * 8 / 0.1
        assert trace.rate_at(0.0) == pytest.approx(expected)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cell.trace"
        rates = [12e6, 24e6, 6e6, 12e6]
        write_mahimahi(path, rates, slot=0.1)
        trace = trace_from_mahimahi(path, slot=0.1)
        # long-run average preserved within packet quantization
        assert trace.mean_rate(0.4) == pytest.approx(np.mean(rates), rel=0.15)

    def test_rate_to_lines_preserves_long_run_volume(self):
        rates = [10e6] * 20
        lines = mahimahi_from_rate(rates, slot=0.1)
        total_bits = len(lines) * MSS_BYTES * 8
        assert total_bits == pytest.approx(10e6 * 2.0, rel=0.05)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            mahimahi_from_rate([-1.0])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            mahimahi_from_rate([0.0, 0.0])

    @given(
        rate=st.floats(1e6, 50e6),
        n_slots=st.integers(5, 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_rate_property(self, rate, n_slots):
        lines = mahimahi_from_rate([rate] * n_slots, slot=0.1)
        trace = trace_from_mahimahi(lines, slot=0.1)
        measured = trace.mean_rate(n_slots * 0.1)
        assert measured == pytest.approx(rate, rel=0.25)


class TestSimulationWithTrace:
    def test_flow_over_mahimahi_trace(self):
        from repro.netsim.aqm import TailDrop
        from repro.netsim.engine import EventLoop
        from repro.netsim.topo import dumbbell_topology
        from repro.tcp.flow import Flow

        lines = mahimahi_from_rate([12e6] * 50, slot=0.1)
        trace = trace_from_mahimahi(lines, slot=0.1)
        loop = EventLoop()
        net = dumbbell_topology(trace, TailDrop(120_000), loop=loop).view(("snd", "rcv"))
        flow = Flow(net, 0, "cubic", min_rtt=0.04)
        flow.start()
        loop.run_until(4.0)
        thr = flow.receiver.total_bytes * 8 / 4.0
        assert thr > 0.6 * 12e6
