"""TCP-like reliable transport with pluggable congestion control.

This package replaces the Linux kernel datapath the paper builds on. It
provides:

- :class:`~repro.tcp.socket.TcpSender` / :class:`~repro.tcp.socket.TcpReceiver`
  — a seq/ack byte-stream with RFC 6298 RTT estimation, dupACK fast
  retransmit, RTO recovery, and optional pacing.
- :class:`~repro.tcp.cc_base.CongestionControl` — the hook interface
  mirroring the kernel's ``tcp_congestion_ops`` that every scheme implements.
- :mod:`~repro.tcp.schemes` — 17 re-implemented CC schemes: the 13 kernel
  heuristics forming Sage's pool plus the delay-based league (Copa, LEDBAT,
  C2TCP, Sprout).
- :class:`~repro.tcp.flow.Flow` — sender+receiver bound to a
  :class:`~repro.netsim.topo.PathView`, with throughput/delay monitors.
"""

from repro.tcp.cc_base import CongestionControl, register_scheme, make_scheme, scheme_names
from repro.tcp.socket import TcpSender, TcpReceiver, CA_OPEN, CA_RECOVERY, CA_LOSS
from repro.tcp.flow import Flow, FlowStats

# Importing the schemes package populates the registry.
import repro.tcp.schemes  # noqa: F401  (side-effect import)

__all__ = [
    "CongestionControl",
    "register_scheme",
    "make_scheme",
    "scheme_names",
    "TcpSender",
    "TcpReceiver",
    "CA_OPEN",
    "CA_RECOVERY",
    "CA_LOSS",
    "Flow",
    "FlowStats",
]
