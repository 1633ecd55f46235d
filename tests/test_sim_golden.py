"""Golden digests of the simulator's output, recorded before the hot-path rework.

Every value below was computed at commit d1aa4c5 (closure-per-event
``EventLoop``, cancel + ``call_later`` RTO) and must never change: a faster
simulator has to emit the same packets in the same order, so the trajectory
arrays, link counters and FCT summaries are compared bit for bit. To
re-record after an *intended* behaviour change, run this file as a script
(``PYTHONPATH=src python tests/test_sim_golden.py``) and paste its output.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.collector.environments import training_environments
from repro.collector.rollout import collect_trajectory
from repro.netsim import incast_topology, parking_lot_topology
from repro.netsim.aqm import TailDrop
from repro.netsim.engine import EventLoop
from repro.netsim.network import Network, PathConfig
from repro.netsim.traces import FlatRate
from repro.tcp.cc_base import make_scheme
from repro.tcp.socket import TcpReceiver, TcpSender
from repro.workload import WorkloadConfig, run_workload

#: cubic: ack-clocked loss-based; bbr2: the pacing path; vegas: delay-based;
#: dctcp runs with step marking armed, so the ECN echo path is covered
SCHEMES = ("cubic", "bbr2", "vegas", "dctcp")

CHURN_CELLS = {
    "pl_taildrop": lambda: parking_lot_topology(n_segments=3, bw_mbps=48, aqm="taildrop"),
    "incast_fqcodel": lambda: incast_topology(n_senders=8, bw_mbps=48, aqm="fq_codel"),
    "pl_fqcodel": lambda: parking_lot_topology(n_segments=3, bw_mbps=48, aqm="fq_codel"),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _json_sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def rollout_digest(env_index: int, scheme: str) -> str:
    env = training_environments("mini")[env_index]
    if scheme == "dctcp":
        env = dataclasses.replace(env, ecn_threshold_bdp=0.5)
    result = collect_trajectory(env, scheme)
    return _sha(result.states, result.actions, result.rewards)


def delayed_ack_digest() -> str:
    loop = EventLoop()
    net = Network(loop, FlatRate(4e6), TailDrop(9000))
    receiver = TcpReceiver(0, net, delayed_acks=True)
    sender = TcpSender(0, net, make_scheme("cubic"))
    net.attach_flow(0, PathConfig(min_rtt=0.04),
                    data_sink=receiver.on_data, ack_sink=sender.on_ack)
    sender.start()
    trace = []
    for k in range(1, 101):
        loop.run_until(0.05 * k)
        trace.append([
            sender.cwnd, sender.snd_una, sender.snd_nxt, sender.retransmits,
            sender.lost, sender.srtt, sender.rto, receiver.acks_sent,
            receiver.rcv_next,
        ])
    sender.stop()
    return _sha(np.array(trace, dtype=np.float64))


def churn_digests(cell: str) -> dict:
    config = WorkloadConfig(
        arrival_rate=400.0, duration=2.5, mean_size_bytes=15000, seed=0
    )
    result = run_workload(CHURN_CELLS[cell](), config, scheme="cubic", drain=10.0)
    return {
        "schedule": result.digest,
        "links": _json_sha(result.link_stats),
        "fct": _json_sha(result.summary.to_json()),
    }


GOLDEN_ROLLOUTS = {
    (0, 'cubic'): '0a383a82076b7f61b87ad41add2a37538d6f12a8dcc7d37de9452eb31ca2713b',
    (0, 'bbr2'): '434726c57decbf4674c75908785fb04a8f60d20efa0a6719fe0cf9a9973f0732',
    (0, 'vegas'): 'a242678a86030708bcb6604ca789af41c17471d0c647bf062ca21448278296d5',
    (0, 'dctcp'): '72c6fc5c7c493d4b487ef4955cdac09cd6646ea2ba6cff6e263e965dd15cb46d',
    (1, 'cubic'): '416dc806e2b338f4dbc278b2ddc1a74b58a7224c26012dbb236f190f34ecba27',
    (1, 'bbr2'): 'cef5c01cb11cd101c0cdf1ad8ec0f326c07610d84a620cf66e3f1a9a1a89c4c4',
    (1, 'vegas'): 'a8af74c7aa3fc608c3a627ace3dbf8e7cbc933be5c5889dd85c277a07e3dc74e',
    (1, 'dctcp'): '807107638f11ff520a30092f127bd4289b95c5e51c9dbbaf71d1b3d28caacc5e',
    (2, 'cubic'): '794d05bbb20fe4db2e08990e2f6d706a134c3f723e4cb595a6052139eeec7ff8',
    (2, 'bbr2'): 'ec1945a5d06157c0e6dce4887cd19f680b73b094ef7445d499847d89f0b617d5',
    (2, 'vegas'): '238f7f42d4dc08d4550571b811c1f0714b6fa8e65e4f9115a823aba33a65cfce',
    (2, 'dctcp'): '4d876eb0560a5f607bb919fef45c4075f389be41b890d10e41783e45aa15d7e5',
    (3, 'cubic'): '74580c922bb9d9128153b8ac1f60f9082f298e76d033a93b927a2643f77635cc',
    (3, 'bbr2'): '3c933c3373af9ce4b4e570e2fdc39a1aa67569e0ae5debffa280d5500bdfbad5',
    (3, 'vegas'): 'f55d3568cdf1cc0dc5ad1726947a727a1b464b88f31282b75e708d45ff8f8683',
    (3, 'dctcp'): '341f697b7fdf659c795f76aa59d97993ddefdb3cb6d46b96fc113111c7acd5f8',
}

GOLDEN_DELAYED_ACK = 'bd907f178f912cd6516da1363a2e9b40dc9247a84ac306ba019aef887bfa5ce7'

GOLDEN_CHURN = {
    'incast_fqcodel': {
        "schedule": "3857525633089d80",
        "links": "7d03cd9ea6b6c6115f504df11f6139ca2442fa95047330692b169142fbbd7f0c",
        "fct": "f3ca4b9fa11ad990c4374d92c14156bf59f2b35cee819ed624d1110297f5acc7"
    },
    'pl_fqcodel': {
        "schedule": "3857525633089d80",
        "links": "ad845091b7d60b693e40ce34a11392c25e9b81d7b4fe386b1b9dc03869651f47",
        "fct": "5f3a19fadeff8a5e6ff0e9b024d52ac4d192a8586d002ab15b39b0c3366e6436"
    },
    'pl_taildrop': {
        "schedule": "3857525633089d80",
        "links": "023623faff3cdf17efe7030ad379f2f18cc520a3c980238a11dfa8fdcfa71b27",
        "fct": "0ab246a650b5aa2d9988b6a2d796c0e3fde3b478755eb7990a88692fd4c6f219"
    },
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("env_index", range(4))
def test_rollout_trajectory_matches_golden(env_index, scheme):
    assert rollout_digest(env_index, scheme) == GOLDEN_ROLLOUTS[(env_index, scheme)]


def test_delayed_ack_flow_matches_golden():
    assert delayed_ack_digest() == GOLDEN_DELAYED_ACK


@pytest.mark.parametrize("cell", sorted(CHURN_CELLS))
def test_sim_churn_cell_matches_golden(cell):
    assert churn_digests(cell) == GOLDEN_CHURN[cell]


if __name__ == "__main__":  # re-record
    print("GOLDEN_ROLLOUTS = {")
    for i in range(4):
        for s in SCHEMES:
            print(f"    ({i}, {s!r}): {rollout_digest(i, s)!r},")
    print("}\n")
    print(f"GOLDEN_DELAYED_ACK = {delayed_ack_digest()!r}\n")
    print("GOLDEN_CHURN = {")
    for c in sorted(CHURN_CELLS):
        print(f"    {c!r}: {json.dumps(churn_digests(c), indent=8)[:-1]}    }},")
    print("}")
