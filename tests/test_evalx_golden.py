"""Golden outputs of the evaluators, recorded before their run loops were folded.

The league, the Internet-path evaluation and the two winning-rate
matrices (scheme x topology class, scheme x AQM) all play every
participant through every environment, serially when ``workers == 1`` and
through the parallel task engine otherwise. Each golden below pins what
one of them returns for a tiny input: winning rates and normalised
metrics exactly, plus the count and a digest of the per-interval score
entries, and, for the AQM matrix, the CE marks per column.

The league and the path evaluation are entered by a *stochastic*
``SageAgent``. On the serial path one agent RNG is consumed across the
rollouts in env-major, participant-minor order; the parallel path reseeds
the agent per task. Both orders are pinned, at ``workers=1`` and at
``workers=2``, along with the serial progress messages.

All values were computed at commit 4d962f7, through the separate
``run_topology_matrix`` and ``run_aqm_matrix`` of that revision; when
those folded into :func:`repro.evalx.matrix.run_matrix` only the two calls
below changed, not a value. To re-record after an
*intended* behaviour change, run this file as a script
(``PYTHONPATH=src python tests/test_evalx_golden.py``) and paste its output.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.collector.environments import EnvConfig
from repro.core.agent import SageAgent
from repro.core.networks import NetworkConfig, SagePolicy
from repro.evalx.internet import evaluate_paths, intra_continental_envs
from repro.evalx.leagues import Participant, run_league
from repro.evalx.matrix import aqm_columns, run_matrix, topology_columns

TINY = NetworkConfig(enc_dim=16, gru_dim=16, n_components=3, n_atoms=7)


def _sage() -> Participant:
    """A fresh stochastic agent: the serial path advances its RNG."""
    agent = SageAgent(SagePolicy(TINY, np.random.default_rng(0)), seed=5)
    return Participant.from_agent(agent)


def _entries(entries) -> dict:
    rows = [
        [e.participant, e.env_id, e.interval, e.score, e.higher_is_better]
        for e in entries
    ]
    sha = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return {"n": len(rows), "sha": sha[:16]}


def topo_matrix_golden() -> dict:
    matrix = run_matrix(
        [Participant.from_scheme("cubic"), Participant.from_scheme("vegas")],
        topology_columns(("dumbbell", "parking_lot"), duration=2.0),
        n_intervals=2,
    )
    return {
        col: {"rates": matrix.rates[col], "entries": _entries(matrix.entries[col])}
        for col in matrix.rates
    }


def aqm_matrix_golden() -> dict:
    matrix = run_matrix(
        [Participant.from_scheme("cubic"), Participant.from_scheme("dctcp")],
        aqm_columns(
            ("taildrop", "codel", "learned_ecn"), duration=2.0, ecn_threshold_bdp=0.5
        ),
        n_intervals=2,
    )
    return {
        col: {
            "rates": matrix.rates[col],
            "entries": _entries(matrix.entries[col]),
            "ecn_marks": matrix.ecn_marks[col],
        }
        for col in matrix.rates
    }


LEAGUE_SET1 = [
    EnvConfig(env_id="g-flat", kind="flat", bw_mbps=24.0, min_rtt=0.04,
              buffer_bdp=2.0, duration=2.0),
]
LEAGUE_SET2 = [
    EnvConfig(env_id="g-vs-cubic", kind="flat", bw_mbps=24.0, min_rtt=0.04,
              buffer_bdp=2.0, n_competing_cubic=1, duration=3.0),
]


def league_golden(workers: int) -> dict:
    progress = []
    result = run_league(
        [Participant.from_scheme("cubic"), _sage()],
        set1=LEAGUE_SET1,
        set2=LEAGUE_SET2,
        n_intervals=2,
        workers=workers,
        progress=progress.append,
    )
    return {
        "set1": result.set1_rates,
        "set2": result.set2_rates,
        "set1_entries": _entries(result.set1_entries),
        "set2_entries": _entries(result.set2_entries),
        # completion order is the scheduler's once tasks leave the process
        "progress": progress if workers == 1 else sorted(progress),
    }


def paths_golden(workers: int) -> dict:
    progress = []
    report = evaluate_paths(
        [Participant.from_scheme("cubic"), _sage()],
        intra_continental_envs(duration=2.0, n_paths=2),
        tag="golden",
        workers=workers,
        progress=progress.append,
    )
    return {
        "norm_throughput": report.norm_throughput,
        "norm_delay": report.norm_delay,
        "norm_delay_p95": report.norm_delay_p95,
        "progress": progress if workers == 1 else sorted(progress),
    }


GOLDEN_TOPO_MATRIX = {
    "dumbbell": {"entries": {"n": 12, "sha": "267f79bf1325dbd2"},
                 "rates": {"cubic": 1.0, "vegas": 0.0}},
    "parking_lot": {"entries": {"n": 8, "sha": "bf2f9ccb8936db67"},
                    "rates": {"cubic": 1.0, "vegas": 0.0}},
}

GOLDEN_AQM_MATRIX = {
    "codel": {"ecn_marks": 0,
              "entries": {"n": 12, "sha": "fd3645ac54475d34"},
              "rates": {"cubic": 0.8333333333333334,
                        "dctcp": 0.3333333333333333}},
    "learned_ecn": {"ecn_marks": 5063,
                    "entries": {"n": 12, "sha": "533db8563554cbdd"},
                    "rates": {"cubic": 1.0, "dctcp": 0.0}},
    "taildrop": {"ecn_marks": 4548,
                 "entries": {"n": 12, "sha": "0b07645bfe51696f"},
                 "rates": {"cubic": 1.0, "dctcp": 0.0}},
}

GOLDEN_LEAGUE = {
    1: {"progress": ["cubic on g-flat",
                     "sage on g-flat",
                     "cubic on g-vs-cubic",
                     "sage on g-vs-cubic"],
        "set1": {"cubic": 1.0, "sage": 0.5},
        "set1_entries": {"n": 4, "sha": "e761fd110505ccd6"},
        "set2": {"cubic": 0.5, "sage": 0.5},
        "set2_entries": {"n": 4, "sha": "66bcba2df47d8614"}},
    2: {"progress": ["cubic on g-flat",
                     "cubic on g-vs-cubic",
                     "sage on g-flat",
                     "sage on g-vs-cubic"],
        "set1": {"cubic": 1.0, "sage": 0.5},
        "set1_entries": {"n": 4, "sha": "c7575e6dcd649727"},
        "set2": {"cubic": 0.5, "sage": 0.5},
        "set2_entries": {"n": 4, "sha": "50768c73222d18d7"}},
}

GOLDEN_PATHS = {
    1: {"norm_delay": {"cubic": 1.2070047310871455, "sage": 1.0445907179625373},
        "norm_delay_p95": {"cubic": 1.5514587331537157,
                           "sage": 1.3702143703660326},
        "norm_throughput": {"cubic": 1.0, "sage": 0.7101307189542483},
        "progress": ["cubic on intra-0-tennessee",
                     "sage on intra-0-tennessee",
                     "cubic on intra-1-ohio",
                     "sage on intra-1-ohio"]},
    2: {"norm_delay": {"cubic": 1.2288626424670746, "sage": 1.0548302653423938},
        "norm_delay_p95": {"cubic": 1.5791537245074818,
                           "sage": 1.3894771237472823},
        "norm_throughput": {"cubic": 0.9967923015236568,
                            "sage": 0.9116151545363909},
        "progress": ["cubic on intra-0-tennessee",
                     "cubic on intra-1-ohio",
                     "sage on intra-0-tennessee",
                     "sage on intra-1-ohio"]},
}


def test_topology_matrix_golden():
    assert topo_matrix_golden() == GOLDEN_TOPO_MATRIX


def test_aqm_matrix_golden():
    assert aqm_matrix_golden() == GOLDEN_AQM_MATRIX


@pytest.mark.parametrize("workers", [1, 2])
def test_league_golden(workers):
    assert league_golden(workers) == GOLDEN_LEAGUE[workers]


@pytest.mark.parametrize("workers", [1, 2])
def test_paths_golden(workers):
    assert paths_golden(workers) == GOLDEN_PATHS[workers]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    import pprint

    for name, value in (
        ("GOLDEN_TOPO_MATRIX", topo_matrix_golden()),
        ("GOLDEN_AQM_MATRIX", aqm_matrix_golden()),
        ("GOLDEN_LEAGUE", {w: league_golden(w) for w in (1, 2)}),
        ("GOLDEN_PATHS", {w: paths_golden(w) for w in (1, 2)}),
    ):
        print(f"{name} = {pprint.pformat(value, width=79, sort_dicts=True)}")
        print()
