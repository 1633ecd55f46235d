"""Evaluation framework: scores, winning rates, leagues, and deep dives.

- :mod:`~repro.evalx.scores` — the S_p (power) and S_fr (friendliness)
  scores, interval splitting, and winner determination (Section 5.1 +
  Appendix D).
- :mod:`~repro.evalx.leagues` — run a league of participants (kernel schemes
  and/or learned agents) over Set I / Set II and rank by winning rate
  (Figs. 1, 7, 9, 10, 20, 21; Tables 2, 3). Its :func:`play` is the one
  run loop every evaluator below shares, serial or over worker processes.
- :mod:`~repro.evalx.internet` — simulated GENI/AWS Internet paths and
  cellular-trace evaluations (Fig. 8, Fig. 26, Table 4).
- :mod:`~repro.evalx.matrix` — winning-rate matrices, scheme x topology
  class and scheme x AQM (``repro topo matrix`` / ``repro aqm matrix``).
- :mod:`~repro.evalx.similarity` — trajectory Distance CDFs (Fig. 11) and
  Similarity Indices (Fig. 13).
- :mod:`~repro.evalx.tsne` — minimal exact t-SNE (Fig. 16).
- :mod:`~repro.evalx.dynamics` — time-series experiments: behaviour samples,
  fairness, TCP-friendliness, AQM robustness (Figs. 17-19, 22-25, 27, 28).
"""

from repro.evalx.scores import (
    power_score,
    friendliness_score,
    interval_scores,
    determine_winners,
    winning_rates,
    ScoreEntry,
)
from repro.evalx.leagues import (
    Participant,
    LeagueResult,
    play,
    run_league,
    run_participant,
    HEURISTIC_LEAGUE,
    DELAY_LEAGUE_NAMES,
)
from repro.evalx.internet import (
    GENI_SERVERS,
    AWS_SERVERS,
    InternetReport,
    evaluate_paths,
    intra_continental_envs,
    inter_continental_envs,
    cellular_envs,
)
from repro.evalx.similarity import (
    distance_cdf,
    similarity_index,
    similarity_table,
    transition_matrix,
)
from repro.evalx.dynamics import (
    behavior_scenarios,
    fairness_experiment,
    friendliness_experiment,
    aqm_experiment,
    frontier_experiment,
    MultiFlowResult,
)
from repro.evalx.matrix import (
    WinningMatrix,
    aqm_columns,
    run_matrix,
    topology_columns,
)
from repro.evalx.tsne import tsne
from repro.evalx.plotting import ascii_scatter, ascii_timeseries, plot_flow_throughput
from repro.evalx.reporting import markdown_table, save_csv

__all__ = [
    "power_score",
    "friendliness_score",
    "interval_scores",
    "determine_winners",
    "winning_rates",
    "ScoreEntry",
    "Participant",
    "LeagueResult",
    "play",
    "run_league",
    "run_participant",
    "HEURISTIC_LEAGUE",
    "DELAY_LEAGUE_NAMES",
    "GENI_SERVERS",
    "AWS_SERVERS",
    "InternetReport",
    "evaluate_paths",
    "intra_continental_envs",
    "inter_continental_envs",
    "cellular_envs",
    "distance_cdf",
    "similarity_index",
    "similarity_table",
    "transition_matrix",
    "behavior_scenarios",
    "fairness_experiment",
    "friendliness_experiment",
    "aqm_experiment",
    "frontier_experiment",
    "MultiFlowResult",
    "WinningMatrix",
    "aqm_columns",
    "run_matrix",
    "topology_columns",
    "tsne",
    "ascii_scatter",
    "ascii_timeseries",
    "plot_flow_throughput",
    "markdown_table",
    "save_csv",
]
