"""netcover: coverage-driven seed selection and analytics for directed graphs.

The library answers one practical question about a directed network, such as
a who-works-with-whom survey graph: which small set of members directly
reaches the largest share of everyone else?  It provides

* an immutable :class:`DirectedGraph` with CSV/JSON ingestion,
* the lazy greedy maximum-coverage selector and centrality-rank baselines,
* four centrality baselines (in-degree, betweenness, closeness, eigenvector)
  with deterministic ranking,
* an evaluation protocol (coverage-vs-k tables, Spearman rank association,
  the minimal selection reaching an 80% coverage threshold),
* seeded synthetic graph generators for reproducible experiments.

Reference brute-force implementations live in :mod:`netcover.oracles` and
are meant for tests only.  The ``netcover`` command exposes everything else.
"""

from .centrality import (
    CentralityScores,
    Rank,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    path_centralities,
    to_rank,
)
from .coverage import (
    CoverageSet,
    SelectionResult,
    centrality_rank_select,
    greedy_select,
    node_coverage,
    set_coverage,
)
from .evaluation import (
    METHODS,
    CoverageTable,
    ParetoPoint,
    RankCorrelationMatrix,
    centrality_rank,
    centrality_scores,
    coverage_table,
    default_ks,
    greedy_rank_vector,
    pareto_point,
    rank_correlation_report,
    spearman,
)
from .generators import gen_erdos_renyi, gen_preferential
from .graph import (
    DirectedGraph,
    GraphStats,
    IngestReport,
    ParseError,
    UnknownNodeError,
    graph_stats,
    parse_edge_list,
    to_csv,
    to_json,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "CentralityScores",
    "CoverageSet",
    "CoverageTable",
    "DirectedGraph",
    "GraphStats",
    "IngestReport",
    "ParetoPoint",
    "ParseError",
    "Rank",
    "RankCorrelationMatrix",
    "SelectionResult",
    "UnknownNodeError",
    "betweenness_centrality",
    "centrality_rank",
    "centrality_rank_select",
    "centrality_scores",
    "closeness_centrality",
    "coverage_table",
    "default_ks",
    "degree_centrality",
    "eigenvector_centrality",
    "gen_erdos_renyi",
    "gen_preferential",
    "graph_stats",
    "greedy_rank_vector",
    "greedy_select",
    "node_coverage",
    "pareto_point",
    "parse_edge_list",
    "path_centralities",
    "rank_correlation_report",
    "set_coverage",
    "spearman",
    "to_csv",
    "to_json",
    "to_rank",
    "__version__",
]
