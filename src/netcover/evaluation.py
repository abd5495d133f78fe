"""Evaluation protocol: coverage-vs-k tables, rank correlation, Pareto point.

Compares the greedy selector against the four centrality baselines
(in-degree, betweenness, closeness, eigenvector) on the same graph:

* :func:`coverage_table` builds a methods-by-k grid of coverage fractions;
* :func:`rank_correlation_report` measures how much the greedy pick order
  agrees with each centrality ordering (Spearman rho);
* :func:`pareto_point` finds the smallest selected-set size reaching a
  coverage threshold (the 80/20 reading: what fraction of nodes is needed
  to cover 80% of the graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import centrality as _centrality
from .centrality import CentralityScores, Rank, to_rank
from .coverage import _check_fraction, centrality_rank_select, greedy_select
from .graph import DirectedGraph

#: Table column order; greedy is compared against the first four.
METHODS = ("in_degree", "betweenness", "closeness", "eigenvector", "greedy")

_DEFAULT_KS = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)


def default_ks(n: int) -> tuple[int, ...]:
    """The standard k ladder 1..5, 10..50, clamped to the node count."""
    if n < 1:
        raise ValueError("graph has no nodes")
    clamped = sorted({min(k, n) for k in _DEFAULT_KS})
    return tuple(clamped)


def centrality_scores(g: DirectedGraph, method: str) -> CentralityScores:
    """Scores for one baseline method: a plain dispatch to :mod:`centrality`.

    Each measure decides its own degenerate cases; on an edgeless graph,
    for one, eigenvector scores are all zero with a warning.  An unknown
    method raises ``ValueError``.
    """
    if method == "in_degree":
        return _centrality.degree_centrality(g)
    if method == "betweenness":
        return _centrality.betweenness_centrality(g)
    if method == "closeness":
        return _centrality.closeness_centrality(g)
    if method == "eigenvector":
        return _centrality.eigenvector_centrality(g)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS[:-1]}")


def centrality_rank(g: DirectedGraph, method: str) -> Rank:
    """Deterministic full rank for one baseline method."""
    return to_rank(centrality_scores(g, method))


def _baselines(g: DirectedGraph) -> tuple[dict[str, CentralityScores], tuple[str, ...]]:
    """Each baseline's scores in ``METHODS`` order, and their warnings in that order."""
    scores = {method: centrality_scores(g, method) for method in METHODS[:-1]}
    warnings = tuple(s.warning for s in scores.values() if s.warning is not None)
    return scores, warnings


@dataclass(frozen=True)
class CoverageTable:
    """Coverage fraction per (k, method); columns are non-decreasing in k.

    ``columns`` is keyed in ``METHODS`` order.  ``warnings`` holds the
    baselines' score warnings, in method order.
    """

    ks: tuple[int, ...]
    columns: dict[str, tuple[float, ...]]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def cell(self, k: int, method: str) -> float:
        return self.columns[method][self.ks.index(k)]


@dataclass(frozen=True)
class RankCorrelationMatrix:
    """Spearman rho between the greedy pick order and each baseline's rank.

    An entry is ``None`` when rho is undefined, i.e. a baseline scores every
    node identically so its tie-averaged ranks have zero variance.
    ``warnings`` holds the baselines' score warnings, in method order.
    """

    entries: dict[str, float | None]
    warnings: tuple[str, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class ParetoPoint:
    """Smallest k reaching the threshold, as a fraction of all nodes."""

    method: str
    k: int
    node_fraction: float
    coverage: float


def coverage_table(g: DirectedGraph, ks: Sequence[int]) -> CoverageTable:
    """Coverage-vs-k grid for every method.

    ``ks`` must be strictly ascending positive counts bounded by the node
    count.  Each method yields one whole curve: a baseline's rank-prefix
    curve, and greedy run to full coverage or to the largest k, whichever is
    first (greedy picks are prefix-stable, so a cut equals rerunning with a
    smaller budget).  Every column reads its curve cut with
    :meth:`SelectionResult.truncated` at each k.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("ks must not be empty")
    if any(int(k) != k or k < 1 for k in ks):
        raise ValueError(f"ks must be positive integers, got {list(ks)}")
    if list(ks) != sorted(set(ks)):
        raise ValueError(f"ks must be strictly ascending, got {list(ks)}")
    if ks[-1] > g.n:
        raise ValueError(f"max k {ks[-1]} exceeds node count {g.n}")
    ks = tuple(int(k) for k in ks)  # an integral float such as 2.0 cannot index

    scores, warnings = _baselines(g)
    curves = {m: centrality_rank_select(g, to_rank(s)) for m, s in scores.items()}
    curves["greedy"] = greedy_select(g, target_coverage=1.0, k=ks[-1])
    columns = {m: tuple(c.truncated(k).cumulative[-1] for k in ks) for m, c in curves.items()}
    return CoverageTable(ks=ks, columns=columns, warnings=warnings)


# ---- Spearman rank correlation ----------------------------------------------


def _fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending ranks 1..n with ties sharing their average position."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)  # 1-based position of each tie group's last member
    return ((ends - counts + 1 + ends) / 2)[inverse]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for constant ranks")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank-order correlation between two equal-length score lists.

    Scores are converted to fractional (tie-averaged) ranks and rho is the
    Pearson correlation of the two rank vectors; for tie-free inputs this
    equals the classic 1 - 6 * sum(d^2) / (n * (n^2 - 1)).
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two observations")
    return _pearson(_fractional_ranks(a), _fractional_ranks(b))


def greedy_rank_vector(g: DirectedGraph) -> np.ndarray:
    """Rank positions induced by a full-coverage greedy run, by node position.

    Picks get positions 1..s in pick order; nodes never picked share the
    tie-averaged tail position (s + 1 + n) / 2.
    """
    sel = greedy_select(g, target_coverage=1.0)
    s = len(sel.picks)
    vec = np.full(g.n, (s + 1 + g.n) / 2.0)
    vec[[g.index[v] for v in sel.picks]] = np.arange(1.0, s + 1)
    return vec


def rank_correlation_report(g: DirectedGraph) -> RankCorrelationMatrix:
    """Spearman rho between the greedy pick order and each baseline ranking.

    Both sides are tie-averaged rank vectors with 1 = best: the greedy side
    from :func:`greedy_rank_vector`, the baseline side from fractional ranks
    of the (negated) centrality scores.  A baseline with all-equal scores has
    no defined rho and reports ``None``.
    """
    greedy_vec = greedy_rank_vector(g)
    scores, warnings = _baselines(g)
    entries: dict[str, float | None] = {}
    for method, result in scores.items():
        try:  # negate: highest score ranks first
            entries[method] = spearman(greedy_vec, -result.values)
        except ValueError:
            entries[method] = None
    return RankCorrelationMatrix(entries=entries, warnings=warnings)


def pareto_point(
    g: DirectedGraph, method: str = "greedy", threshold: float = 0.8
) -> ParetoPoint:
    """Minimal k whose coverage reaches the threshold for the given method.

    Selecting every node always covers the graph, so a crossing k always
    exists for any threshold in (0, 1].  Greedy stops at the first pick
    reaching the threshold; a baseline's rank-prefix curve is cut by
    :meth:`SelectionResult.reaching`.  An unknown method raises
    ``ValueError``.
    """
    _check_fraction("threshold", threshold)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "greedy":
        point = greedy_select(g, threshold)
    else:
        point = centrality_rank_select(g, centrality_rank(g, method)).reaching(threshold)
    k = len(point.picks)
    return ParetoPoint(
        method=method, k=k, node_fraction=k / g.n, coverage=point.cumulative[-1]
    )
