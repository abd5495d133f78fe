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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import centrality as _centrality
from .centrality import CentralityScores, Rank, to_rank
from .coverage import centrality_rank_select, greedy_select
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
    """Scores for one baseline method.

    On an edgeless graph the eigenvector measure is undefined; here it
    degrades to all-zero scores (rank falls back to label order) so the
    evaluation protocol still runs on degenerate graphs.
    """
    if method == "in_degree":
        return _centrality.degree_centrality(g, "in")
    if method == "betweenness":
        return _centrality.betweenness_centrality(g)
    if method == "closeness":
        return _centrality.closeness_centrality(g)
    if method == "eigenvector":
        if g.m == 0:
            return CentralityScores(
                measure="eigenvector",
                scores={v: 0.0 for v in g.nodes},
                warning="edgeless graph: eigenvector undefined, scores zeroed",
            )
        return _centrality.eigenvector_centrality(g)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS[:-1]}")


def centrality_rank(g: DirectedGraph, method: str) -> Rank:
    """Deterministic full rank for one baseline method."""
    return to_rank(centrality_scores(g, method))


@dataclass(frozen=True)
class CoverageTable:
    """Coverage fraction per (k, method); columns are non-decreasing in k."""

    ks: tuple[int, ...]
    methods: tuple[str, ...]
    columns: dict[str, tuple[float, ...]]

    def cell(self, k: int, method: str) -> float:
        return self.columns[method][self.ks.index(k)]


@dataclass(frozen=True)
class RankCorrelationMatrix:
    """Spearman rho between the reference (greedy) rank and each baseline.

    An entry is ``None`` when rho is undefined, i.e. a baseline scores every
    node identically so its tie-averaged ranks have zero variance.
    """

    reference: str
    entries: dict[str, float | None]


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
    count.  Centrality columns truncate the method's rank at each k; the
    greedy column truncates one greedy run to full coverage (greedy picks are
    prefix-stable, so truncation equals rerunning with a smaller budget).
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

    columns: dict[str, tuple[float, ...]] = {}
    for method in METHODS[:-1]:
        prefix = centrality_rank_select(g, centrality_rank(g, method), ks[-1]).cumulative
        columns[method] = tuple(prefix[k - 1] for k in ks)

    greedy = greedy_select(g, target_coverage=1.0)
    greedy_curve = greedy.cumulative
    last = len(greedy_curve) - 1
    columns["greedy"] = tuple(greedy_curve[min(k - 1, last)] for k in ks)

    return CoverageTable(ks=ks, methods=METHODS, columns=columns)


# ---- Spearman rank correlation ----------------------------------------------


def _fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending ranks 1..n with ties sharing their average position."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # positions are 1-based
        ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for constant ranks")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def spearman(a: Rank | Sequence[float], b: Rank | Sequence[float]) -> float:
    """Spearman rank-order correlation between two rankings or score lists.

    Both arguments must be of the same kind: two :class:`Rank` objects over
    the same node set, or two equal-length score sequences.  Scores are
    converted to fractional (tie-averaged) ranks and rho is the Pearson
    correlation of the two rank vectors; for tie-free inputs this equals the
    classic 1 - 6 * sum(d^2) / (n * (n^2 - 1)).
    """
    if isinstance(a, Rank) != isinstance(b, Rank):
        raise TypeError("cannot mix a Rank with a raw score list")
    if isinstance(a, Rank) and isinstance(b, Rank):
        if set(a.order) != set(b.order):
            raise ValueError("ranks are over different node sets")
        labels = sorted(a.order)
        pos_a = a.positions()
        pos_b = b.positions()
        xs: Sequence[float] = [float(pos_a[v]) for v in labels]
        ys: Sequence[float] = [float(pos_b[v]) for v in labels]
    else:
        xs, ys = a, b  # type: ignore[assignment]
        if len(xs) != len(ys):
            raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    return _pearson(_fractional_ranks(xs), _fractional_ranks(ys))


def greedy_rank_vector(g: DirectedGraph) -> dict[str, float]:
    """Per-node rank positions induced by a full-coverage greedy run.

    Picks get positions 1..s in pick order; nodes never picked share the
    tie-averaged tail position (s + 1 + n) / 2.
    """
    sel = greedy_select(g, target_coverage=1.0)
    s = len(sel.picks)
    tail = (s + 1 + g.n) / 2.0
    vec = {v: tail for v in g.nodes}
    for i, v in enumerate(sel.picks):
        vec[v] = float(i + 1)
    return vec


def rank_correlation_report(g: DirectedGraph) -> RankCorrelationMatrix:
    """Spearman rho between the greedy pick order and each baseline ranking.

    Both sides are tie-averaged rank vectors with 1 = best: the greedy side
    from :func:`greedy_rank_vector`, the baseline side from fractional ranks
    of the (negated) centrality scores.  A baseline with all-equal scores has
    no defined rho and reports ``None``.
    """
    labels = list(g.nodes)
    greedy_vec = greedy_rank_vector(g)
    xs = [greedy_vec[v] for v in labels]
    entries: dict[str, float | None] = {}
    for method in METHODS[:-1]:
        scores = centrality_scores(g, method).scores
        ys = [-scores[v] for v in labels]  # negate: highest score ranks first
        try:
            entries[method] = spearman(xs, ys)
        except ValueError:
            entries[method] = None
    return RankCorrelationMatrix(reference="greedy", entries=entries)


def pareto_point(
    g: DirectedGraph, method: str = "greedy", threshold: float = 0.8
) -> ParetoPoint:
    """Minimal k whose coverage reaches the threshold for the given method.

    Selecting every node always covers the graph, so a crossing k always
    exists for any threshold in (0, 1].
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if method == "greedy":
        sel = greedy_select(g, target_coverage=1.0)
    elif method in METHODS[:-1]:
        sel = centrality_rank_select(g, centrality_rank(g, method), g.n)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    point = sel.reaching(threshold)
    k = len(point.picks)
    return ParetoPoint(
        method=method, k=k, node_fraction=k / g.n, coverage=point.cumulative[-1]
    )
