"""Brute-force reference implementations for testing.

Everything here recomputes a quantity straight from its definition, sharing
nothing with the production modules beyond the graph type, so tests can
cross-check the fast paths against an independent route.  Instance-size
guards refuse inputs where the brute force would silently crawl; none of
these functions is reachable from the CLI.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from .centrality import CentralityScores
from .coverage import SelectionResult
from .graph import DirectedGraph

MAX_SUBSETS = 10_000_000
MAX_ORACLE_NODES = 50


def _coverage_of(g: DirectedGraph, v: str) -> frozenset[str]:
    return g.in_neighbors(v) | {v}


def brute_force_max_coverage(
    g: DirectedGraph, k: int
) -> tuple[tuple[str, ...], float]:
    """Exhaustive best k-subset by coverage; lexicographically first on ties."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    total = math.comb(g.n, k)
    if total > MAX_SUBSETS:
        raise ValueError(
            f"instance too large: C({g.n}, {k}) = {total} subsets "
            f"exceeds the {MAX_SUBSETS} bound"
        )
    cover = {v: _coverage_of(g, v) for v in g.nodes}
    best: tuple[str, ...] | None = None
    best_size = -1
    for combo in itertools.combinations(g.nodes, k):  # nodes sorted: lex order
        size = len(set().union(*(cover[v] for v in combo)))
        if size > best_size:
            best, best_size = combo, size
    assert best is not None
    return best, best_size / g.n


def naive_greedy(g: DirectedGraph, target: float) -> SelectionResult:
    """Greedy selection that rescans every unselected node each round.

    No lazy bound, no early scan exit; same scan order and tie-break as the
    production selector, so outputs must match it exactly.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must be in (0, 1], got {target}")
    order = sorted(g.nodes, key=lambda v: (-g.in_degree(v), v))
    covered: set[str] = set()
    picks: list[str] = []
    cumulative: list[float] = []
    remaining = list(order)
    while len(covered) / g.n < target:
        best = None
        best_gain = -1
        for v in remaining:
            gain = len(_coverage_of(g, v) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        assert best is not None
        remaining.remove(best)
        covered |= _coverage_of(g, best)
        picks.append(best)
        cumulative.append(len(covered) / g.n)
    return SelectionResult(
        method="greedy", picks=tuple(picks), cumulative=tuple(cumulative), target=target
    )


def definitional_centrality(g: DirectedGraph, measure: str) -> CentralityScores:
    """Textbook recomputation of a centrality measure from its definition.

    Betweenness multiplies per-source and per-target shortest-path counts
    for every (s, t, v) triple; closeness re-derives the reach-scaled formula
    from raw BFS distances; eigenvector asks a dense eigensolver for the
    Perron vector (all zeros on an edgeless graph).  Guarded to small graphs.
    """
    if g.n > MAX_ORACLE_NODES:
        raise ValueError(
            f"instance too large: {g.n} nodes exceeds the {MAX_ORACLE_NODES} bound"
        )
    if measure == "in_degree":  # edges (source, target) with v as the target
        scores = {v: float(sum(t == v for _, t in g.edges)) for v in g.nodes}
    elif measure == "betweenness":
        scores = _definitional_betweenness(g)
    elif measure == "closeness":
        scores = _definitional_closeness(g)
    elif measure == "eigenvector":
        return _definitional_eigenvector(g)
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return CentralityScores(measure, g.nodes, np.array([scores[v] for v in g.nodes]))


def _bfs_counts(
    adj: dict[str, list[str]], source: str
) -> tuple[dict[str, int], dict[str, int]]:
    """Distances and shortest-path counts from one source over ``adj``."""
    dist = {source: 0}
    count = {source: 1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                count[w] = 0
                queue.append(w)
            if dist[w] == dist[u] + 1:
                count[w] += count[u]
    return dist, count


def _definitional_betweenness(g: DirectedGraph) -> dict[str, float]:
    fwd = {v: sorted(g.out_neighbors(v)) for v in g.nodes}
    rev = {v: sorted(g.in_neighbors(v)) for v in g.nodes}
    dists: dict[str, dict[str, int]] = {}
    fcounts: dict[str, dict[str, int]] = {}
    bcounts: dict[str, dict[str, int]] = {}
    for v in g.nodes:
        dists[v], fcounts[v] = _bfs_counts(fwd, v)
        _, bcounts[v] = _bfs_counts(rev, v)  # counts of shortest paths INTO v
    scores = {v: 0.0 for v in g.nodes}
    for s in g.nodes:
        for t in g.nodes:
            if s == t or t not in dists[s]:
                continue
            d_st = dists[s][t]
            sigma_st = fcounts[s][t]
            for v in g.nodes:
                if v == s or v == t:
                    continue
                if v in dists[s] and t in dists[v]:
                    if dists[s][v] + dists[v][t] == d_st:
                        scores[v] += fcounts[s][v] * bcounts[t][v] / sigma_st
    return scores


def _definitional_closeness(g: DirectedGraph) -> dict[str, float]:
    fwd = {v: sorted(g.out_neighbors(v)) for v in g.nodes}
    scores: dict[str, float] = {}
    for v in g.nodes:
        dist, _ = _bfs_counts(fwd, v)
        reachable = [d for u, d in dist.items() if u != v]
        r = len(reachable)
        if r == 0 or g.n < 2:
            scores[v] = 0.0
        else:
            scores[v] = (r / (g.n - 1)) * (r / sum(reachable))
    return scores


def _definitional_eigenvector(g: DirectedGraph) -> CentralityScores:
    nodes = g.nodes
    if g.m == 0:  # no direction at all: the library's zero scores and warning
        warning = "edgeless graph: eigenvector undefined, scores zeroed"
        return CentralityScores("eigenvector", nodes, np.zeros(g.n), warning)
    index = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((g.n, g.n))
    for s, t in g.edges:
        a[index[s], index[t]] = 1.0
    eigvals, eigvecs = np.linalg.eig(a.T)
    top = int(np.argmax(eigvals.real))
    if eigvals.real[top] < 1e-9:  # nilpotent adjacency: no dominant direction
        vec = np.array([g.in_degree(v) for v in nodes], dtype=float)
        warning = "acyclic graph: scores proportional to in-degree"
    else:
        vec = np.abs(eigvecs[:, top].real)
        warning = None
    vec = vec / np.linalg.norm(vec)
    return CentralityScores("eigenvector", nodes, vec, warning)
