"""Baseline centrality measures over directed graphs.

All five measures return raw scores plus a deterministic descending rank via
:func:`to_rank` (score descending, label ascending, so equal scores never
leave an ambiguous order).  Conventions for directed graphs:

* degree splits into in / out / total variants;
* betweenness counts shortest directed paths with the node strictly interior,
  unnormalized (Brandes accumulation, one BFS per source);
* closeness uses outgoing distances with a reach-scaled correction
  ``(r / (n - 1)) * (r / D)`` so scores stay comparable when parts of the
  graph are unreachable; it reduces to the classic inverse-average-distance
  form on strongly connected graphs;
* eigenvector is the dominant left eigenvector of the adjacency matrix (a
  node's score is the sum of its in-neighbors' scores), by power iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

MEASURES = (
    "in_degree",
    "out_degree",
    "total_degree",
    "betweenness",
    "closeness",
    "eigenvector",
)


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one measure; all scores finite and >= 0."""

    measure: str
    scores: dict[str, float]
    warning: str | None = None


@dataclass(frozen=True)
class Rank:
    """Nodes ordered best-first; always a full permutation, never tied."""

    measure: str
    order: tuple[str, ...]

    def positions(self) -> dict[str, int]:
        """1-based position of every node (1 = top of the rank)."""
        return {v: i + 1 for i, v in enumerate(self.order)}


def to_rank(scores: CentralityScores) -> Rank:
    """Order nodes by score descending, ties broken by label ascending."""
    ordered = sorted(scores.scores, key=lambda v: (-scores.scores[v], v))
    return Rank(measure=scores.measure, order=tuple(ordered))


def degree_centrality(g: DirectedGraph, mode: str = "in") -> CentralityScores:
    """Degree scores; ``mode`` is ``in``, ``out``, or ``total``."""
    if mode == "in":
        scores = {v: float(g.in_degree(v)) for v in g.nodes}
    elif mode == "out":
        scores = {v: float(g.out_degree(v)) for v in g.nodes}
    elif mode == "total":
        scores = {v: float(g.in_degree(v) + g.out_degree(v)) for v in g.nodes}
    else:
        raise ValueError(f"unknown degree mode {mode!r}; expected in, out, or total")
    return CentralityScores(measure=f"{mode}_degree", scores=scores)


def betweenness_centrality(g: DirectedGraph) -> CentralityScores:
    """Unnormalized shortest-path betweenness on the directed graph.

    For each node v, sums sigma_st(v) / sigma_st over all ordered pairs
    (s, t) with s != v != t, where sigma_st counts shortest directed paths
    and sigma_st(v) those passing through v as an interior node.  Pairs with
    no path contribute nothing.  Sources are processed in sorted node order
    and neighbors in ascending ``out_adj`` order, so the floating-point
    accumulation is reproducible.
    """
    adj = g.out_adj
    n = g.n
    score = [0.0] * n

    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        visited: list[int] = []
        while queue:
            v = queue.popleft()
            visited.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(visited):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                score[w] += delta[w]

    return CentralityScores(measure="betweenness", scores=dict(zip(g.nodes, score)))


def closeness_centrality(g: DirectedGraph) -> CentralityScores:
    """Reach-scaled closeness over outgoing distances.

    With r nodes reachable from v (excluding v) at total distance D:
    ``closeness(v) = (r / (n - 1)) * (r / D)``; nodes reaching nothing score 0.
    """
    adj = g.out_adj
    n = g.n
    scores = [0.0] * n
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        reached = 0
        total = 0
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    reached += 1
                    total += du + 1
                    queue.append(w)
        if reached:
            scores[src] = (reached / (n - 1)) * (reached / total)
    return CentralityScores(measure="closeness", scores=dict(zip(g.nodes, scores)))


def _is_acyclic(g: DirectedGraph) -> bool:
    indeg = [g.in_degree(v) for v in g.nodes]
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for w in g.out_adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed == g.n


def eigenvector_centrality(
    g: DirectedGraph, tol: float = 1e-10, max_iter: int = 1000
) -> CentralityScores:
    """Dominant left eigenvector of the adjacency matrix, L2-normalized.

    Scores flow along incoming edges: a node is central when its
    in-neighbors are central.  Power iteration starts uniform and runs on
    the shifted operator A^T + I, which leaves the eigenvector unchanged but
    converges even on periodic structures (a plain iteration oscillates
    forever on, e.g., a bidirectional path).  Convergence is tol on the L2
    difference of successive normalized iterates, capped at max_iter; when
    the cap is hit the last iterate is returned with ``warning`` naming the
    iteration count and the residual.

    On acyclic graphs the true iteration collapses to the zero vector (the
    adjacency matrix is nilpotent), so the result falls back to scores
    proportional to in-degree with ``warning`` set.  An edgeless graph has
    no meaningful eigenvector at all and raises ``ValueError``.
    """
    if g.m == 0:
        raise ValueError("eigenvector undefined: graph has no edges")
    n = g.n

    if _is_acyclic(g):
        vec = np.array([g.in_degree(v) for v in g.nodes], dtype=float)
        vec /= np.linalg.norm(vec)
        return CentralityScores(
            measure="eigenvector",
            scores=dict(zip(g.nodes, vec.tolist())),
            warning="acyclic graph: power iteration collapses to zero; "
            "scores proportional to in-degree",
        )

    # Edge index arrays: (A^T x)[t] sums x[s] over the edges s -> t.
    src = np.repeat(np.arange(n), [len(row) for row in g.out_adj])
    dst = np.fromiter((t for row in g.out_adj for t in row), dtype=np.intp, count=g.m)

    x = np.full(n, 1.0 / np.sqrt(n))
    residual = float("inf")
    warning = None
    for _ in range(max_iter):
        y = np.bincount(dst, weights=x[src], minlength=n) + x
        y /= np.linalg.norm(y)
        residual = float(np.linalg.norm(y - x))
        x = y
        if residual <= tol:
            break
    else:
        warning = (
            f"power iteration stopped at max_iter={max_iter} without converging "
            f"(residual {residual:.3g} > tol {tol:.3g})"
        )

    return CentralityScores(
        measure="eigenvector", scores=dict(zip(g.nodes, x.tolist())), warning=warning
    )
