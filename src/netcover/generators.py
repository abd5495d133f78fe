"""Deterministic synthetic directed-graph generators.

Both generators draw from numpy's default PCG64 bit generator seeded with a
64-bit integer, so the same configuration always yields the same graph, byte
for byte after serialization.  Node labels are zero-padded decimal strings
("000", "001", ...) so lexicographic label order equals creation order.

The draw streams are part of the contract:

* Erdos-Renyi: one uniform double per ordered pair (u, v) in row-major order
  including the diagonal (diagonal draws are discarded); the edge u -> v
  exists iff its draw is < p.
* Preferential attachment: nodes arrive one at a time; node i emits
  min(edges_per_node, i) edges to earlier nodes, each target drawn by one
  uniform double against cumulative weights (in-degree + 1), with already
  chosen targets weighted 0.  The +1 keeps zero-in-degree nodes reachable.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph


def _labels(n: int) -> list[str]:
    """Zero-padded labels for ``n`` nodes; both models need n >= 2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    width = len(str(n - 1))
    return [f"{i:0{width}d}" for i in range(n)]


def gen_erdos_renyi(n: int, p: float, seed: int) -> DirectedGraph:
    """Each ordered pair (u, v), u != v, is an edge independently with prob p."""
    labels = _labels(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erdos_renyi needs p in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[str, str]] = []
    for i, source in enumerate(labels):
        row = rng.random(n)  # row i of the row-major n x n draw stream
        row[i] = np.inf  # the diagonal draw is discarded
        edges.extend((source, labels[j]) for j in np.flatnonzero(row < p).tolist())
    return DirectedGraph.from_edges(edges, nodes=labels)


def gen_preferential(n: int, edges_per_node: int, seed: int) -> DirectedGraph:
    """Sequential arrivals; new nodes point at in-degree-popular targets."""
    labels = _labels(n)
    if edges_per_node < 1:
        raise ValueError(
            f"preferential_attachment needs edges_per_node >= 1, got {edges_per_node}"
        )
    rng = np.random.default_rng(seed)
    indeg = np.zeros(n, dtype=float)
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        weights = indeg[:i] + 1.0
        for _ in range(min(edges_per_node, i)):
            cum = np.cumsum(weights)
            r = rng.random() * cum[-1]
            j = int(np.searchsorted(cum, r, side="right"))
            if j >= i:  # guard the r == total rounding edge
                j = i - 1
            while weights[j] == 0.0:
                j -= 1
            edges.append((labels[i], labels[j]))
            weights[j] = 0.0
            indeg[j] += 1.0
    return DirectedGraph.from_edges(edges, nodes=labels)
