"""Shared graph builders for the test suite."""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from netcover import DirectedGraph, gen_erdos_renyi, gen_preferential
from netcover.generators import _labels


def graph_of(*edges: tuple[str, str], nodes: tuple[str, ...] = ()) -> DirectedGraph:
    return DirectedGraph.from_edges(edges, nodes=nodes)


def star(leaves: int = 4) -> DirectedGraph:
    """All leaves point at the hub."""
    return DirectedGraph.from_edges([(f"l{i}", "hub") for i in range(1, leaves + 1)])


def path(labels: str) -> DirectedGraph:
    return DirectedGraph.from_edges(list(zip(labels, labels[1:])))


def cycle(labels: str) -> DirectedGraph:
    pairs = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return DirectedGraph.from_edges(pairs)


def bipath(labels: str) -> DirectedGraph:
    """Path with both directions on every edge."""
    fwd = list(zip(labels, labels[1:]))
    return DirectedGraph.from_edges(fwd + [(b, a) for a, b in fwd])


def complete(labels: str) -> DirectedGraph:
    return DirectedGraph.from_edges(
        [(a, b) for a in labels for b in labels if a != b]
    )


def random_digraph(rng: np.random.Generator, max_n: int = 30) -> DirectedGraph:
    """One seeded Erdos-Renyi draw with randomized size and density."""
    n = int(rng.integers(4, max_n + 1))
    p = float(rng.uniform(0.05, 0.5))
    return gen_erdos_renyi(n, p, int(rng.integers(0, 2**32)))


def mixed_digraph(rng: np.random.Generator, max_n: int = 60) -> DirectedGraph:
    """Alternate ER and preferential-attachment draws for ensemble tests."""
    n = int(rng.integers(4, max_n + 1))
    seed = int(rng.integers(0, 2**32))
    if rng.random() < 0.5:
        return gen_erdos_renyi(n, float(rng.uniform(0.02, 0.4)), seed)
    epn = int(rng.integers(1, min(6, n)))
    return gen_preferential(n, epn, seed)


def strongly_connected_digraph(rng: np.random.Generator, max_n: int = 30) -> DirectedGraph:
    """Random Hamiltonian cycle plus extra edges: strongly connected by construction."""
    n = int(rng.integers(3, max_n + 1))
    labels = [f"v{i:03d}" for i in range(n)]
    order = list(rng.permutation(n))
    edges = {(labels[a], labels[b]) for a, b in zip(order, order[1:] + order[:1])}
    for _ in range(2 * n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((labels[a], labels[b]))
    return DirectedGraph.from_edges(sorted(edges))


def bigrid(side: int) -> DirectedGraph:
    """side x side grid with both directions on every edge: deep BFS levels
    and many tied shortest paths."""

    def label(i: int, j: int) -> str:
        return f"r{i:02d}c{j:02d}"

    edges = []
    for i in range(side):
        for j in range(side):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < side and b < side:
                    edges += [(label(i, j), label(a, b)), (label(a, b), label(i, j))]
    return DirectedGraph.from_edges(edges)


def scalar_path_centralities(g: DirectedGraph) -> tuple[list[float], list[float]]:
    """Reference (betweenness, closeness) by node index: one FIFO BFS per
    source with Python-int path counts, accumulating in the classic
    one-source-at-a-time order that the vectorized sweep must reproduce."""
    n = g.n
    indptr, indices = (a.tolist() for a in g.csr)
    adj = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]
    betweenness = [0.0] * n
    closeness = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s], sigma[s] = 0, 1
        queue = deque([s])
        visited: list[int] = []
        while queue:
            v = queue.popleft()
            visited.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(visited):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                betweenness[w] += delta[w]
        reached = len(visited) - 1
        if reached:
            total = sum(dist[v] for v in visited)
            closeness[s] = (reached / (n - 1)) * (reached / total)
    return betweenness, closeness


def cumsum_preferential(n: int, edges_per_node: int, seed: int) -> DirectedGraph:
    """Reference preferential attachment: one ``cumsum`` and ``searchsorted``
    per draw over float weights, the O(n * m) loop whose draw stream and
    picks the Fenwick descent must reproduce."""
    labels = _labels(n)
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


def dumps_json(g: DirectedGraph) -> str:
    """Reference ``to_json``: the standard library's indented encoder."""
    doc = {"nodes": g.nodes, "edges": g.edges}  # json writes tuples as arrays
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
