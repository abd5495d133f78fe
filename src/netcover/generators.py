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
  The target of a draw ``u`` is the first node whose cumulative weight
  exceeds ``u * total``; it is found by descending a Fenwick tree over the
  integer weights in O(log n) per draw, which picks exactly the node a
  cumulative-sum search would, and a draw that rounds ``u * total`` up to
  ``total`` picks the last node that still has weight.
"""

from __future__ import annotations

from array import array

import numpy as np

from .graph import DirectedGraph


def _labels(n: int) -> list[str]:
    """Zero-padded labels for ``n`` nodes; both models need n >= 2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    width = len(str(n - 1))
    return [f"{i:0{width}d}" for i in range(n)]


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def gen_erdos_renyi(n: int, p: float, seed: int) -> DirectedGraph:
    """Each ordered pair (u, v), u != v, is an edge independently with prob p."""
    labels = _labels(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erdos_renyi needs p in [0, 1], got {p}")
    rng = _rng(seed)
    ends = array("q")  # tail, head, tail, ...: node positions
    for i in range(n):
        row = rng.random(n)  # row i of the row-major n x n draw stream
        row[i] = np.inf  # the diagonal draw is discarded
        targets = np.flatnonzero(row < p)
        pairs = np.empty((len(targets), 2), np.int64)
        pairs[:, 0] = i
        pairs[:, 1] = targets
        ends.frombytes(pairs.tobytes())
    return DirectedGraph.from_edges(np.frombuffer(ends, np.int64).reshape(-1, 2), labels)


def gen_preferential(n: int, edges_per_node: int, seed: int) -> DirectedGraph:
    """Sequential arrivals; new nodes point at in-degree-popular targets.

    Targets are found by Fenwick descent over the integer weights
    (in-degree + 1, or 0 while already chosen by the arriving node) in
    O(log n) per draw.  The prefix sums are exact ints and Python compares an
    int with a float exactly, so each draw ``u`` picks the first node whose
    prefix sum exceeds ``u * total``: the draw stream and the graph are those
    of a per-draw cumulative-sum search.
    """
    labels = _labels(n)
    if edges_per_node < 1:
        raise ValueError(
            f"preferential_attachment needs edges_per_node >= 1, got {edges_per_node}"
        )
    rng = _rng(seed)
    size = 1 << n.bit_length()  # a power of two > n: the descent needs no bound check
    tree = [0] * size  # 1-based Fenwick tree over weight
    weight = [0] * n
    total = 0
    ends = array("q")  # tail, head, tail, ...: node positions

    def add(j: int, delta: int) -> None:
        pos = j + 1
        while pos < size:
            tree[pos] += delta
            pos += pos & -pos

    for i in range(1, n):
        add(i - 1, 1)  # node i - 1 arrives with weight 1
        weight[i - 1] = 1
        total += 1
        chosen: list[tuple[int, int]] = []
        for u in rng.random(min(edges_per_node, i)).tolist():
            r = u * total
            if r >= total:  # the rounding edge: pick the last weighted node
                r = total - 0.5
            # the largest prefix <= r ends at j, so node j is the first whose
            # prefix sum exceeds r
            j = acc = 0
            step = size >> 1
            while step:
                s = acc + tree[j + step]
                if s <= r:
                    j += step
                    acc = s
                step >>= 1
            w = weight[j]
            ends.append(i)
            ends.append(j)
            chosen.append((j, w))
            add(j, -w)
            weight[j] = 0
            total -= w
        for j, w in chosen:  # each chosen target gained one in-edge
            add(j, w + 1)
            weight[j] = w + 1
            total += w + 1
    return DirectedGraph.from_edges(np.frombuffer(ends, np.int64).reshape(-1, 2), labels)
