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
  exceeds ``u * total``, and a draw that rounds ``u * total`` up to
  ``total`` picks the last node that still has weight.  The uniforms come
  from one stream, drawn a fixed-size chunk at a time, so the stream is that
  of one call per draw.  Each node's weight is a run of integer units: the
  draw's unit ``floor(u * total)`` skips the runs of the targets already
  chosen, and one Fenwick descent over the unit counts finds its owner in
  O(log n), exactly the node a cumulative-sum search picks.
"""

from __future__ import annotations

from array import array
from bisect import insort
from itertools import islice
from typing import Iterator

import numpy as np

from .graph import DirectedGraph

#: Uniforms per ``rng.random`` call of the preferential-attachment draws: the
#: stream is the same for any chunk size, and only one chunk is held.
_DRAW_CHUNK = 4096


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

    Node j owns ``weight[j]`` units, laid out in node order.  A draw ``u``
    against the arriving node's eligible total ``t`` (its chosen targets left
    out) picks unit ``k = floor(u * t)``, or ``t - 1`` at the rounding edge.
    An integer prefix sum is <= ``u * t`` exactly when it is <= ``k``, so the
    owner of unit k among the eligible units is the node a cumulative-sum
    search picks.  ``k`` becomes a unit index among all units by skipping the
    sorted ``(start, width)`` runs of the chosen targets, at most
    ``edges_per_node`` of them, and one descent of the Fenwick tree over the
    unit counts finds its owner in O(log n).  The tree is written once per
    arrival and once per edge, after the arrival's draws.  The skip and the
    sorted insert cost O(edges_per_node) per draw, so an arrival costs
    O(edges_per_node * (edges_per_node + log n)).
    """
    labels = _labels(n)
    if edges_per_node < 1:
        raise ValueError(
            f"preferential_attachment needs edges_per_node >= 1, got {edges_per_node}"
        )
    ends = _attach(n, edges_per_node, _rng(seed))
    return DirectedGraph.from_edges(np.frombuffer(ends, np.int64).reshape(-1, 2), labels)


def _attach(n: int, edges_per_node: int, rng: np.random.Generator) -> array:
    """:func:`gen_preferential`'s edges as ``tail, head, tail, ...`` node positions.

    Its own frame, so the tree, the weights and the draw chunk are freed before
    ``from_edges`` runs.
    """
    draws = _uniforms(rng)
    size = 1 << n.bit_length()  # a power of two > n: the descent needs no bound check
    steps = [size >> b for b in range(1, n.bit_length() + 1)]
    tree = [0] * size  # 1-based Fenwick tree over weight
    weight = [1] * n  # in-degree + 1
    ends = array("q")  # tail, head, tail, ...: node positions

    def add(j: int) -> None:  # one more unit for node j
        pos = j + 1
        while pos < size:
            tree[pos] += 1
            pos += pos & -pos

    total = 0
    for i in range(1, n):
        add(i - 1)  # node i - 1 arrives with weight 1
        total += 1
        eligible = total
        chosen: list[tuple[int, int]] = []  # the chosen targets' runs, by start
        for u in islice(draws, min(edges_per_node, i)):
            r = u * eligible
            k = int(r) if r < eligible else eligible - 1
            for start, width in chosen:  # unit k of the eligible ones, among all
                if start > k:
                    break
                k += width
            # the largest prefix <= k ends at j, so node j owns unit k
            j = acc = 0
            for step in steps:
                s = acc + tree[j + step]
                if s <= k:
                    j += step
                    acc = s
            w = weight[j]
            insort(chosen, (acc, w))
            eligible -= w
            ends.append(i)
            ends.append(j)
        for j in ends[1 - 2 * len(chosen) :: 2]:  # each chosen target gained one in-edge
            add(j)
            weight[j] += 1
        total += len(chosen)
    return ends


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The uniforms of ``rng`` one by one, drawn ``_DRAW_CHUNK`` at a time.

    A memoryview yields each as a float on demand, so a chunk is held as its
    8-byte doubles, not as a list of float objects.
    """
    while True:
        yield from memoryview(rng.random(_DRAW_CHUNK))
