"""Coverage-driven seed selection on directed graphs.

A node's coverage set is itself plus its in-neighbors: the people who named
it, plus the node.  Selecting a set of nodes covers the union of their
coverage sets; the goal is to reach a target fraction of the whole graph
with as few picks as possible.

:func:`greedy_select` picks, each round, the node contributing the most
not-yet-covered nodes.  Coverage is submodular: a node's marginal gain can
only shrink as the covered set grows, so a gain computed in an earlier round
(or the initial ``in_degree + 1``) is an upper bound on its gain now.  The
selector keeps those stale bounds in a heap (accelerated lazy greedy, or
CELF: Minoux 1978; Leskovec et al. 2007) and re-evaluates only the candidate
on top; once the top entry is fresh, no other candidate can beat it.  With
the scan position as the tie key this returns exactly the picks of an
exhaustive rescan that lets the first candidate in (in-degree descending,
label ascending) order win ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .centrality import Rank, degree_centrality, to_rank
from .graph import DirectedGraph, _edge_positions


@dataclass(frozen=True)
class CoverageSet:
    """Covered node set with its fraction of the whole graph."""

    covered: frozenset[str]
    fraction: float


def _check_fraction(name: str, value: float) -> None:
    """Reject a coverage fraction outside (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class SelectionResult:
    """Ordered picks with coverage after each pick.

    ``target`` is the requested coverage fraction for greedy runs; rank-based
    and truncated selections carry ``None``.  Greedy cumulative coverage is
    strictly increasing; rank-based selections are only non-decreasing, since
    a low-rank node can already be covered.
    """

    method: str
    picks: tuple[str, ...]
    cumulative: tuple[float, ...]
    target: float | None = None

    def truncated(self, k: int) -> "SelectionResult":
        """First ``k`` picks (or all of them, if fewer were made)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return replace(
            self, picks=self.picks[:k], cumulative=self.cumulative[:k], target=None
        )

    def reaching(self, target: float) -> "SelectionResult":
        """Shortest prefix whose coverage reaches ``target`` (all picks if none does)."""
        _check_fraction("target", target)
        k = next(
            (i + 1 for i, c in enumerate(self.cumulative) if c >= target), len(self.picks)
        )
        return self.truncated(k)


def node_coverage(g: DirectedGraph, v: str) -> frozenset[str]:
    """The node itself plus everyone with an edge into it."""
    return frozenset([v, *map(g.nodes.__getitem__, g._row(v, g.in_csr).tolist())])


def set_coverage(g: DirectedGraph, selected: Iterable[str]) -> CoverageSet:
    """Union of per-node coverage over ``selected``, as set and fraction."""
    covered: set[str] = set()
    for v in selected:
        covered |= node_coverage(g, v)
    fraction = len(covered) / g.n
    return CoverageSet(covered=frozenset(covered), fraction=fraction)


def greedy_select(
    g: DirectedGraph, target_coverage: float = 0.8, k: int | None = None
) -> SelectionResult:
    """Select nodes greedily by marginal coverage until the target is met,
    or until ``k`` nodes are picked when ``k`` is given, whichever is first.

    A heap holds ``(-gain bound, scan position, node, round evaluated)`` per
    unpicked node, seeded with ``in_degree + 1`` in scan order: the in-degree
    baseline's rank (:func:`to_rank` of :func:`degree_centrality`, in-degree
    descending, label ascending).  Each round re-evaluates the top entry until
    the top was evaluated this round; every other entry's bound, and so its
    true gain, is then smaller, or equal and later in scan order, so the top
    is the first candidate in scan order with the largest gain.  While
    coverage is below 1.0 some node is uncovered and contributes at least
    itself, so every round makes progress and the run stops at exactly the
    first pick reaching the target.  The picks are the same either way: a
    budget cuts the run, not the order.
    """
    _check_fraction("target_coverage", target_coverage)
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    # sorted by bound, then scan position, so already a heap
    rank = to_rank(degree_centrality(g))
    n = g.n
    heap = list(
        zip(
            (-1 - np.diff(g.in_csr[0])[rank.perm]).tolist(),  # -(in_degree + 1)
            range(n),
            rank.order,
            [-1] * n,
        )
    )
    covered: set[str] = set()
    picks: list[str] = []
    cumulative: list[float] = []

    budget = n if k is None else k
    while len(covered) / n < target_coverage and len(picks) < budget:
        _, pos, v, evaluated = heap[0]
        if evaluated == len(picks):
            heapq.heappop(heap)
            covered |= node_coverage(g, v)
            picks.append(v)
            cumulative.append(len(covered) / n)
        else:
            gain = len(node_coverage(g, v) - covered)
            heapq.heapreplace(heap, (-gain, pos, v, len(picks)))

    return SelectionResult(
        method="greedy",
        picks=tuple(picks),
        cumulative=tuple(cumulative),
        target=target_coverage,
    )


def centrality_rank_select(g: DirectedGraph, rank: Rank) -> SelectionResult:
    """Every node in rank order, with coverage after each pick.

    This is the one rank-prefix coverage routine.  It returns the whole
    curve; callers cut it with :meth:`SelectionResult.truncated` at a budget
    or :meth:`SelectionResult.reaching` at a coverage target.  A node is
    first covered by the best-ranked of itself and the nodes it names, so one
    pass over ``g.csr`` gives the whole curve.
    """
    if rank.nodes != g.nodes:
        raise ValueError("rank does not cover the graph's node set")
    at = np.argsort(rank.perm)  # each node's place in the rank
    tails, heads = _edge_positions(g.csr)
    first = at.copy()
    np.minimum.at(first, tails, at[heads])
    cumulative = np.cumsum(np.bincount(first, minlength=g.n)) / g.n
    return SelectionResult(
        method=rank.measure,
        picks=rank.order,
        cumulative=tuple(cumulative.tolist()),
        target=None,
    )
