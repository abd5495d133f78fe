"""Coverage-driven seed selection on directed graphs.

A node's coverage set is itself plus its in-neighbors: the people who named
it, plus the node.  Selecting a set of nodes covers the union of their
coverage sets; the goal is to reach a target fraction of the whole graph
with as few picks as possible.

:func:`greedy_select` picks, each round, the node contributing the most
not-yet-covered nodes.  Because a node's marginal contribution can never
exceed its in-degree plus one, scanning candidates in in-degree-descending
order lets the scan stop early: once the best marginal seen is at least
``in_degree(next) + 1``, no later candidate can strictly beat it.  This lazy
scan provably returns exactly the same picks as an exhaustive rescan with
the same tie-break (first candidate in scan order wins ties), just faster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .centrality import Rank
from .graph import DirectedGraph


@dataclass(frozen=True)
class CoverageSet:
    """Covered node set with its fraction of the whole graph."""

    covered: frozenset[str]
    fraction: float


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
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target}")
        k = next(
            (i + 1 for i, c in enumerate(self.cumulative) if c >= target), len(self.picks)
        )
        return self.truncated(k)


def node_coverage(g: DirectedGraph, v: str) -> frozenset[str]:
    """The node itself plus everyone with an edge into it."""
    return g.in_neighbors(v) | {v}


def set_coverage(g: DirectedGraph, selected: Iterable[str]) -> CoverageSet:
    """Union of per-node coverage over ``selected``, as set and fraction."""
    covered: set[str] = set()
    for v in selected:
        covered |= node_coverage(g, v)
    fraction = len(covered) / g.n if g.n else 0.0
    return CoverageSet(covered=frozenset(covered), fraction=fraction)


def greedy_select(g: DirectedGraph, target_coverage: float = 0.8) -> SelectionResult:
    """Select nodes greedily by marginal coverage until the target is met.

    Candidates are scanned in (in-degree descending, label ascending) order;
    each round picks the first candidate with the largest marginal
    contribution against the current covered set, stopping the scan as soon
    as the best marginal so far reaches the next candidate's upper bound
    ``in_degree + 1``.  While coverage is below 1.0 some node is uncovered
    and contributes at least itself, so every round makes progress and the
    run stops at exactly the first pick reaching the target.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError(f"target_coverage must be in (0, 1], got {target_coverage}")
    if g.n == 0:
        raise ValueError("cannot select from an empty graph")

    order = sorted(g.nodes, key=lambda v: (-g.in_degree(v), v))
    bound = {v: g.in_degree(v) + 1 for v in order}
    n = g.n
    covered: set[str] = set()
    selected: set[str] = set()
    picks: list[str] = []
    cumulative: list[float] = []

    while len(covered) / n < target_coverage:
        best: str | None = None
        best_gain = -1
        for v in order:
            if v in selected:
                continue
            if best_gain >= bound[v]:
                break
            gain = len(node_coverage(g, v) - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        assert best is not None, "unreachable: an uncovered node always remains"
        selected.add(best)
        covered |= node_coverage(g, best)
        picks.append(best)
        cumulative.append(len(covered) / n)

    return SelectionResult(
        method="greedy",
        picks=tuple(picks),
        cumulative=tuple(cumulative),
        target=target_coverage,
    )


def centrality_rank_select(g: DirectedGraph, rank: Rank, k: int) -> SelectionResult:
    """Take the first ``k`` nodes of a rank, with coverage after each pick.

    This is the one rank-prefix coverage routine: evaluation tables read its
    ``cumulative`` curve, and :meth:`SelectionResult.reaching` cuts it at a
    coverage target.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    if set(rank.order) != set(g.nodes):
        raise ValueError("rank does not cover the graph's node set")
    covered: set[str] = set()
    cumulative: list[float] = []
    for v in rank.order[:k]:
        covered |= node_coverage(g, v)
        cumulative.append(len(covered) / g.n)
    return SelectionResult(
        method=rank.measure,
        picks=tuple(rank.order[:k]),
        cumulative=tuple(cumulative),
        target=None,
    )
