"""Immutable directed graphs, text ingestion, and whole-graph statistics.

The graph is stored as a sorted node tuple plus a sorted edge tuple.  At
construction it also derives, once, the integer adjacency every traversal
reads: ``index`` (label -> position in ``nodes``) and two read-only numpy CSRs
``(indptr, indices)``, ``csr`` listing each node's out-neighbor positions and
``in_csr`` its in-neighbor positions, each row ascending.  Neighbor label sets
are built from a row on demand.  Node labels are opaque non-empty strings;
every ordering decision downstream (rank tie-breaks, serialized output, scan
order) falls back on plain lexicographic label comparison, so graphs built
from the same data behave identically run to run.

Canonicalization happens once, on integer positions: ``from_edges`` and the
constructor both map labels to positions in the sorted node list and decide
order, duplicates and self-loops on the keys ``tail * n + head``.  Ingestion
(``from_edges``) dedups edges and drops self-loops, counting both into an
:class:`IngestReport` carried on the graph (excluded from equality).  A node
that appears only as an edge target is still a node; isolated nodes survive
the JSON format, which carries an explicit node list, but not the CSV edge
list.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed graph input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class UnknownNodeError(LookupError):
    """A node label that is not part of the graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown node {label!r}")


@dataclass(frozen=True)
class IngestReport:
    """Counts of rows silently dropped while building a graph."""

    duplicates: int = 0
    self_loops: int = 0


@dataclass(frozen=True)
class DirectedGraph:
    """A simple directed graph (no self-loops, no parallel edges).

    ``nodes`` is sorted lexicographically and ``edges`` is a sorted tuple of
    ``(source, target)`` pairs; both are canonical, so two graphs over the
    same data compare equal regardless of input order.  Build instances with
    :meth:`from_edges` (or the parse functions), which normalize raw edge
    lists; the constructor itself insists on already-canonical input.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    ingest: IngestReport = field(default_factory=IngestReport, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    #: ``(indptr, indices)``: node ``i``'s out-neighbors are
    #: ``indices[indptr[i]:indptr[i + 1]]``, ascending; read-only ``np.intp``.
    csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    #: The same layout for in-neighbors: the transpose of ``csr``.
    in_csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    #: Whole-graph results that analysis modules derive from this immutable
    #: graph, keyed by analysis and computed at most once per graph.
    memo: dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        nodes, edges = self.nodes, self.edges
        if any(a >= b for a, b in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be sorted and unique; use from_edges()")
        if any(not isinstance(v, str) or not v for v in nodes):
            raise ValueError("node labels must be non-empty strings")
        index = {v: i for i, v in enumerate(nodes)}
        tails, heads = _positions(edges, index)
        outside = (tails < 0) | (heads < 0)
        if outside.any():
            s, t = edges[outside.argmax()]
            raise ValueError(f"edge ({s!r}, {t!r}) has an endpoint outside nodes")
        # nodes are sorted, so the keys order like the label pairs (int64: no
        # n * n overflow on a 32-bit build)
        keys = tails.astype(np.int64) * len(nodes) + heads
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("edges must be sorted and unique; use from_edges()")
        loops = tails == heads
        if loops.any():
            raise ValueError(f"self-loop {edges[loops.argmax()][0]!r}; use from_edges()")
        object.__setattr__(self, "index", index)
        # edges are sorted, so each row comes out ascending
        object.__setattr__(self, "csr", _csr(tails, heads, len(nodes)))
        object.__setattr__(self, "in_csr", _csr(heads, tails, len(nodes)))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        nodes: Iterable[str] = (),
    ) -> "DirectedGraph":
        """Build a graph from raw edges, deduplicating and dropping self-loops.

        ``nodes`` adds labels beyond the edge endpoints (isolated nodes).
        Endpoints of dropped self-loops are still retained as nodes.
        """
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        node_set: set[str] = set(nodes)
        for s, t in edges:
            node_set.add(s)
            node_set.add(t)
        for label in node_set:
            if not isinstance(label, str) or not label:
                raise ValueError(f"node labels must be non-empty strings, got {label!r}")
        labels = sorted(node_set)
        tails, heads = _positions(edges, {v: i for i, v in enumerate(labels)})
        kept = np.flatnonzero(tails != heads)
        keys = tails[kept].astype(np.int64) * len(labels) + heads[kept]
        order = np.argsort(keys, kind="stable")
        unique = kept[order[np.diff(keys[order], prepend=-1) != 0]]
        # the first of each pair as the caller gave it: tuple() returns a tuple
        # itself, so a large edge list is not copied, and list pairs convert
        return cls(
            nodes=tuple(labels),
            edges=tuple(map(tuple, map(edges.__getitem__, unique))),
            ingest=IngestReport(
                duplicates=len(keys) - len(unique), self_loops=len(edges) - len(keys)
            ),
        )

    # ---- size -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    # ---- adjacency --------------------------------------------------------

    def has_node(self, v: str) -> bool:
        return v in self.index

    def _row(self, v: str, csr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        indptr, indices = csr
        try:
            i = self.index[v]
        except KeyError:
            raise UnknownNodeError(v) from None
        return indices[indptr[i] : indptr[i + 1]]

    def _labels(self, row: np.ndarray) -> frozenset[str]:
        return frozenset(map(self.nodes.__getitem__, row.tolist()))

    def in_neighbors(self, v: str) -> frozenset[str]:
        """Nodes with an edge into ``v`` (built on demand from ``in_csr``)."""
        return self._labels(self._row(v, self.in_csr))

    def out_neighbors(self, v: str) -> frozenset[str]:
        """Nodes ``v`` has an edge to (built on demand from ``csr``)."""
        return self._labels(self._row(v, self.csr))

    def in_degree(self, v: str) -> int:
        return len(self._row(v, self.in_csr))

    def out_degree(self, v: str) -> int:
        return len(self._row(v, self.csr))


def _positions(edges: Sequence, index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """``(tails, heads)``: each edge's endpoint positions in ``index``, -1 outside it."""
    tails = np.fromiter((index.get(s, -1) for s, _ in edges), np.intp, len(edges))
    heads = np.fromiter((index.get(t, -1) for _, t in edges), np.intp, len(edges))
    return tails, heads


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, indices)``: ``cols[e]`` in row ``rows[e]``, in ``e`` order."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[np.argsort(rows, kind="stable")]
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


@dataclass(frozen=True)
class GraphStats:
    """Node/edge counts plus density and average total degree.

    ``density`` is m / (n * (n - 1)) for n >= 2, else 0.  ``avg_degree`` uses
    the total-degree convention 2m / n (each edge contributes to one
    out-degree and one in-degree).
    """

    n: int
    m: int
    density: float
    avg_degree: float


def graph_stats(g: DirectedGraph) -> GraphStats:
    n, m = g.n, g.m
    density = m / (n * (n - 1)) if n >= 2 else 0.0
    avg_degree = 2 * m / n if n >= 1 else 0.0
    return GraphStats(n=n, m=m, density=density, avg_degree=avg_degree)


# ---- parsing ---------------------------------------------------------------

_FORMATS = ("csv", "json")


def parse_edge_list(text: str, fmt: str = "csv") -> DirectedGraph:
    """Parse a graph from CSV edge-list or JSON graph-document text.

    CSV rows are ``source,target`` with an optional third column (ignored)
    and an optional header, detected by a first cell equal to ``source``.
    JSON is ``{"edges": [[s, t], ...], "nodes": [...]}`` where ``nodes`` is
    optional and may list isolated nodes.  Duplicate edges and self-loops are
    dropped and counted in the returned graph's ``ingest`` report.

    Raises :class:`ParseError` on malformed rows (with a line number for
    CSV) and on input that yields no nodes at all.
    """
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


def _parse_csv(text: str) -> DirectedGraph:
    edges: list[tuple[str, str]] = []
    reader = csv.reader(io.StringIO(text))
    first_data_row = True
    try:
        for row in reader:
            line = reader.line_num
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if first_data_row:
                first_data_row = False
                if cells[0].casefold() == "source":
                    continue
            if len(cells) not in (2, 3):
                raise ParseError(f"expected 2 or 3 columns, got {len(cells)}", line)
            s, t = cells[0], cells[1]
            if not s or not t:
                raise ParseError("empty node label", line)
            edges.append((s, t))
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(e), reader.line_num) from None
    if not edges:
        raise ParseError("empty graph")
    return DirectedGraph.from_edges(edges)


def _parse_json(text: str) -> DirectedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or "edges" not in doc:
        raise ParseError('expected a JSON object with an "edges" list')
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list of [source, target] pairs')
    for i, pair in enumerate(edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edge {i} is not a [source, target] pair")
        s, t = pair
        if not isinstance(s, str) or not isinstance(t, str) or not s or not t:
            raise ParseError(f"edge {i} labels must be non-empty strings")
    nodes = doc.get("nodes", [])
    if not isinstance(nodes, list):
        raise ParseError('"nodes" must be a list of labels')
    for label in nodes:
        if not isinstance(label, str) or not label:
            raise ParseError("node labels must be non-empty strings")
    if not edges and not nodes:
        raise ParseError("empty graph")
    return DirectedGraph.from_edges(edges, nodes=nodes)


# ---- serialization ---------------------------------------------------------


def to_csv(g: DirectedGraph) -> str:
    """CSV edge list with header, edges in sorted order (byte-stable).

    CSV carries edges only: isolated nodes do not round-trip through this
    format.  Use :func:`to_json` when the node list matters.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target"])
    for s, t in g.edges:
        writer.writerow([s, t])
    return buf.getvalue()


def to_json(g: DirectedGraph) -> str:
    """JSON graph document with sorted node and edge lists (byte-stable)."""
    doc = {"nodes": g.nodes, "edges": g.edges}  # json writes tuples as arrays
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
