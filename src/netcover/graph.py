"""Immutable directed graphs, text ingestion, and whole-graph statistics.

The graph is stored as a sorted node tuple plus a sorted edge tuple.  At
construction it also derives, once, the one integer adjacency every traversal
reads (``index``: label -> position in ``nodes``; ``csr``: read-only numpy
arrays ``(indptr, indices)`` of each node's out-neighbor positions, ascending)
and each node's in-neighbor label set, which is the coverage set.  Node labels
are opaque non-empty strings; every ordering decision downstream (rank
tie-breaks, serialized output, scan order) falls back on plain lexicographic
label comparison, so graphs built from the same data behave identically run
to run.

Ingestion dedups edges and drops self-loops, counting both into an
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
from typing import Iterable

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
    _in: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
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
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be sorted and unique; use from_edges()")
        index = {v: i for i, v in enumerate(nodes)}
        tails, heads = [], []
        incoming: list[list[str]] = [[] for _ in nodes]
        for s, t in edges:
            if s == t:
                raise ValueError(f"self-loop {s!r}; use from_edges()")
            i, j = index.get(s), index.get(t)
            if i is None or j is None:
                raise ValueError(f"edge ({s!r}, {t!r}) has an endpoint outside nodes")
            tails.append(i)
            heads.append(j)  # edges are sorted, so each row comes out ascending
            incoming[j].append(s)
        indptr = np.zeros(len(nodes) + 1, dtype=np.intp)
        np.cumsum(np.bincount(tails, minlength=len(nodes)), out=indptr[1:])
        indices = np.array(heads, dtype=np.intp)
        indptr.flags.writeable = indices.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "csr", (indptr, indices))
        object.__setattr__(self, "_in", dict(zip(nodes, map(frozenset, incoming))))

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
        seen: set[tuple[str, str]] = set()
        node_set: set[str] = set()
        duplicates = 0
        self_loops = 0
        for s, t in edges:
            for label in (s, t):
                if not isinstance(label, str) or not label:
                    raise ValueError(f"node labels must be non-empty strings, got {label!r}")
            node_set.add(s)
            node_set.add(t)
            if s == t:
                self_loops += 1
                continue
            if (s, t) in seen:
                duplicates += 1
                continue
            seen.add((s, t))
        for label in nodes:
            if not isinstance(label, str) or not label:
                raise ValueError(f"node labels must be non-empty strings, got {label!r}")
            node_set.add(label)
        return cls(
            nodes=tuple(sorted(node_set)),
            edges=tuple(sorted(seen)),
            ingest=IngestReport(duplicates=duplicates, self_loops=self_loops),
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

    def _position(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownNodeError(v) from None

    def in_neighbors(self, v: str) -> frozenset[str]:
        """Nodes with an edge into ``v``."""
        try:
            return self._in[v]
        except KeyError:
            raise UnknownNodeError(v) from None

    def _row(self, v: str) -> np.ndarray:
        indptr, indices = self.csr
        i = self._position(v)
        return indices[indptr[i] : indptr[i + 1]]

    def out_neighbors(self, v: str) -> frozenset[str]:
        """Nodes ``v`` has an edge to (built on demand from ``csr``)."""
        return frozenset(self.nodes[j] for j in self._row(v).tolist())

    def in_degree(self, v: str) -> int:
        return len(self.in_neighbors(v))

    def out_degree(self, v: str) -> int:
        return len(self._row(v))


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
    for row in reader:
        line = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [cell.strip() for cell in row]
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
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of [source, target] pairs')
    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edge {i} is not a [source, target] pair")
        s, t = pair
        if not isinstance(s, str) or not isinstance(t, str) or not s or not t:
            raise ParseError(f"edge {i} labels must be non-empty strings")
        edges.append((s, t))
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
    doc = {"nodes": list(g.nodes), "edges": [[s, t] for s, t in g.edges]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
