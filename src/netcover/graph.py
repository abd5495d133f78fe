"""Immutable directed graphs, text ingestion, and whole-graph statistics.

A graph is its sorted node labels plus integer adjacency over their
positions: ``index`` (label -> position in ``nodes``) and two read-only numpy
CSRs ``(indptr, indices)``, ``csr`` listing each node's out-neighbor
positions and ``in_csr`` its in-neighbor positions, each row ascending.
Every traversal reads the CSRs; labels appear only at the boundary.
Neighbor label sets are built from a row on demand, ``edges`` (the sorted
tuple of ``(source, target)`` label pairs) is built from ``csr`` on first
access, and the serializers walk the CSR a chunk of edges at a time, with
each label encoded once, returning the text or writing it to a file.  Node
labels are opaque non-empty strings; every ordering decision downstream (rank
tie-breaks, serialized output, scan order) falls back on plain lexicographic
label comparison, so graphs built from the same data behave identically run
to run.

``DirectedGraph.from_edges`` is the only constructor; the parsers and the
generators feed it.  It takes label pairs, read in one streaming pass that
gives each label a first-seen id (so it never holds a list of label pairs),
or an ``(m, 2)`` integer array of positions into distinct labels, which the
CSV parser and the generators hand it.  Either way it then sorts the labels
once, moves the positions to sorted ones, decides order, duplicates and
self-loops on the sorted integer keys ``tail * n + head``, and lays out the
in-edges by sorting the keys ``head * n + tail``.  Duplicates and
self-loops are dropped and counted into an :class:`IngestReport` carried on
the graph (excluded from equality).  A node
that appears only as an edge target is still a node; isolated nodes survive
the JSON format, which carries an explicit node list, but not the CSV edge
list.  A graph has at least one node: ``from_edges`` refuses input that names
none with :class:`ParseError`, so no analysis downstream checks for an empty
graph.

CSV text goes through one whole-text numpy tokenizer when ``csv.reader``
would provably read it the same way: no quote or NUL, no ``\\r`` outside
``\\r\\n``, 2 or 3 cells on every line that is not empty, no empty first or
second cell and no cell over ``csv.field_size_limit()``.  Any other text
goes whole to ``csv.reader``, whose rows, errors and line numbers are the
reference.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Iterable, Iterator, TextIO

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


@dataclass(frozen=True, init=False, eq=False)
class DirectedGraph:
    """A simple directed graph (no self-loops, no parallel edges).

    ``nodes`` is sorted lexicographically and the edges are held as the
    integer CSRs ``csr`` and ``in_csr`` over node positions; ``edges`` is
    their sorted tuple of ``(source, target)`` label pairs, built on first
    access.  Both are canonical, so two graphs over the same data compare
    equal regardless of input order.  :meth:`from_edges` (which the parse
    functions call) is the only constructor and the only code that sets these
    fields; ``DirectedGraph(...)`` itself raises ``TypeError``.  ``nodes`` is
    never empty.
    """

    nodes: tuple[str, ...]
    ingest: IngestReport
    index: dict[str, int] = field(repr=False)
    #: ``(indptr, indices)``: node ``i``'s out-neighbors are
    #: ``indices[indptr[i]:indptr[i + 1]]``, ascending; read-only ``np.intp``.
    csr: tuple[np.ndarray, np.ndarray] = field(repr=False)
    #: The same layout for in-neighbors: the transpose of ``csr``.
    in_csr: tuple[np.ndarray, np.ndarray] = field(repr=False)
    #: Whole-graph results that analysis modules derive from this immutable
    #: graph, keyed by analysis and computed at most once per graph.
    memo: dict[str, object] = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("DirectedGraph() builds no graph; use DirectedGraph.from_edges")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]] | np.ndarray,
        nodes: Iterable[str] = (),
    ) -> "DirectedGraph":
        """Build a graph from raw edges, deduplicating and dropping self-loops.

        ``nodes`` adds labels beyond the edge endpoints (isolated nodes).
        Endpoints of dropped self-loops are still retained as nodes.  ``edges``
        is read once, so it may be any iterable of label pairs, a generator
        included.  It may instead be an ``(m, 2)`` integer array of positions
        into ``nodes`` (any signed integer type), whose labels must then be
        distinct; the CSV parser and
        the generators hand their edges over this way.  Raises
        :class:`ParseError` ``"empty graph"`` when neither argument names a
        node.
        """
        if isinstance(edges, np.ndarray):
            labels = list(nodes)
            if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind != "i":
                raise ValueError(
                    f"edge positions must be an (m, 2) signed integer array, got "
                    f"{edges.dtype} {edges.shape}"
                )
            if len(edges) and (edges.min() < 0 or edges.max() >= len(labels)):
                raise ValueError(f"edge positions must lie in [0, {len(labels)})")
            ends = edges
        else:
            ids: defaultdict[str, int] = defaultdict()
            ids.default_factory = ids.__len__  # a new label takes the next id
            for v in nodes:
                ids[v]  # gives v an id
            flat = array("q")  # tail id, head id, tail id, ...
            append = flat.append
            for s, t in edges:
                append(ids[s])
                append(ids[t])
            labels = list(ids)
            ends = np.frombuffer(flat, np.int64).reshape(-1, 2)
            del flat, append  # ends holds the ids now
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"node labels must be non-empty strings, got {label!r}")
        if not labels:
            raise ParseError("empty graph")
        # from here on both forms are positions ``ends`` into ``labels``
        n = len(labels)
        nodes = sorted(labels)
        index = dict(zip(nodes, range(n)))
        if len(index) != n:
            raise ValueError("node labels given with edge positions must be distinct")
        tails, heads = ends[:, 0], ends[:, 1]
        if nodes != labels:  # move the positions to sorted ones
            position = np.fromiter(map(index.__getitem__, labels), np.int64, n)
            tails, heads = position[tails], position[heads]
        # int64 keys tail * n + head, so they cannot overflow on a 32-bit
        # build; each whole-edge array is dropped once it is used
        keep = tails != heads
        keys = np.multiply(tails, n, dtype=np.int64)
        keys += heads
        del tails, heads
        raw = len(keys)
        keys = keys[keep]
        del keep
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        kept = len(keys)
        keys = keys[first]
        del first
        ingest = IngestReport(duplicates=kept - len(keys), self_loops=raw - kept)
        # the keys are sorted, so the edges are in csr order: rows ascending;
        # the in-edges come in that order from the sorted keys head * n + tail
        tails = (keys // n).astype(np.intp, copy=False)
        heads = np.remainder(keys, n, out=keys).astype(np.intp, copy=False)
        back = np.multiply(heads, n, dtype=np.int64)
        back += tails
        back.sort()
        in_csr = _csr(heads, np.remainder(back, n, out=back).astype(np.intp, copy=False), n)
        csr = _csr(tails, heads, n)
        g = cls.__new__(cls)
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(g, "nodes", tuple(nodes))
        setattr_(g, "ingest", ingest)
        setattr_(g, "index", index)
        setattr_(g, "csr", csr)
        setattr_(g, "in_csr", in_csr)
        setattr_(g, "memo", {})
        return g

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Sorted ``(source, target)`` label pairs, built from ``csr`` on first access."""
        labels = np.array(self.nodes, dtype=object)
        tails, heads = _edge_positions(self.csr)
        return tuple(zip(labels[tails].tolist(), labels[heads].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.nodes == other.nodes and all(
            np.array_equal(a, b) for a, b in zip(self.csr, other.csr)
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.m))

    # ---- size -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.csr[1])

    # ---- adjacency --------------------------------------------------------

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


def _csr(rows: np.ndarray, indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, indices)`` of edges given in row order, edge ``e`` in row ``rows[e]``."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _edge_positions(csr: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(tails, heads)``: every edge's endpoint positions, in ``csr`` order."""
    indptr, indices = csr
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), indices


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
    avg_degree = 2 * m / n
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
    CSV), and :meth:`DirectedGraph.from_edges` raises it on input that yields
    no nodes at all.  A leading UTF-8 byte-order mark is dropped first.
    """
    text = text.removeprefix("\ufeff")
    if fmt == "csv":
        plain = _plain_csv(text)
        edges, nodes = (_csv_reader_pairs(text), ()) if plain is None else plain
        return DirectedGraph.from_edges(edges, nodes)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


#: Characters per tokenizer slice: whole lines, cut at the first ``\n`` past
#: this many.  Each slice is encoded and scanned on its own, so its bytes and
#: per-line index arrays stay small next to the text.
_CSV_SLICE = 2**16

#: ``_WORD_MASK[k]`` keeps the first ``k`` of a big-endian word's 8 bytes.
_WORD_MASK = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * k) - 1) for k in range(9)], np.uint64)


def _plain_csv(text: str) -> tuple[np.ndarray, list[str]] | None:
    """``(ends, labels)``: each data row's two cells as positions into ``labels``; or None.

    None unless ``csv.reader`` provably reads ``text`` as the same rows: no
    quote or NUL, every ``\\r`` ends a ``\\r\\n``, and the lines pass
    :func:`_csv_lines`, each slice read as UTF-8 bytes.  When every label
    fits in 8 bytes, each cell becomes one big-endian ``uint64`` key
    (zero-padded, so key order is byte order, which is code-point order) and
    the labels are the distinct keys, from one ``argsort``
    (:func:`_key_cells`); otherwise the cells are split with ``str.split``
    and take first-seen ids (:func:`_split_cells`).  Cells are stripped, as
    :func:`_csv_reader_pairs` strips them: the distinct labels are stripped
    and merged.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    try:
        plain = _key_cells(text) or _split_cells(text)
    except UnicodeEncodeError:  # a lone surrogate
        return None
    if plain is None:
        return None
    ends, labels = plain
    stripped = list(map(str.strip, labels))
    if stripped == labels:
        return ends, labels
    if "" in stripped:  # a blank cell: csv.reader skips its row or names it
        return None
    merged: defaultdict[str, int] = defaultdict()
    merged.default_factory = merged.__len__
    to = np.fromiter(map(merged.__getitem__, stripped), np.intp, len(stripped))
    return to[ends], list(merged)


def _csv_slices(text: str) -> tuple[Iterator[str], int] | None:
    """``(slices, rows)``: the data lines of ``text``; or None.

    ``slices`` yields them a slice of whole lines at a time, with ``\\r\\n``
    read as ``\\n``, after leading empty lines and a header; ``rows`` bounds
    the number of data rows.  The first line is a header when its stripped
    first cell is ``source``, in any case.  None if one of its cells is over
    ``csv.field_size_limit()`` characters, as ``csv.reader`` refuses it.
    """
    start = 0
    while text.startswith(("\n", "\r\n"), start):
        start = text.index("\n", start) + 1
    end = text.find("\n", start) + 1 or len(text)
    cells = text[start:end].rstrip("\r\n").split(",")
    if cells[0].strip().casefold() == "source":
        if max(map(len, cells)) > csv.field_size_limit():
            return None
        start = end
    bounds = []
    while start < len(text):
        end = text.find("\n", start + _CSV_SLICE - 1) + 1 or len(text)  # no \n: the rest
        bounds.append((start, end))
        start = end
    slices = (text[start:end].replace("\r\n", "\n") for start, end in bounds)
    return slices, text.count("\n") + 1


def _csv_lines(a: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The data rows of ``a``, whole lines of bytes; or None.

    Returns ``(first, starts, lengths)``: each data row's index of its first
    cell among the slice's cells split at every ``,`` and ``\\n``, and the
    byte offsets and lengths of its two cells, shaped ``(rows, 2)``.  None
    unless ``csv.reader`` reads these lines as the same rows: empty lines are
    skipped, every other line holds 2 or 3 cells, neither of the first two
    empty, and no cell is over ``limit`` bytes.  (Quotes, NUL and bare
    ``\\r`` are ruled out on the whole text.)
    """
    ends = np.flatnonzero(a == 10)
    if len(a) and a[-1] != 10:
        ends = np.append(ends, len(a))  # the last line has no \n
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    commas = np.flatnonzero(a == 44)
    upto = np.searchsorted(commas, ends)  # commas before each line's end
    before = np.empty_like(upto)  # and before its start
    before[:1] = 0
    before[1:] = upto[:-1]
    first = before + np.arange(len(ends))  # one cell per comma and one per line
    full = starts != ends
    if not full.all():  # empty lines
        ends, starts, upto, before, first = (x[full] for x in (ends, starts, upto, before, first))
    count = upto - before
    if not ((count == 1) | (count == 2)).all():
        return None
    lo = commas[before]  # each row's first comma
    hi = np.where(count == 2, commas[upto - 1], ends)  # and the end of its second cell
    cells = np.stack((starts, lo + 1), axis=1)
    lengths = np.stack((lo - starts, hi - lo - 1), axis=1)
    if len(ends) and (lengths.min() < 1 or max(lengths.max(), (ends - hi).max() - 1) > limit):
        return None
    return first, cells, lengths


def _ids_dtype(rows: int) -> type:
    """The integer type of label ids for up to ``rows`` rows: 32 bits while they fit."""
    return np.int32 if 2 * rows < 2**31 else np.int64


def _key_cells(text: str) -> tuple[np.ndarray, list[str]] | None:
    """:func:`_plain_csv` by 8-byte keys; None if not plain or a label is longer."""
    plain = _csv_slices(text)
    if plain is None:
        return None
    slices, rows = plain
    keys = np.empty((rows, 2), np.uint64)
    row = 0
    limit = csv.field_size_limit()
    for chunk in slices:
        # 8 zero bytes past the end, so every cell's 8-byte word lies in the slice
        a = np.frombuffer(chunk.encode() + bytes(8), np.uint8)
        lines = _csv_lines(a[:-8], limit)
        if lines is None:
            return None
        _, cells, lengths = lines
        if len(cells) and lengths.max() > 8:
            return None
        words = np.ndarray((len(a) - 7,), ">u8", a, 0, (1,))  # the 8 bytes at each offset
        np.bitwise_and(words[cells], _WORD_MASK[lengths], out=keys[row : row + len(cells)])
        row += len(cells)
    keys = keys[:row].reshape(-1)
    order = np.argsort(keys)
    keys.sort()  # in place: a second sort costs less than a sorted copy
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    labels = keys[new].astype(">u8").view("S8").tolist()  # S8 drops the zero padding
    del keys
    ids = np.cumsum(new, dtype=_ids_dtype(rows))
    ids -= 1
    del new
    ends = np.empty_like(ids)
    ends[order] = ids
    return ends.reshape(-1, 2), [v.decode() for v in labels]


def _split_cells(text: str) -> tuple[np.ndarray, list[str]] | None:
    """:func:`_plain_csv` by ``str.split`` and first-seen ids; None if not plain."""
    plain = _csv_slices(text)
    if plain is None:
        return None
    slices, rows = plain
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a new label takes the next id
    ends = np.empty((rows, 2), _ids_dtype(rows))
    row = 0
    limit = csv.field_size_limit()
    for chunk in slices:
        lines = _csv_lines(np.frombuffer(chunk.encode(), np.uint8), limit)
        if lines is None:
            return None
        first = lines[0]
        cells = chunk.replace("\n", ",").split(",")
        if len(first) and first[-1] != 2 * len(first) - 2:  # not all rows 2 cells, back to back
            cells = map(cells.__getitem__, np.stack((first, first + 1), axis=1).ravel().tolist())
        ends[row : row + len(first)].flat = np.fromiter(
            map(ids.__getitem__, cells), ends.dtype, 2 * len(first)
        )
        row += len(first)
    return ends[:row], list(ids)


def _csv_reader_pairs(text: str) -> Iterator[tuple[str, str]]:
    """The pairs of ``text`` as ``csv.reader`` reads it, checked row by row."""
    reader = csv.reader(io.StringIO(text, newline=""))  # \r, \n and \r\n end a line
    first_data_row = True
    try:
        for row in reader:
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if first_data_row:
                first_data_row = False
                if cells[0].casefold() == "source":
                    continue
            if len(cells) not in (2, 3):
                raise ParseError(f"expected 2 or 3 columns, got {len(cells)}", reader.line_num)
            s, t = cells[0], cells[1]
            if not s or not t:
                raise ParseError("empty node label", reader.line_num)
            yield s, t
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(e), reader.line_num) from None


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
    return DirectedGraph.from_edges(edges, nodes=nodes)


# ---- serialization ---------------------------------------------------------

#: Edges (and JSON node-list items) per serializer chunk.  The write path
#: holds one chunk's text at a time, so its peak is the graph plus one chunk.
_CHUNK = 2**12


def to_csv(g: DirectedGraph, file: TextIO | None = None) -> str | None:
    """CSV edge list with header, edges in sorted order (byte-stable).

    Returns the text, or with ``file`` writes it there chunk by chunk and
    returns None; the text never exists whole, so writing a graph holds one
    chunk beyond the graph (``netcover gen`` streams this way).  CSV carries
    edges only: isolated nodes do not round-trip through this format.  Use
    :func:`to_json` when the node list matters.  Each label is encoded once.
    Raises :class:`ValueError` naming the first label with outer whitespace,
    which the CSV parser would strip, before anything is written.
    """
    return _write(_csv_chunks(g), file)


def _csv_chunks(g: DirectedGraph) -> Iterator[str]:
    cells = [_csv_cell(v) for v in g.nodes]
    yield "source,target\n"
    yield from _edge_chunks(g, [c + "," for c in cells], [c + "\n" for c in cells], "")


def _csv_cell(label: str) -> str:
    """``label`` as one CSV cell, quoted (quotes doubled) only if it holds ``,"\\r\\n``."""
    if label != label.strip():
        raise ValueError(
            f"CSV cannot carry the label {label!r}: its outer whitespace would be "
            "stripped on reading; use to_json()"
        )
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def to_json(g: DirectedGraph, file: TextIO | None = None) -> str | None:
    """JSON graph document with sorted node and edge lists (byte-stable).

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)`` plus
    a newline.  That call runs the pure-Python encoder (the C one does not
    indent), so the fixed layout is joined here, over the CSR, from labels
    each encoded once by the C string encoder.  Returns the text, or with
    ``file`` writes it there chunk by chunk and returns None; the text never
    exists whole, so writing a graph holds one chunk beyond the graph
    (``netcover gen`` streams this way).
    """
    return _write(_json_chunks(g), file)


def _json_chunks(g: DirectedGraph) -> Iterator[str]:
    code = list(map(encode_basestring_ascii, g.nodes))
    items = [f"    {c}" for c in code]
    sources = [f"    [\n      {c},\n      " for c in code]
    targets = [f"{c}\n    ]" for c in code]
    yield '{\n  "edges": '
    yield from _json_list(_edge_chunks(g, sources, targets, ",\n"))
    yield ',\n  "nodes": '
    yield from _json_list(",\n".join(items[i : i + _CHUNK]) for i in range(0, g.n, _CHUNK))
    yield "\n}\n"


def _json_list(chunks: Iterator[str]) -> Iterator[str]:
    """An indented JSON array of items ``",\\n"``-joined in ``chunks``; ``[]`` when none."""
    sep = "[\n"
    for text in chunks:
        yield sep
        yield text
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _edge_chunks(
    g: DirectedGraph, sources: list[str], targets: list[str], sep: str
) -> Iterator[str]:
    """``sources[tail] + targets[head]`` for each edge, in ``csr`` order,
    ``sep``-joined, ``_CHUNK`` edges to a chunk.

    Each chunk gathers its own tails and both halves by position from the
    per-node strings, so nothing as long as the edge list is built.
    """
    indptr, heads = g.csr
    sources, targets = np.array(sources, dtype=object), np.array(targets, dtype=object)
    for lo in range(0, g.m, _CHUNK):
        hi = min(lo + _CHUNK, g.m)
        tails = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1
        yield sep.join(map(add, sources[tails].tolist(), targets[heads[lo:hi]].tolist()))


def _write(chunks: Iterator[str], file: TextIO | None) -> str | None:
    """The joined ``chunks``, or None once they are written to ``file``."""
    if file is None:
        return "".join(chunks)
    for text in chunks:
        file.write(text)
    return None
