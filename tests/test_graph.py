import csv
import gc
import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netcover import graph
from netcover import (
    DirectedGraph,
    ParseError,
    UnknownNodeError,
    gen_erdos_renyi,
    gen_preferential,
    graph_stats,
    parse_edge_list,
    to_csv,
    to_json,
)
from helpers import (
    complete,
    cycle,
    dumps_json,
    graph_of,
    mixed_digraph,
    random_digraph,
    star,
)


# --- CSV parsing ---


def test_parse_csv_two_edges():
    g = parse_edge_list("a,b\nb,c", fmt="csv")
    assert g.n == 3
    assert g.m == 2
    assert g.edges == (("a", "b"), ("b", "c"))


def test_parse_csv_dedup_and_self_loop():
    g = parse_edge_list("a,b\na,b\na,a", fmt="csv")
    assert g.n == 2
    assert g.m == 1
    assert g.ingest.duplicates == 1
    assert g.ingest.self_loops == 1


def test_parse_csv_header_detected():
    g = parse_edge_list("source,target\na,b", fmt="csv")
    assert g.edges == (("a", "b"),)
    # detection is case-insensitive on the first cell
    g2 = parse_edge_list("Source,Target\na,b", fmt="csv")
    assert g2.edges == (("a", "b"),)


def test_parse_csv_third_column_ignored():
    g = parse_edge_list("a,b,5\nc,d,hello", fmt="csv")
    assert g.edges == (("a", "b"), ("c", "d"))


def test_parse_csv_blank_lines_and_whitespace():
    g = parse_edge_list("\n a , b \n\nb,c\n", fmt="csv")
    assert g.edges == (("a", "b"), ("b", "c"))


def test_parse_csv_wrong_arity():
    with pytest.raises(ParseError) as err:
        parse_edge_list("a,b\nc", fmt="csv")
    assert err.value.line == 2


def test_parse_csv_empty_label():
    with pytest.raises(ParseError) as err:
        parse_edge_list("a,b\n,c", fmt="csv")
    assert err.value.line == 2


def test_parse_csv_oversized_field_reports_line():
    # csv.Error (a field over csv.field_size_limit()) is not a ValueError, so
    # it must be re-raised as a ParseError to reach the user as an input error
    with pytest.raises(ParseError) as err:
        parse_edge_list("a,b\na," + "x" * 200_000 + "\n", fmt="csv")
    assert err.value.line == 2
    assert "field larger than field limit" in str(err.value)


def test_parse_csv_bare_carriage_returns_end_lines():
    assert parse_edge_list("a,b\rc,d\r") == parse_edge_list("a,b\nc,d\n")


def test_parse_csv_empty_input():
    with pytest.raises(ValueError, match="empty graph"):
        parse_edge_list("", fmt="csv")
    with pytest.raises(ValueError, match="empty graph"):
        parse_edge_list("\n\n", fmt="csv")


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_edge_list("a,b", fmt="tsv")


def _outcome(fn, arg):
    """``fn(arg)``, or the text of the ParseError it raises."""
    try:
        return fn(arg)
    except ParseError as e:
        return str(e)


_CSV_TOKENS = [
    "a", "\u00e9", ",", "\n", "\r", "\r\n", '"', "\0", " ", "\t", "source", "Source,"
]
#: one flaw a mostly clean row may carry, each sending its text to csv.reader
#: or (the long cell) off the 8-byte keys
_ROW_FLAWS = ["", ",x", ",x,y", " , ", '"q"', "q\rq", "q\0", "\n", "\n\n", "x" * 12]

#: texts the tokenizer must read itself: label order across UTF-8 lengths,
#: labels of exactly 8 and 9 bytes, a label that is another's prefix, CRLF,
#: a third column (on some rows only, too), padded cells, blank lines
_PLAIN_CSV = [
    "z,\u00e9\n\U0001f600,z\n\u00e9,\U0001f600\n",
    "abcdefgh,abcdefghi\nabcdefgh,a\n",
    "\u00e9\u00e9\u00e9\u00e9,\u00e9\u00e9\u00e9\u00e9a\n",
    "a,ab\nab,a\nab,abc\n",
    "a,b\r\nb,c\r\n\r\nc,a",
    "source,target,weight\na,b,1\nb,c,2\n",
    "a,b\nb,c,2\nc,a,\n",
    "a, b\n b ,c\nc,a\n",
    "\n\nsource,target\n\na,b\n\n",
]


def _random_csv_text(rng: np.random.Generator) -> str:
    """Either token soup or a mostly clean edge list with an occasional flaw."""
    if rng.random() < 0.4:
        return "".join(rng.choice(_CSV_TOKENS, size=rng.integers(0, 25)))
    width = int(rng.integers(2, 4))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    rows = [["source", "target", "w"][:width]] if rng.random() < 0.3 else []
    for _ in range(rng.integers(1, 15)):
        cells = [
            "".join(rng.choice(["a", "b", "\u00e9", " "], size=rng.integers(1, 4)))
            for _ in range(width)
        ]
        if rng.random() < 0.08:
            cells[-1] += str(rng.choice(_ROW_FLAWS))
        rows.append(cells)
    return newline.join(map(",".join, rows)) + (newline if rng.random() < 0.7 else "")


def test_csv_tokenizer_matches_csv_reader(monkeypatch):
    # every text the whole-text tokenizer reads, it must read exactly as the
    # csv.reader loop does: the same pairs, in row order, and no error where
    # csv.reader raises one; every other text goes to that loop, so it gives
    # the same pairs or the same error on the same line.  Slices of 1-13
    # characters put slice boundaries everywhere.
    split = []  # whether each text handed to the split path was read there

    def split_cells(text):
        plain = split_cells_(text)
        split.append(plain is not None)
        return plain

    split_cells_ = graph._split_cells
    monkeypatch.setattr(graph, "_split_cells", split_cells)
    rng = np.random.default_rng(2024)
    texts = ["c\ncSource,c,a", "a,b\r\nc,d\r", " a , b \n\nb,c\n", "source\na,b\n"]
    texts += ["a,\ud800\nb,a\n"]  # a lone surrogate has no UTF-8 bytes
    texts += _PLAIN_CSV + [_random_csv_text(rng) for _ in range(3000)]
    limit = csv.field_size_limit()
    fast = fallback = 0
    try:
        for i, text in enumerate(texts):
            monkeypatch.setattr(graph, "_CSV_SLICE", int(rng.integers(1, 14)))
            small = i % 5 == 0 and text not in _PLAIN_CSV
            csv.field_size_limit(int(rng.integers(1, 9)) if small else limit)
            expected = _outcome(list, graph._csv_reader_pairs(text))
            plain = graph._plain_csv(text)
            if plain is None:
                assert text not in _PLAIN_CSV
                fallback += 1
            else:
                ends, labels = plain
                assert [(labels[s], labels[t]) for s, t in ends.tolist()] == expected, repr(text)
                assert len(set(labels)) == len(labels)
                fast += 1
            if isinstance(expected, list):
                expected = _outcome(DirectedGraph.from_edges, expected)
            assert _outcome(parse_edge_list, text) == expected
    finally:
        csv.field_size_limit(limit)
    assert fast > 300 and fallback > 300  # both paths ran
    assert sum(split) > 30  # and the tokenizer's split path
    assert parse_edge_list(_PLAIN_CSV[0]).nodes == ("z", "\u00e9", "\U0001f600")


# --- JSON parsing ---


def test_parse_json_isolated_node_retained():
    text = '{"nodes": ["a", "b", "c"], "edges": [["a", "b"]]}'
    g = parse_edge_list(text, fmt="json")
    assert g.n == 3
    assert g.m == 1
    assert g.in_neighbors("b") == frozenset({"a"})


def test_parse_json_edges_only():
    g = parse_edge_list('{"edges": [["a", "b"], ["b", "c"]]}', fmt="json")
    assert g.n == 3
    assert g.m == 2


def test_parse_json_empty():
    with pytest.raises(ValueError, match="empty graph"):
        parse_edge_list('{"edges": []}', fmt="json")


@pytest.mark.parametrize("edges", [[], iter(())], ids=["list", "iterator"])
def test_from_edges_refuses_an_empty_graph(edges):
    with pytest.raises(ParseError, match="empty graph"):
        DirectedGraph.from_edges(edges)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"edges": "a,b"}',
        '{"edges": [["a"]]}',
        '{"edges": [["a", "b", "c"]]}',
        '{"edges": [[1, 2]]}',
        '{"nodes": [""], "edges": [["a", "b"]]}',
        '{"nodes": "ab", "edges": [["a", "b"]]}',
    ],
)
def test_parse_json_malformed(text):
    with pytest.raises(ParseError):
        parse_edge_list(text, fmt="json")


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("csv", "source,target\na,b\nb,c\n"),
        ("json", '{"nodes": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"]]}'),
    ],
    ids=["csv", "json"],
)
def test_parse_drops_a_leading_byte_order_mark(fmt, text):
    # spreadsheet "CSV UTF-8" exports start with one; kept, it would hide the
    # header in the first label or break JSON decoding
    assert parse_edge_list("\ufeff" + text, fmt) == parse_edge_list(text, fmt)


# --- construction ---


def test_from_edges_canonical_order():
    g = DirectedGraph.from_edges([("b", "c"), ("a", "b"), ("b", "c")])
    assert g.nodes == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))
    assert g.ingest.duplicates == 1


def test_from_edges_self_loop_keeps_node():
    g = DirectedGraph.from_edges([("a", "a")])
    assert g.nodes == ("a",)
    assert g.m == 0
    assert g.ingest.self_loops == 1


def test_from_edges_extra_nodes():
    g = DirectedGraph.from_edges([("a", "b")], nodes=["z", "a"])
    assert g.nodes == ("a", "b", "z")
    assert g.out_degree("z") == 0


def test_from_edges_matches_plain_reference():
    # raw lists in any order, with duplicates, self-loops, isolated nodes and
    # list pairs, canonicalize exactly like a plain sort/set reference
    rng = np.random.default_rng(11)
    for _ in range(50):
        pool = [f"v{i}" for i in range(int(rng.integers(1, 15)))]
        raw = [
            (pool[i], pool[j])
            for i, j in rng.integers(0, len(pool), size=(int(rng.integers(0, 60)), 2))
        ]
        raw += raw[: len(raw) // 3]  # guaranteed duplicates
        raw = [raw[i] for i in rng.permutation(len(raw))]
        raw = [list(e) if rng.random() < 0.3 else e for e in raw]
        extra = [f"w{i}" for i in range(int(rng.integers(0, 4)))]
        g = DirectedGraph.from_edges(raw, nodes=extra)
        labels = {v for e in raw for v in e} | set(extra)
        kept = [(s, t) for s, t in raw if s != t]
        assert g.nodes == tuple(sorted(labels))
        assert g.edges == tuple(sorted(set(kept)))
        assert all(type(e) is tuple and len(e) == 2 for e in g.edges)
        assert g.ingest.self_loops == len(raw) - len(kept)
        assert g.ingest.duplicates == len(kept) - len(set(kept))
        # the same edges as positions into the distinct labels, in any order
        labels = [g.nodes[i] for i in rng.permutation(g.n)]
        at = {v: i for i, v in enumerate(labels)}
        ends = np.array([(at[s], at[t]) for s, t in raw], dtype=np.int32).reshape(-1, 2)
        again = DirectedGraph.from_edges(ends, labels)
        assert again == g and again.in_csr[1].tolist() == g.in_csr[1].tolist()
        assert again.ingest == g.ingest


_OUT_OF_RANGE = r"edge positions must lie in \[0, 2\)"
_NOT_POSITIONS = r"edge positions must be an \(m, 2\) signed integer array"


@pytest.mark.parametrize(
    "ends, nodes, message",
    [
        (np.array([[0, 2]]), ["a", "b"], _OUT_OF_RANGE),
        (np.array([[-1, 0]]), ["a", "b"], _OUT_OF_RANGE),
        (np.array([0, 1]), ["a", "b"], _NOT_POSITIONS),
        (np.array([[0.0, 1.0]]), ["a", "b"], _NOT_POSITIONS),
        (np.array([[0, 1]]), ["a", "a"], "node labels given with edge positions must be distinct"),
    ],
    ids=["past-end", "negative", "flat", "float", "repeated-label"],
)
def test_from_edges_checks_edge_positions(ends, nodes, message):
    with pytest.raises(ValueError, match=message):
        DirectedGraph.from_edges(ends, nodes)


def test_derived_edges_contract_on_mixed_graphs():
    # a generator of raw pairs (shuffled, with duplicates and self-loops) plus
    # isolated nodes: edges are the sorted, deduplicated, loop-free pairs, the
    # ingest counts are exact, and equality sees every edge and node
    rng = np.random.default_rng(23)
    for _ in range(20):
        base = mixed_digraph(rng)
        loops = [(v, v) for v in rng.choice(base.nodes, size=3).tolist()]
        raw = list(base.edges) + list(base.edges[: base.m // 4]) + loops
        raw = [raw[i] for i in rng.permutation(len(raw))]
        isolated = ["~iso1", "~iso2"]
        g = DirectedGraph.from_edges((pair for pair in raw), nodes=isolated)
        kept = [(s, t) for s, t in raw if s != t]
        assert g.nodes == tuple(sorted({v for e in raw for v in e} | set(isolated)))
        assert g.edges == tuple(sorted(set(kept))) == base.edges
        assert g.m == len(g.edges)
        assert g.ingest.self_loops == len(loops)
        assert g.ingest.duplicates == base.m // 4
        again = DirectedGraph.from_edges(g.edges, g.nodes)
        assert again == g and hash(again) == hash(g)
        if g.m:
            assert DirectedGraph.from_edges(g.edges[1:], g.nodes) != g
        assert DirectedGraph.from_edges(g.edges, g.nodes + ("~iso3",)) != g
        assert g != g.edges


def test_parse_memory_is_integer_sized():
    # the parsed graph keeps integer CSRs and the labels, not a tuple of label
    # pairs per edge: at ~190 retained bytes per edge that copy failed both
    # bounds (PA n=5000, m=49,945: 9.2 MiB retained, 16 MiB parse peak)
    text = to_csv(gen_preferential(5000, 10, 1))
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_edge_list(text, fmt="csv")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 49_945
    assert retained < 64 * g.m
    assert peak < 160 * g.m


def test_parse_peak_stays_near_the_graph_on_a_large_csv():
    # the tokenizer works slice by slice and drops the bytes before it sorts
    # the label keys: the whole-text version peaked at 78.8 bytes per edge
    text = to_csv(gen_preferential(20000, 10, 1))
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_edge_list(text, fmt="csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 199_945
    assert peak <= 64 * g.m


def test_graph_is_immutable():
    g = graph_of(("a", "b"))
    with pytest.raises(AttributeError):
        g.nodes = ("x",)


@pytest.mark.parametrize("bad", ["", 1, None], ids=["empty", "int", "None"])
@pytest.mark.parametrize("where", ["edge", "nodes"])
def test_empty_label_rejected(where, bad):
    edges, nodes = ([("a", bad)], ()) if where == "edge" else ([("a", "b")], [bad])
    with pytest.raises(ValueError) as exc:
        DirectedGraph.from_edges(edges, nodes=nodes)
    assert str(exc.value) == f"node labels must be non-empty strings, got {bad!r}"


def test_from_edges_is_the_only_constructor():
    with pytest.raises(TypeError, match=r"DirectedGraph\.from_edges"):
        DirectedGraph(nodes=("a", "b"), edges=(("a", "b"),))
    with pytest.raises(TypeError, match=r"DirectedGraph\.from_edges"):
        DirectedGraph()


# --- neighborhoods and degrees ---


def test_star_neighborhoods():
    g = star(4)
    assert g.in_neighbors("hub") == frozenset({"l1", "l2", "l3", "l4"})
    assert g.in_neighbors("l1") == frozenset()
    assert g.in_degree("hub") == 4
    assert g.out_degree("l1") == 1


def test_cycle_in_neighbors():
    g = cycle("abc")
    assert g.in_neighbors("b") == frozenset({"a"})


def test_fan_degrees():
    g = parse_edge_list("a,b\nc,b\nb,d", fmt="csv")
    assert g.out_degree("b") == 1
    assert g.in_degree("b") == 2


def test_unknown_node_named_in_error():
    g = graph_of(("a", "b"))
    for accessor in (g.in_neighbors, g.out_neighbors, g.in_degree, g.out_degree):
        with pytest.raises(UnknownNodeError, match="zzz"):
            accessor("zzz")


# --- stats ---


def test_stats_215_node_profile_formulas():
    g = DirectedGraph.from_edges(
        [(f"n{i:03d}", f"n{j:03d}") for i in range(215) for j in _targets(i)]
    )
    assert g.n == 215
    assert g.m == 2225
    s = graph_stats(g)
    assert s.density == 2225 / (215 * 214)
    assert s.avg_degree == 2 * 2225 / 215


def _targets(i):
    # 10 forward neighbours for everyone plus an 11th for the first 75 rows
    js = [(i + d) % 215 for d in range(1, 11)]
    if i < 75:
        js.append((i + 11) % 215)
    return js


def test_stats_edgeless():
    s = graph_stats(DirectedGraph.from_edges([], nodes="abcde"))
    assert s.n == 5
    assert s.m == 0
    assert s.density == 0.0
    assert s.avg_degree == 0.0


def test_stats_complete():
    s = graph_stats(complete("abcd"))
    assert s.density == 1.0
    assert s.avg_degree == 6.0


def test_stats_single_node():
    s = graph_stats(DirectedGraph.from_edges([], nodes=["a"]))
    assert s.density == 0.0
    assert s.avg_degree == 0.0


# --- serialization ---


def test_to_csv_bytes():
    g = parse_edge_list("b,c\na,b", fmt="csv")
    assert to_csv(g) == "source,target\na,b\nb,c\n"


def test_json_round_trip_keeps_isolated_nodes():
    g = DirectedGraph.from_edges([("a", "b")], nodes=["lonely"])
    again = parse_edge_list(to_json(g), fmt="json")
    assert again.nodes == g.nodes
    assert again.edges == g.edges


@pytest.mark.parametrize(
    "g",
    [
        DirectedGraph.from_edges([], nodes=["b", "a", "c"]),
        DirectedGraph.from_edges([("a", "b")], nodes=["lonely"]),
        DirectedGraph.from_edges(
            [
                ("caf\u00e9", 'say "hi"'),
                ("back\\slash", "tab\tnew\nline"),
                ("\x01", "\u2603"),
            ]
        ),
    ],
    ids=["isolated-only", "with-isolated", "escapes"],
)
def test_to_json_equals_json_dumps(g):
    assert to_json(g) == dumps_json(g)


def test_to_json_equals_json_dumps_on_mixed_graphs_and_golden():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = mixed_digraph(rng)
        assert to_json(g) == dumps_json(g)
    golden = (Path(__file__).parent / "golden" / "gen_pa.json").read_text()
    g = parse_edge_list(golden, fmt="json")
    assert to_json(g) == dumps_json(g) == golden


def test_round_trip_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        g = random_digraph(rng, max_n=20)
        for fmt, dump in (("csv", to_csv), ("json", to_json)):
            if fmt == "csv" and g.m == 0:
                continue  # csv cannot carry isolated nodes
            again = parse_edge_list(dump(g), fmt=fmt)
            assert again.edges == g.edges
            if fmt == "json":
                assert again.nodes == g.nodes


_LABEL_ALPHABET = [
    "a", "b", "\u00e9", "\u2603", "\r", "\n", '"', ",", "|", " ", "\t", "\x0c", "\x85"
]


def test_to_csv_round_trips_or_refuses():
    # CSV strips every cell, so to_csv refuses a label with outer whitespace
    # (naming the first); every other label, \r included, reads back as written
    g = graph_of(("cr\rx", 'q"t'), ("cr\rx", "a,b"))
    assert to_csv(g) == 'source,target\n"cr\rx","a,b"\n"cr\rx","q""t"\n'
    rng = np.random.default_rng(19)
    refused = carried = 0
    for _ in range(400):
        labels = [
            "".join(rng.choice(_LABEL_ALPHABET, size=rng.integers(1, 5))) for _ in range(6)
        ]
        labels = [v.strip() or v if rng.random() < 0.9 else v for v in labels]
        ends = rng.integers(0, 6, size=(rng.integers(1, 12), 2))
        edges = [(labels[i], labels[j]) for i, j in ends]
        g = DirectedGraph.from_edges(edges, nodes=labels[:2])
        assert parse_edge_list(to_json(g), fmt="json") == g
        if g.m == 0:
            continue  # csv cannot carry a graph without edges
        outer = [v for v in g.nodes if v != v.strip()]
        if outer:
            with pytest.raises(ValueError, match=re.escape(repr(outer[0]))):
                to_csv(g)
            refused += 1
        else:
            without_isolated = DirectedGraph.from_edges(g.edges)
            assert parse_edge_list(to_csv(g), fmt="csv") == without_isolated
            carried += 1
    assert refused > 50 and carried > 50


def _serializer_cases():
    rng = np.random.default_rng(29)
    graphs = [mixed_digraph(rng) for _ in range(12)]
    graphs.append(DirectedGraph.from_edges([], nodes=["b", "a", "c"]))
    graphs.append(DirectedGraph.from_edges([("a", "b"), ("b", "c")], nodes=["l1", "l2"]))
    golden = Path(__file__).parent / "golden"
    graphs.append(parse_edge_list((golden / "gen_pa.json").read_text(), fmt="json"))
    graphs.append(parse_edge_list((golden / "gen_er.csv").read_text(), fmt="csv"))
    return graphs


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunk_boundaries_are_invisible(chunk, monkeypatch):
    # the same text, returned or written, whatever the number of edges (and
    # JSON node-list items) per chunk; the goldens come back byte for byte
    graphs = _serializer_cases()
    whole = [(to_json(g), to_csv(g)) for g in graphs]
    golden = Path(__file__).parent / "golden"
    assert whole[-2][0] == (golden / "gen_pa.json").read_text()
    assert whole[-1][1] == (golden / "gen_er.csv").read_text()
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    for g, texts in zip(graphs, whole):
        for dump, text in zip((to_json, to_csv), texts):
            assert dump(g) == text
            sink = io.StringIO()
            assert dump(g, sink) is None
            assert sink.getvalue() == text


def test_to_csv_refuses_before_writing():
    sink = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(repr(" b"))):
        to_csv(graph_of(("a", " b")), sink)
    assert sink.getvalue() == ""


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def test_writing_holds_one_chunk_not_the_document():
    # ER(500, p) for p = 0.1 and 0.5 (m ~ 25k and 125k): writing either peaks
    # at about one chunk, not at a share of the document
    peaks = []
    for p in (0.1, 0.5):
        g = gen_erdos_renyi(500, p, 1)
        size = len(to_json(g))
        gc.collect()
        tracemalloc.start()
        try:
            to_json(g, _Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]
    assert max(peaks) < size / 4


def test_transpose_consistency_and_exact_stats():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_digraph(rng, max_n=25)
        assert sum(g.in_degree(v) for v in g.nodes) == g.m
        assert sum(g.out_degree(v) for v in g.nodes) == g.m
        for u, v in g.edges:
            assert u in g.in_neighbors(v)
            assert v in g.out_neighbors(u)
        # csr and in_csr rows ascend (betweenness accumulation order depends
        # on it), spell out exactly the edge list and its transpose, and agree
        # with the neighbor and degree accessors; all four arrays are
        # read-only, like the graph
        transposed = sorted((t, s) for s, t in g.edges)
        for csr, pairs, neighbors, degree in (
            (g.csr, list(g.edges), g.out_neighbors, g.out_degree),
            (g.in_csr, transposed, g.in_neighbors, g.in_degree),
        ):
            indptr, indices = csr
            rows = [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(g.n)]
            assert all(row == sorted(set(row)) for row in rows)
            assert [
                (g.nodes[i], g.nodes[j]) for i, row in enumerate(rows) for j in row
            ] == pairs
            for v in g.nodes:
                row = rows[g.index[v]]
                assert neighbors(v) == {g.nodes[j] for j in row}
                assert degree(v) == len(row)
            assert not indptr.flags.writeable and not indices.flags.writeable
            with pytest.raises(ValueError):
                indices[:1] = 0
            with pytest.raises(ValueError):
                indptr[:1] = 0
        s = graph_stats(g)
        assert s.density == g.m / (g.n * (g.n - 1))
        assert s.avg_degree == 2 * g.m / g.n
