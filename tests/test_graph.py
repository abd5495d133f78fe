import numpy as np
import pytest

from netcover import (
    DirectedGraph,
    ParseError,
    UnknownNodeError,
    graph_stats,
    parse_edge_list,
    to_csv,
    to_json,
)
from helpers import complete, cycle, graph_of, random_digraph, star


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


def test_parse_csv_empty_input():
    with pytest.raises(ValueError, match="empty graph"):
        parse_edge_list("", fmt="csv")
    with pytest.raises(ValueError, match="empty graph"):
        parse_edge_list("\n\n", fmt="csv")


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_edge_list("a,b", fmt="tsv")


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
    ],
)
def test_parse_json_malformed(text):
    with pytest.raises(ParseError):
        parse_edge_list(text, fmt="json")


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


_UNSORTED_NODES = "nodes must be sorted and unique; use from_edges()"
_UNSORTED_EDGES = "edges must be sorted and unique; use from_edges()"
_BAD_LABEL = "node labels must be non-empty strings"


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        pytest.param(("b", "a"), (), _UNSORTED_NODES, id="unsorted-nodes"),
        pytest.param(("a", "a", "b"), (), _UNSORTED_NODES, id="duplicate-node"),
        pytest.param(
            ("a", "b", "c"),
            (("b", "c"), ("a", "b")),
            _UNSORTED_EDGES,
            id="unsorted-edges",
        ),
        pytest.param(
            ("a", "b"), (("a", "b"), ("a", "b")), _UNSORTED_EDGES, id="duplicate-edge"
        ),
        pytest.param(
            ("a", "b"), (("a", "a"),), "self-loop 'a'; use from_edges()", id="self-loop"
        ),
        pytest.param(
            ("a", "b"),
            (("a", "z"),),
            "edge ('a', 'z') has an endpoint outside nodes",
            id="foreign-endpoint",
        ),
        pytest.param(("",), (), _BAD_LABEL, id="empty-label"),
        pytest.param((1,), (), _BAD_LABEL, id="non-str-label"),
    ],
)
def test_constructor_rejects_non_canonical_input(nodes, edges, message):
    with pytest.raises(ValueError) as exc:
        DirectedGraph(nodes=nodes, edges=edges)
    assert str(exc.value) == message


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


def test_has_node():
    g = graph_of(("a", "b"))
    assert g.has_node("a")
    assert not g.has_node("c")


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
