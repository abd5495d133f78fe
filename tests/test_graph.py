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


def test_graph_is_immutable():
    g = graph_of(("a", "b"))
    with pytest.raises(AttributeError):
        g.nodes = ("x",)


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        DirectedGraph.from_edges([("a", "")])


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
    with pytest.raises(UnknownNodeError, match="zzz"):
        g.in_neighbors("zzz")
    with pytest.raises(UnknownNodeError, match="zzz"):
        g.out_degree("zzz")


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
        # csr rows ascend (betweenness accumulation order depends on it),
        # spell out exactly the edge list, and agree with out_neighbors and
        # out_degree; both arrays are read-only, like the graph
        indptr, indices = g.csr
        rows = [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(g.n)]
        assert all(row == sorted(set(row)) for row in rows)
        assert [
            (g.nodes[i], g.nodes[j]) for i, row in enumerate(rows) for j in row
        ] == list(g.edges)
        for v in g.nodes:
            row = rows[g.index[v]]
            assert g.out_neighbors(v) == {g.nodes[j] for j in row}
            assert g.out_degree(v) == len(row)
        assert not indptr.flags.writeable and not indices.flags.writeable
        with pytest.raises(ValueError):
            indices[:1] = 0
        s = graph_stats(g)
        assert s.density == g.m / (g.n * (g.n - 1))
        assert s.avg_degree == 2 * g.m / g.n
