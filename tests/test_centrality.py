import math

import numpy as np
import pytest

from netcover import (
    MEASURES,
    DirectedGraph,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    gen_erdos_renyi,
    to_rank,
)
from netcover.centrality import CentralityScores
from helpers import (
    bipath,
    complete,
    cycle,
    graph_of,
    path,
    random_digraph,
    star,
    strongly_connected_digraph,
)


def bistar(leaves: int) -> DirectedGraph:
    edges = [(f"l{i}", "hub") for i in range(1, leaves + 1)]
    return DirectedGraph.from_edges(edges + [(b, a) for a, b in edges])


# --- degree ---


def test_degree_star():
    g = star(4)
    ind = degree_centrality(g, "in").scores
    assert ind["hub"] == 4
    assert ind["l1"] == 0


def test_degree_cycle():
    g = cycle("abcd")
    for mode, want in (("in", 1), ("out", 1), ("total", 2)):
        assert set(degree_centrality(g, mode).scores.values()) == {want}


def test_degree_fan():
    g = graph_of(("a", "b"), ("c", "b"), ("b", "d"))
    assert degree_centrality(g, "out").scores["b"] == 1
    assert degree_centrality(g, "in").scores["b"] == 2


def test_degree_bad_mode():
    with pytest.raises(ValueError):
        degree_centrality(graph_of(("a", "b")), "sideways")


# --- rank ---


def test_rank_tie_broken_lexicographically():
    scores = CentralityScores("in_degree", {"a": 2.0, "b": 5.0, "c": 2.0})
    assert to_rank(scores).order == ("b", "a", "c")


def test_rank_all_equal_is_lexicographic():
    scores = CentralityScores("in_degree", {"c": 1.0, "a": 1.0, "b": 1.0})
    assert to_rank(scores).order == ("a", "b", "c")


def test_rank_strict_comparison_no_epsilon():
    scores = CentralityScores("closeness", {"x": 1.0, "y": 1.0000001})
    assert to_rank(scores).order == ("y", "x")


def test_rank_positions():
    scores = CentralityScores("in_degree", {"a": 2.0, "b": 5.0})
    assert to_rank(scores).positions() == {"b": 1, "a": 2}


# --- betweenness ---


def test_betweenness_path3():
    s = betweenness_centrality(path("abc")).scores
    assert s == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_cycle4():
    s = betweenness_centrality(cycle("abcd")).scores
    assert set(s.values()) == {3.0}


def test_betweenness_bidirectional_star():
    s = betweenness_centrality(bistar(4)).scores
    assert s["hub"] == 12.0
    assert all(s[f"l{i}"] == 0.0 for i in range(1, 5))


def test_betweenness_path5():
    s = betweenness_centrality(path("abcde")).scores
    assert [s[v] for v in "abcde"] == [0.0, 3.0, 4.0, 3.0, 0.0]


def test_betweenness_split_shortest_paths():
    # two parallel 2-hop routes a->{x,y}->d: each carries half of (a,d)
    g = graph_of(("a", "x"), ("a", "y"), ("x", "d"), ("y", "d"))
    s = betweenness_centrality(g).scores
    assert s["x"] == pytest.approx(0.5)
    assert s["y"] == pytest.approx(0.5)


# --- closeness ---


def test_closeness_complete():
    s = closeness_centrality(complete("abcd")).scores
    assert set(s.values()) == {1.0}


def test_closeness_path3():
    s = closeness_centrality(path("abc")).scores
    assert s["c"] == 0.0
    assert s["a"] == (2 / 2) * (2 / 3)
    assert s["b"] == (1 / 2) * (1 / 1)


def test_closeness_star_sink_hub():
    s = closeness_centrality(star(4)).scores
    assert s["hub"] == 0.0
    assert s["l1"] == (1 / 4) * (1 / 1)


# --- eigenvector ---


def test_eigenvector_cycle_uniform():
    for n, labels in ((3, "abc"), (5, "abcde")):
        s = eigenvector_centrality(cycle(labels))
        assert s.warning is None
        for v in labels:
            assert s.scores[v] == pytest.approx(1 / math.sqrt(n), abs=1e-9)


def test_eigenvector_bidirectional_complete_uniform():
    s = eigenvector_centrality(complete("abc")).scores
    assert s["a"] == pytest.approx(s["b"], abs=1e-10)
    assert s["b"] == pytest.approx(s["c"], abs=1e-10)


def test_eigenvector_bidirectional_path_sqrt2():
    s = eigenvector_centrality(bipath("abc")).scores
    assert s["b"] / s["a"] == pytest.approx(math.sqrt(2), abs=1e-8)
    assert s["a"] == pytest.approx(s["c"], abs=1e-10)


def test_eigenvector_empty_edge_set():
    g = DirectedGraph.from_edges([], nodes="ab")
    with pytest.raises(ValueError, match="eigenvector undefined"):
        eigenvector_centrality(g)


def test_eigenvector_dag_falls_back_to_in_degree():
    g = graph_of(("a", "b"), ("a", "c"), ("b", "c"))
    s = eigenvector_centrality(g)
    assert s.warning is not None
    ind = {"a": 0.0, "b": 1.0, "c": 2.0}
    norm = math.sqrt(5.0)
    for v, d in ind.items():
        assert s.scores[v] == pytest.approx(d / norm, abs=1e-12)


def test_eigenvector_residual_on_strongly_connected():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = strongly_connected_digraph(rng, max_n=25)
        s = eigenvector_centrality(g)
        assert s.warning is None
        idx = {v: i for i, v in enumerate(g.nodes)}
        a = np.zeros((g.n, g.n))
        for u, v in g.edges:
            a[idx[u], idx[v]] = 1.0
        x = np.array([s.scores[v] for v in g.nodes])
        lam = x @ (a.T @ x)
        assert np.linalg.norm(a.T @ x - lam * x) <= 1e-8


def test_eigenvector_reports_non_convergence():
    s = eigenvector_centrality(bipath("abc"), max_iter=1)
    assert s.warning is not None
    assert "max_iter=1" in s.warning and "residual" in s.warning
    assert set(s.scores) == {"a", "b", "c"}


# --- cross-check against networkx on a medium graph ---


def test_networkx_cross_check_medium_er():
    nx = pytest.importorskip("networkx")
    g = gen_erdos_renyi(300, 0.03, 17)
    ng = nx.DiGraph()
    ng.add_nodes_from(g.nodes)
    ng.add_edges_from(g.edges)
    assert nx.is_strongly_connected(ng)  # so the dominant eigenvector is unique

    ours = betweenness_centrality(g).scores
    ref = nx.betweenness_centrality(ng, normalized=False)
    for v in g.nodes:
        assert ours[v] == pytest.approx(ref[v], rel=1e-12, abs=1e-9)

    ours = closeness_centrality(g).scores
    ref = nx.closeness_centrality(ng.reverse())
    for v in g.nodes:
        assert ours[v] == pytest.approx(ref[v], rel=1e-12, abs=1e-12)

    eig = eigenvector_centrality(g)
    assert eig.warning is None
    ref = nx.eigenvector_centrality_numpy(ng)
    for v in g.nodes:
        assert eig.scores[v] == pytest.approx(ref[v], abs=1e-9)


# --- cross-measure properties ---


def _relabelled(g: DirectedGraph, suffix: str) -> DirectedGraph:
    return DirectedGraph.from_edges(
        [(u + suffix, v + suffix) for u, v in g.edges],
        nodes=[v + suffix for v in g.nodes],
    )


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    fns = [
        lambda g: degree_centrality(g, "in"),
        lambda g: degree_centrality(g, "out"),
        lambda g: degree_centrality(g, "total"),
        betweenness_centrality,
        closeness_centrality,
    ]
    for _ in range(10):
        g = random_digraph(rng, max_n=15)
        h = _relabelled(g, "x")  # same sort order, new labels
        for fn in fns:
            a, b = fn(g).scores, fn(h).scores
            for v in g.nodes:
                assert b[v + "x"] == pytest.approx(a[v], abs=1e-9)


def test_scores_cover_nodes_and_are_finite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_digraph(rng, max_n=15)
        measures = [
            degree_centrality(g, "in"),
            degree_centrality(g, "out"),
            degree_centrality(g, "total"),
            betweenness_centrality(g),
            closeness_centrality(g),
        ]
        if g.m > 0:
            measures.append(eigenvector_centrality(g))
        for cs in measures:
            assert set(cs.scores) == set(g.nodes)
            assert cs.measure in MEASURES
            for x in cs.scores.values():
                assert math.isfinite(x) and x >= 0.0
