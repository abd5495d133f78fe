import math

import numpy as np
import pytest

from netcover import (
    DirectedGraph,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    greedy_select,
    set_coverage,
)
from netcover.oracles import (
    brute_force_max_coverage,
    definitional_centrality,
    naive_greedy,
)
from helpers import (
    cycle,
    graph_of,
    mixed_digraph,
    path,
    random_digraph,
    star,
    strongly_connected_digraph,
)


# --- brute force max coverage ---


def test_brute_force_star():
    picks, cov = brute_force_max_coverage(star(4), 1)
    assert picks == ("hub",)
    assert cov == 1.0


def test_brute_force_prefers_best_pair():
    g = graph_of(("a", "h1"), ("b", "h1"), ("b", "h2"), ("c", "h2"), nodes=("z",))
    picks, cov = brute_force_max_coverage(g, 2)
    assert picks == ("h1", "h2")
    assert cov == set_coverage(g, set(picks)).fraction
    assert cov == 5 / 6


def test_brute_force_lexicographic_among_optima():
    g = DirectedGraph.from_edges([], nodes="dcba")
    picks, cov = brute_force_max_coverage(g, 2)
    assert picks == ("a", "b")
    assert cov == 0.5


def test_brute_force_guard():
    # C(30, 15) is far past the subset budget
    g = DirectedGraph.from_edges([], nodes=[f"v{i}" for i in range(30)])
    with pytest.raises(ValueError):
        brute_force_max_coverage(g, 15)


def test_brute_force_dominates_greedy():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_digraph(rng, max_n=10)
        res = greedy_select(g, 1.0)
        for k in range(1, min(3, len(res.picks)) + 1):
            _, best = brute_force_max_coverage(g, k)
            assert best >= res.cumulative[k - 1] - 1e-12


# --- naive greedy ---


def test_naive_greedy_matches_examples():
    g = DirectedGraph.from_edges(
        [(f"a{i}", "h1") for i in range(1, 6)] + [(f"b{i}", "h2") for i in range(1, 4)]
    )
    res = naive_greedy(g, 1.0)
    assert res.picks == ("h1", "h2")
    assert res.cumulative == (0.6, 1.0)


def test_naive_greedy_equals_lazy():
    rng = np.random.default_rng(32)
    for _ in range(30):
        g = mixed_digraph(rng, max_n=35)
        a = greedy_select(g, 1.0)
        b = naive_greedy(g, 1.0)
        assert a.picks == b.picks
        assert a.cumulative == b.cumulative


# --- definitional centrality ---


def test_oracle_degree_is_exact():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_digraph(rng, max_n=15)
        want = degree_centrality(g).scores
        assert definitional_centrality(g, "in_degree").scores == want


def test_oracle_betweenness_closed_forms():
    s = definitional_centrality(path("abcde"), "betweenness").scores
    assert [s[v] for v in "abcde"] == [0.0, 3.0, 4.0, 3.0, 0.0]
    s = definitional_centrality(cycle("abcd"), "betweenness").scores
    assert set(s.values()) == {3.0}


def test_oracle_closeness_closed_forms():
    s = definitional_centrality(path("abc"), "closeness").scores
    assert s["a"] == pytest.approx(2 / 3, abs=1e-12)
    assert s["c"] == 0.0


def test_oracle_eigenvector_bidirectional_path():
    g = DirectedGraph.from_edges(
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    )
    s = definitional_centrality(g, "eigenvector").scores
    assert s["b"] / s["a"] == pytest.approx(math.sqrt(2), abs=1e-10)


def edgeless():
    return DirectedGraph.from_edges([], nodes="abc")


def test_oracle_agreement_random_graphs():
    rng = np.random.default_rng(34)
    for g in [edgeless()] + [random_digraph(rng, max_n=15) for _ in range(20)]:
        for measure, fast in (
            ("betweenness", betweenness_centrality),
            ("closeness", closeness_centrality),
        ):
            want = definitional_centrality(g, measure).scores
            got = fast(g).scores
            for v in g.nodes:
                assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_oracle_eigenvector_agreement_strongly_connected():
    rng = np.random.default_rng(35)
    for _ in range(15):
        g = strongly_connected_digraph(rng, max_n=15)
        want = definitional_centrality(g, "eigenvector").scores
        got = eigenvector_centrality(g).scores
        for v in g.nodes:
            assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_oracle_eigenvector_agreement_edgeless():
    # the zero case of the acyclic fallback: zero scores and the same warning
    want = definitional_centrality(edgeless(), "eigenvector")
    got = eigenvector_centrality(edgeless())
    assert want.scores == got.scores == dict.fromkeys("abc", 0.0)
    assert want.warning == got.warning == "edgeless graph: eigenvector undefined, scores zeroed"
