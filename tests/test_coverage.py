import numpy as np
import pytest

from netcover import (
    DirectedGraph,
    UnknownNodeError,
    centrality_rank,
    centrality_rank_select,
    gen_erdos_renyi,
    greedy_select,
    node_coverage,
    pareto_point,
    set_coverage,
)
from netcover.oracles import naive_greedy
from helpers import graph_of, mixed_digraph, random_digraph, star


def two_hubs() -> DirectedGraph:
    """Two hubs sharing in-neighbor b, plus an uncovered bystander z (n=6)."""
    return graph_of(("a", "h1"), ("b", "h1"), ("b", "h2"), ("c", "h2"), nodes=("z",))


def two_stars() -> DirectedGraph:
    """Disjoint in-stars: h1 with 5 spokes, h2 with 3, n=10."""
    edges = [(f"a{i}", "h1") for i in range(1, 6)]
    edges += [(f"b{i}", "h2") for i in range(1, 4)]
    return DirectedGraph.from_edges(edges)


# --- node / set coverage ---


def test_node_coverage_isolated():
    g = DirectedGraph.from_edges([], nodes=["v"])
    assert node_coverage(g, "v") == {"v"}


def test_node_coverage_hub():
    g = star(4)
    assert node_coverage(g, "hub") == {"hub", "l1", "l2", "l3", "l4"}
    assert node_coverage(g, "l1") == {"l1"}


def test_node_coverage_two_in_edges():
    g = graph_of(("a", "b"), ("c", "b"))
    assert node_coverage(g, "b") == {"a", "b", "c"}


def test_node_coverage_unknown():
    with pytest.raises(UnknownNodeError):
        node_coverage(star(3), "nope")


def test_set_coverage_bounds():
    g = two_hubs()
    assert set_coverage(g, set()).fraction == 0.0
    assert set_coverage(g, set(g.nodes)).fraction == 1.0


def test_set_coverage_shared_in_neighbor():
    g = two_hubs()
    cov = set_coverage(g, {"h1", "h2"})
    assert cov.covered == {"h1", "h2", "a", "b", "c"}
    assert cov.fraction == 5 / 6


def test_set_coverage_size_is_in_degree_plus_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_digraph(rng, max_n=20)
        for v in g.nodes:
            assert len(node_coverage(g, v)) == g.in_degree(v) + 1


# --- greedy selection ---


def test_greedy_star_single_pick():
    res = greedy_select(star(4), 0.8)
    assert res.method == "greedy"
    assert res.picks == ("hub",)
    assert res.cumulative == (1.0,)


def test_greedy_two_stars():
    res = greedy_select(two_stars(), 1.0)
    assert res.picks == ("h1", "h2")
    assert res.cumulative == (0.6, 1.0)


def test_greedy_edgeless_lexicographic():
    g = DirectedGraph.from_edges([], nodes="dcba")
    res = greedy_select(g, 0.5)
    assert res.picks == ("a", "b")
    assert res.cumulative == (0.25, 0.5)


def test_greedy_target_validation():
    g = star(3)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            greedy_select(g, bad)


def test_greedy_first_pick_is_max_in_degree():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = mixed_digraph(rng, max_n=40)
        res = greedy_select(g, 1.0)
        best = max(g.in_degree(v) for v in g.nodes)
        winners = sorted(v for v in g.nodes if g.in_degree(v) == best)
        assert res.picks[0] == winners[0]
        assert res.cumulative[0] == (best + 1) / g.n


def test_greedy_cumulative_strictly_increasing():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = mixed_digraph(rng, max_n=40)
        res = greedy_select(g, 1.0)
        assert all(a < b for a, b in zip(res.cumulative, res.cumulative[1:]))
        assert res.cumulative[-1] == 1.0
        assert len(set(res.picks)) == len(res.picks)


def test_greedy_stops_at_first_step_reaching_target():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = mixed_digraph(rng, max_n=40)
        res = greedy_select(g, 0.7)
        assert res.cumulative[-1] >= 0.7
        assert all(c < 0.7 for c in res.cumulative[:-1])


def test_greedy_budget_stops_the_run_at_k_picks():
    # a budget stops greedy at k picks or at the target, whichever comes
    # first, with the picks of the run without one
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = mixed_digraph(rng, max_n=40)
        full = greedy_select(g, 1.0)
        for k in (1, 2, 5, g.n):
            for target in (0.5, 1.0):
                res = greedy_select(g, target, k)
                expected = full.reaching(target).truncated(k)
                assert (res.picks, res.cumulative) == (expected.picks, expected.cumulative)
                assert res.target == target
    with pytest.raises(ValueError, match="k must be >= 1"):
        greedy_select(star(3), 1.0, 0)


def test_lazy_equals_naive_small_ensemble():
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = mixed_digraph(rng, max_n=40)
        mine = greedy_select(g, 1.0)
        ref = naive_greedy(g, 1.0)
        assert mine.picks == ref.picks
        assert mine.cumulative == ref.cumulative


def _count_node_coverage(monkeypatch) -> list[int]:
    """Count calls of ``node_coverage`` looked up in ``netcover.coverage``."""
    import netcover.coverage

    calls = [0]
    original = netcover.coverage.node_coverage

    def counted(g, v):
        calls[0] += 1
        return original(g, v)

    monkeypatch.setattr(netcover.coverage, "node_coverage", counted)
    return calls


def test_greedy_gain_evaluations_stay_near_linear(monkeypatch):
    # flat degrees: a bound-ordered scan rescans most nodes every round
    g = gen_erdos_renyi(600, 0.0167, 1)
    calls = _count_node_coverage(monkeypatch)
    mine = greedy_select(g, 1.0)
    ref = naive_greedy(g, 1.0)
    assert mine.picks == ref.picks
    assert mine.cumulative == ref.cumulative
    assert calls[0] <= 5 * g.n


def test_pareto_greedy_stops_at_the_threshold(monkeypatch):
    # greedy needs 42 picks to reach 0.8 here and 83 to cover everyone
    g = gen_erdos_renyi(600, 0.0167, 1)
    calls = _count_node_coverage(monkeypatch)
    sel = greedy_select(g, 0.8)
    direct, calls[0] = calls[0], 0
    p = pareto_point(g, "greedy", 0.8)
    assert (p.k, len(sel.picks)) == (42, 42)
    assert calls[0] == direct


def test_greedy_equal_fresh_gains_pick_earlier_in_scan():
    # scan order h (in-degree 4), x (3), b (2).  After h covers x1, x and b
    # both gain 3 while their stale bounds are 4 and 3; x is earlier in scan
    # order though its label sorts after b's.
    edges = [("a1", "h"), ("a2", "h"), ("a3", "h"), ("x1", "h")]
    edges += [("x1", "x"), ("x2", "x"), ("x3", "x"), ("y1", "b"), ("y2", "b")]
    g = DirectedGraph.from_edges(edges)
    res = greedy_select(g, 1.0)
    assert res.picks[:3] == ("h", "x", "b")
    assert res.cumulative[:2] == (5 / g.n, 8 / g.n)
    ref = naive_greedy(g, 1.0)
    assert (res.picks, res.cumulative) == (ref.picks, ref.cumulative)


def test_monotone_and_submodular():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = random_digraph(rng, max_n=15)
        nodes = list(g.nodes)
        small = set(rng.choice(nodes, size=min(2, g.n), replace=False))
        big = small | set(rng.choice(nodes, size=min(4, g.n), replace=False))
        for v in nodes:
            cov_small = set_coverage(g, small).covered
            cov_big = set_coverage(g, big).covered
            gain_small = len(node_coverage(g, v) - cov_small)
            gain_big = len(node_coverage(g, v) - cov_big)
            assert gain_small >= gain_big  # submodularity
            assert set_coverage(g, small | {v}).fraction >= set_coverage(g, small).fraction


def test_irrelevant_node_removal_keeps_picks():
    # z sits outside every selected coverage set of the two-star graph
    g = two_stars()
    with_z = DirectedGraph.from_edges(g.edges, nodes=[*g.nodes, "z"])
    assert greedy_select(with_z, 0.8).picks == greedy_select(g, 0.8).picks


def test_truncated():
    res = greedy_select(two_stars(), 1.0)
    cut = res.truncated(1)
    assert cut.picks == ("h1",)
    assert cut.cumulative == (0.6,)
    assert cut.target is None


# --- rank-based selection ---


def test_rank_select_two_hubs():
    g = two_stars()
    rank = centrality_rank(g, "in_degree")
    res = centrality_rank_select(g, rank).truncated(2)
    assert res.picks == ("h1", "h2")
    assert res.cumulative[-1] == 1.0


def test_rank_select_k_equals_n():
    g = two_hubs()
    rank = centrality_rank(g, "closeness")
    res = centrality_rank_select(g, rank)
    assert len(res.picks) == g.n
    assert res.cumulative[-1] == 1.0


def test_rank_select_k1_max_in_degree():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_digraph(rng, max_n=20)
        rank = centrality_rank(g, "in_degree")
        res = centrality_rank_select(g, rank).truncated(1)
        assert res.cumulative[0] == (max(g.in_degree(v) for v in g.nodes) + 1) / g.n


def test_truncated_k_below_one():
    # the curve is cut by truncated, which rejects only k < 1; the CLI bounds
    # --k by the node count (test_select_bad_request_does_no_work)
    g = two_hubs()
    res = centrality_rank_select(g, centrality_rank(g, "in_degree"))
    for bad in (0, -1):
        with pytest.raises(ValueError):
            res.truncated(bad)
    assert res.truncated(g.n + 1).picks == res.picks


def test_rank_select_rank_from_another_graph():
    rank = centrality_rank(two_stars(), "in_degree")
    with pytest.raises(ValueError, match="node set"):
        centrality_rank_select(two_hubs(), rank)


def test_reaching_cuts_at_the_first_crossing():
    g = two_stars()
    res = centrality_rank_select(g, centrality_rank(g, "in_degree"))
    assert res.reaching(0.6).picks == ("h1",)
    assert res.reaching(0.61).picks == ("h1", "h2")
    assert res.reaching(1.0).cumulative[-1] == 1.0
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"target must be in \(0, 1\]"):
            res.reaching(bad)


def test_rank_select_cumulative_non_decreasing():
    rng = np.random.default_rng(15)
    for trial in range(10):
        g = random_digraph(rng, max_n=20)
        if trial % 2:  # isolated nodes are covered only by picking them
            g = DirectedGraph.from_edges(g.edges, nodes=[*g.nodes, "iso1", "iso2"])
        for method in ("in_degree", "betweenness", "closeness", "eigenvector"):
            rank = centrality_rank(g, method)
            res = centrality_rank_select(g, rank)
            assert all(a <= b for a, b in zip(res.cumulative, res.cumulative[1:]))
            for i, c in enumerate(res.cumulative):
                assert c == set_coverage(g, rank.order[: i + 1]).fraction
