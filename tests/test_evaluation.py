import json
import math
import re

import numpy as np
import pytest
from scipy import stats as sstats

from netcover import (
    METHODS,
    DirectedGraph,
    centrality_rank,
    coverage_table,
    default_ks,
    eigenvector_centrality,
    gen_preferential,
    greedy_rank_vector,
    greedy_select,
    pareto_point,
    rank_correlation_report,
    spearman,
)
from netcover.evaluation import _fractional_ranks, centrality_scores
from helpers import graph_of, random_digraph, star


# --- default ks ---


def test_default_ks_large_n():
    assert default_ks(215) == (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)


def test_default_ks_clamped():
    assert default_ks(7) == (1, 2, 3, 4, 5, 7)
    assert default_ks(2) == (1, 2)


def test_default_ks_empty_graph():
    with pytest.raises(ValueError, match="no nodes"):
        default_ks(0)


# --- coverage table ---


def test_table_star_all_columns_full():
    tab = coverage_table(star(4), [1])
    assert tuple(tab.columns) == METHODS
    for m in METHODS:
        if m == "closeness":
            # the hub is a sink: outgoing-distance closeness ranks it last,
            # so the top-1 closeness pick is a leaf covering only itself
            assert tab.columns[m] == (0.2,)
        else:
            assert tab.columns[m] == (1.0,)


def test_table_edgeless():
    g = DirectedGraph.from_edges([], nodes=[f"v{i}" for i in range(10)])
    tab = coverage_table(g, [1, 5])
    for m in METHODS:
        assert tab.columns[m] == (0.1, 0.5)


def test_table_cell_accessor():
    tab = coverage_table(star(4), [1, 2])
    assert tab.cell(1, "greedy") == 1.0
    assert tab.cell(2, "in_degree") == 1.0


def test_table_ks_validation():
    g = star(4)
    for bad in ([], [0, 1], [2, 2], [3, 1], [99]):
        with pytest.raises(ValueError):
            coverage_table(g, bad)


def test_table_accepts_integral_float_ks():
    g = star(4)
    tab = coverage_table(g, [1, 2.0])
    assert tab == coverage_table(g, [1, 2])
    assert all(type(k) is int for k in tab.ks)
    with pytest.raises(ValueError):
        coverage_table(g, [1, 2.5])


def test_table_columns_non_decreasing():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_digraph(rng, max_n=30)
        tab = coverage_table(g, default_ks(g.n))
        for col in tab.columns.values():
            assert all(a <= b for a, b in zip(col, col[1:]))
            assert all(0.0 <= c <= 1.0 for c in col)


def test_table_greedy_k1_formula():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = random_digraph(rng, max_n=30)
        tab = coverage_table(g, [1])
        want = (max(g.in_degree(v) for v in g.nodes) + 1) / g.n
        assert tab.cell(1, "greedy") == want


def test_table_greedy_column_extends_past_target_run():
    # greedy saturates at 2 picks; ks beyond that must hold the final value
    g = star(4)
    tab = coverage_table(g, [1, 2, 3, 5])
    assert tab.columns["greedy"] == (1.0, 1.0, 1.0, 1.0)


# --- spearman ---


def test_spearman_identical_and_reversed():
    a = [1.0, 2.0, 3.0, 4.0]
    assert spearman(a, a) == 1.0
    assert spearman(a, a[::-1]) == -1.0


def test_spearman_known_value_exact():
    assert spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == 0.8


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])  # n < 2
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # constant input


def test_spearman_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        a = rng.normal(size=n)
        b = rng.integers(0, 5, size=n).astype(float)
        if len(set(b)) < 2:
            continue
        r1, r2 = spearman(a, b), spearman(b, a)
        assert r1 == r2
        assert -1.0 <= r1 <= 1.0


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        assert spearman(a, b) == pytest.approx(
            spearman(np.exp(a), [x**3 for x in b]), abs=1e-12
        )


def test_spearman_matches_scipy():
    rng = np.random.default_rng(25)
    for _ in range(200):
        n = int(rng.integers(3, 50))
        if rng.random() < 0.5:  # force ties half the time
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        want = sstats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)


def test_fractional_ranks_equal_scipy_average_ranks():
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        values = rng.integers(-3, 4, size=n) * rng.choice([1.0, 0.5, -0.0], size=n)
        got = _fractional_ranks(list(values))
        assert np.array_equal(got, sstats.rankdata(values, method="average"))


def test_spearman_tie_free_closed_form():
    rng = np.random.default_rng(26)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        a = list(rng.permutation(n).astype(float))
        b = list(rng.permutation(n).astype(float))
        ra = sstats.rankdata(a)
        rb = sstats.rankdata(b)
        d2 = float(np.sum((ra - rb) ** 2))
        closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        assert spearman(a, b) == pytest.approx(closed, abs=1e-12)


# --- rank correlation report ---


def test_report_reference_is_greedy():
    g = gen_preferential(40, 3, 5)
    rep = rank_correlation_report(g)
    assert tuple(rep.entries) == METHODS[:-1]  # the four baselines, in order


def test_report_greedy_against_itself():
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = random_digraph(rng, max_n=25)
        vals = greedy_rank_vector(g).tolist()
        if len(set(vals)) < 2:
            continue
        assert spearman(vals, vals) == 1.0


def test_report_two_node_graph():
    g = graph_of(("a", "b"))
    rep = rank_correlation_report(g)
    assert rep.entries["in_degree"] == 1.0
    assert rep.entries["eigenvector"] == 1.0
    # outgoing-distance closeness favours the source, the exact opposite
    # of the greedy order [b, a]
    assert rep.entries["closeness"] == -1.0
    # betweenness is 0 for both nodes: constant, so undefined
    assert rep.entries["betweenness"] is None


def test_greedy_rank_vector_tail_ties():
    g = star(4)  # greedy stops after the hub
    vec = greedy_rank_vector(g)
    assert vec[g.index["hub"]] == 1.0
    tail = [vec[g.index[f"l{i}"]] for i in range(1, 5)]
    assert set(tail) == {(2 + 5) / 2}


def test_report_entries_bounded():
    rng = np.random.default_rng(28)
    for _ in range(10):
        g = random_digraph(rng, max_n=25)
        rep = rank_correlation_report(g)
        for rho in rep.entries.values():
            if rho is not None:
                assert -1.0 <= rho <= 1.0


# --- pareto ---


def test_pareto_star():
    p = pareto_point(star(4), "greedy", 0.8)
    assert (p.k, p.node_fraction, p.coverage) == (1, 0.2, 1.0)


def test_pareto_edgeless():
    g = DirectedGraph.from_edges([], nodes=[f"v{i}" for i in range(10)])
    p = pareto_point(g, "greedy", 0.8)
    assert p.k == 8
    assert p.node_fraction == 0.8
    assert p.coverage == 0.8


def test_pareto_threshold_validation():
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            pareto_point(star(4), "greedy", bad)


def test_pareto_minimality_direct_scan():
    rng = np.random.default_rng(29)
    for _ in range(15):
        g = random_digraph(rng, max_n=25)
        for method in ("greedy", "in_degree", "closeness"):
            p = pareto_point(g, method, 0.8)
            assert p.coverage >= 0.8
            assert p.node_fraction == p.k / g.n
            if method == "greedy":
                curve = greedy_select(g, 1.0).cumulative
            else:
                from netcover import centrality_rank_select

                curve = centrality_rank_select(g, centrality_rank(g, method)).cumulative
            scan = next(i + 1 for i, c in enumerate(curve) if c >= 0.8)
            assert p.k == scan


def test_pareto_bad_method():
    # the message names every method pareto_point accepts, greedy included
    with pytest.raises(ValueError, match=re.escape(str(METHODS))):
        pareto_point(star(4), "pagerank", 0.8)


def test_centrality_scores_bad_method():
    # the message names the four baselines; greedy has no scores
    with pytest.raises(ValueError, match=re.escape(str(METHODS[:-1]))):
        centrality_scores(star(4), "pagerank")


# --- eigenvector on the edgeless table ---


def test_centrality_scores_edgeless_eigenvector_zeroes():
    g = DirectedGraph.from_edges([], nodes="abc")
    cs = centrality_scores(g, "eigenvector")
    assert cs.warning is not None
    assert set(cs.scores.values()) == {0.0}


def test_edgeless_eigenvector_same_in_library_and_evaluation():
    g = DirectedGraph.from_edges([], nodes="abc")
    assert eigenvector_centrality(g) == centrality_scores(g, "eigenvector")


# --- pareto rendering ---


def test_render_pareto_formats():
    from netcover.render import render_pareto

    point = pareto_point(star(4), method="greedy", threshold=0.8)
    doc = json.loads(render_pareto(point, "json"))
    assert doc == {
        "method": "greedy",
        "k": 1,
        "node_fraction": 0.2,
        "coverage": 1.0,
    }
    assert (
        render_pareto(point, "csv")
        == "method,k,node_fraction,coverage\ngreedy,1,0.2,1.0\n"
    )
