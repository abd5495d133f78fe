import math

import pytest

from netcover import (
    gen_erdos_renyi,
    gen_preferential,
    to_json,
)


# --- parameter validation ---


def test_generators_validate_ranges():
    with pytest.raises(ValueError, match="n must be >= 2"):
        gen_erdos_renyi(1, 0.5, 1)
    with pytest.raises(ValueError, match="n must be >= 2"):
        gen_preferential(1, 1, 1)
    with pytest.raises(ValueError, match="p in"):
        gen_erdos_renyi(10, 1.5, 1)
    with pytest.raises(ValueError, match="p in"):
        gen_erdos_renyi(10, -0.1, 1)
    with pytest.raises(ValueError, match="edges_per_node"):
        gen_preferential(10, 0, 1)


# --- erdos-renyi ---


def test_er_p_zero_and_one():
    g0 = gen_erdos_renyi(8, 0.0, 1)
    assert g0.n == 8
    assert g0.m == 0
    g1 = gen_erdos_renyi(8, 1.0, 1)
    assert g1.m == 8 * 7


def test_er_determinism():
    a = gen_erdos_renyi(30, 0.2, 99)
    b = gen_erdos_renyi(30, 0.2, 99)
    assert to_json(a) == to_json(b)
    c = gen_erdos_renyi(30, 0.2, 100)
    assert to_json(a) != to_json(c)


def test_er_no_self_loops_or_duplicates():
    g = gen_erdos_renyi(25, 0.4, 5)
    assert all(u != v for u, v in g.edges)
    assert len(set(g.edges)) == g.m


def test_er_edge_count_concentration():
    # binomial 3-sigma band over 50 seeds
    n, p = 215, 0.0484
    big_n = n * (n - 1)
    mu = big_n * p
    sigma = math.sqrt(big_n * p * (1 - p))
    for seed in range(1, 51):
        m = gen_erdos_renyi(n, p, seed).m
        assert abs(m - mu) <= 3 * sigma


# --- preferential attachment ---


def test_pa_three_nodes_one_edge_each():
    for seed in (0, 1, 17):
        g = gen_preferential(3, 1, seed)
        assert g.n == 3
        assert g.m == 2


def test_pa_edge_count_formula():
    # node i emits min(epn, i) edges
    for n, epn in ((10, 3), (50, 5), (215, 10)):
        g = gen_preferential(n, epn, 1)
        assert g.m == sum(min(epn, i) for i in range(1, n))


def test_pa_determinism():
    a = gen_preferential(40, 4, 7)
    b = gen_preferential(40, 4, 7)
    assert to_json(a) == to_json(b)


def test_pa_acyclic_arrival_order():
    # labels are zero-padded arrival indices; every edge points backwards
    g = gen_preferential(30, 3, 2)
    assert all(u > v for u, v in g.edges)


def test_pa_labels_zero_padded():
    g = gen_preferential(11, 1, 1)
    assert g.nodes[0] == "00"
    assert g.nodes[-1] == "10"
    g = gen_preferential(10, 1, 1)
    assert g.nodes == tuple(str(i) for i in range(10))


def test_pa_heavier_tail_than_er():
    # same edge budget, much larger max in-degree
    for seed in range(1, 21):
        pa = gen_preferential(215, 10, seed)
        er = gen_erdos_renyi(215, pa.m / (215 * 214), seed)
        assert max(pa.in_degree(v) for v in pa.nodes) > max(
            er.in_degree(v) for v in er.nodes
        )


def test_pa_no_duplicate_targets():
    g = gen_preferential(60, 6, 9)
    assert len(set(g.edges)) == g.m
    assert all(u != v for u, v in g.edges)
