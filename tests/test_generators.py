import hashlib
import math

import numpy as np
import pytest

from netcover import (
    gen_erdos_renyi,
    gen_preferential,
    to_csv,
    to_json,
)
from helpers import cumsum_preferential


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
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        gen_erdos_renyi(10, 0.5, -1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        gen_preferential(10, 2, -1)


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


def _dump(g):
    return to_json(g) + to_csv(g)


def test_pa_matches_cumsum_reference():
    # every pick of the Fenwick descent equals the per-draw cumsum search,
    # including epn >= n (every earlier node chosen) and the smallest graphs
    for n in (2, 3, 5, 11, 50, 300):
        for epn in (1, 2, 3, 10, 60):
            for seed in range(1, 6):
                expected = _dump(cumsum_preferential(n, epn, seed))
                assert _dump(gen_preferential(n, epn, seed)) == expected, (n, epn, seed)


class _DyadicDraws:
    """Stand-in for numpy's generator whose uniforms are k / 64, k = 0..64.

    ``u * total`` is then often an exact integer, so draws land on prefix-sum
    boundaries (where ``<=`` and ``<`` part ways), on 0, and, with u = 1.0
    (never drawn by numpy), on the clamped ``r == total`` edge."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def random(self, size=None):
        return self._rng.integers(0, 65, size) / 64


def test_pa_matches_cumsum_reference_on_boundary_draws(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _DyadicDraws)
    for n, epn in ((5, 3), (11, 2), (50, 3), (300, 10)):
        for seed in range(1, 6):
            expected = _dump(cumsum_preferential(n, epn, seed))
            assert _dump(gen_preferential(n, epn, seed)) == expected, (n, epn, seed)


class _EdgeDraws:
    """Stand-in for numpy's generator whose every uniform is 1.0: each draw
    lands on the ``u * total == total`` rounding edge, and each draw after an
    arrival's first must also skip the node it has just chosen."""

    def __init__(self, seed):
        pass

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def test_pa_draws_at_the_rounding_edge(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _EdgeDraws)
    for n in (2, 3, 5, 11, 50):
        for epn in (1, 2, 3, 10):
            expected = _dump(cumsum_preferential(n, epn, 1))
            assert _dump(gen_preferential(n, epn, 1)) == expected, (n, epn)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((2000, 10, 3), "9c18c5a4c9229e2552d92de794f3d56c3c92f7000948cb409724f48582e2da59"),
        ((5000, 10, 1), "52a049c2237dfad1c18ce1813918b61b83a12c5ca7afb653460aa865708e9513"),
    ],
)
def test_pa_large_graphs_keep_recorded_digest(args, digest):
    # sha256 of to_json, recorded from the cumsum generator
    assert hashlib.sha256(to_json(gen_preferential(*args)).encode()).hexdigest() == digest
