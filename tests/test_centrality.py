import hashlib
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import netcover.centrality as centrality_mod
from netcover import (
    MEASURES,
    DirectedGraph,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    gen_erdos_renyi,
    gen_preferential,
    path_centralities,
    to_rank,
)
from netcover.centrality import CentralityScores
from netcover.cli import main
from helpers import (
    bigrid,
    bipath,
    complete,
    cycle,
    graph_of,
    path,
    random_digraph,
    scalar_path_centralities,
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
    assert s.warning is not None and s.warning.startswith("acyclic graph")
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


# --- the shared betweenness/closeness sweep ---


def _sha256(g: DirectedGraph, cs: CentralityScores) -> str:
    values = np.array([cs.scores[v] for v in g.nodes], dtype=np.float64)
    return hashlib.sha256(values.tobytes()).hexdigest()


# sha256 of the float64 scores in node order, recorded from the
# one-BFS-per-source loops the sweep replaced: (betweenness, closeness).
_RECORDED = {
    "er300": (
        "9bb7657c26a3675dfe210109fcc72fd7252ab3bd55bdc8c64ed46bd4f76c9df2",
        "43c6cb88e3db39a6c3e96fe443cce5c55fc52cb2e9f8bde0b3721bef463121fb",
    ),
    "pa215": (
        "b8ac679e2ab723e09a90afea7280429be1da3035eac185028be5893373998d9b",
        "aa65960d0cb5cd83b009b213009542b2e9bdb9e414a52a1713c15589031b4f5e",
    ),
    "grid20": (
        "ee01cf7d531332cf9a97ae1ea5e0714688577e8e43ae466a952d93ee60f6a1af",
        "868042b74c02e64d8ea2c14cd77b4203fff4d97ca4e187ed54e9b8ba0e4a8620",
    ),
}


_BUILD = {
    "er300": lambda: gen_erdos_renyi(300, 0.03, 17),
    "pa215": lambda: gen_preferential(215, 10, 3),
    "grid20": lambda: bigrid(20),
}


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_path_sweep_bit_identical(name):
    # a fresh graph per call: each graph keeps its first sweep
    g = _BUILD[name]()
    betweenness, closeness = path_centralities(g)
    assert (_sha256(g, betweenness), _sha256(g, closeness)) == _RECORDED[name]
    g = _BUILD[name]()
    assert _sha256(g, betweenness_centrality(g)) == _RECORDED[name][0]
    g = _BUILD[name]()
    assert _sha256(g, closeness_centrality(g)) == _RECORDED[name][1]


def _scores_by_index(*measures: CentralityScores) -> list[list[float]]:
    return [list(cs.scores.values()) for cs in measures]  # dicts keep node order


def test_path_sweep_block_boundaries(monkeypatch):
    """Blocks of one source, an uneven split with a partial last block, and
    all sources in one block give the scalar loop's scores bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(12):
        h = random_digraph(rng, max_n=25)

        def fresh() -> DirectedGraph:  # isolated nodes: unreachable pairs
            return DirectedGraph.from_edges(h.edges, nodes=h.nodes + ("zz1", "zz2"))

        g = fresh()
        want = list(scalar_path_centralities(g))
        # The first block takes budget // max(m, n) sources, later blocks at
        # least as many and at most budget // n: so one source per block
        # throughout, n // 2 + 1 sources then a partial block, all n at once.
        width = max(g.m, g.n)
        for budget in (1, (g.n // 2 + 1) * width, g.n * width):
            monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", budget)
            assert _scores_by_index(*path_centralities(fresh())) == want, budget
            assert _scores_by_index(closeness_centrality(fresh())) == want[1:]


def test_path_sweep_runs_once_per_graph(monkeypatch):
    g = gen_erdos_renyi(40, 0.1, 2)
    calls = []
    sweep = centrality_mod._path_sweep

    def counted(graph):
        calls.append(graph)
        return sweep(graph)

    monkeypatch.setattr(centrality_mod, "_path_sweep", counted)
    first = closeness_centrality(g).scores
    betweenness, closeness = path_centralities(g)
    assert betweenness_centrality(g).scores == betweenness.scores
    assert closeness_centrality(g).scores == closeness.scores == first
    assert calls == [g]


# --- the sweep on several processes ---


@pytest.fixture
def forks(monkeypatch):
    """The children forked, in a list; afterwards this process has no child
    left, reaped or not."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch, forks):
    """Fork for every sweep of two or more chunks, on the CPU count set by the
    returned ``workers(w)``; ``forks`` lists the children forked."""

    def workers(w: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))

    monkeypatch.setattr(centrality_mod, "_FORK_MIN_VISITS", 0)
    return workers, forks


def test_fork_decision_at_the_real_threshold(forks, monkeypatch):
    """On two CPUs the survey-pa shape sweeps serially and the flat-er shape
    forks one worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    g = gen_preferential(1500, 10, 1)
    assert betweenness_centrality(g).scores
    assert forks == []
    g = gen_erdos_renyi(1500, 0.0067, 1)
    assert betweenness_centrality(g).scores
    assert len(forks) == 1


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_forked_sweep_bit_identical(name, w, forking, monkeypatch):
    """Three workers on two CPUs are slower, not wrong."""
    workers, forks = forking
    workers(w)
    monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", 2**12)  # 10-20 sources a chunk
    g = _BUILD[name]()
    betweenness, closeness = path_centralities(g)
    assert (_sha256(g, betweenness), _sha256(g, closeness)) == _RECORDED[name]
    g = _BUILD[name]()
    assert _sha256(g, closeness_centrality(g)) == _RECORDED[name][1]
    assert len(forks) == 2 * (w - 1)


@pytest.mark.parametrize("w", [2, 3])
def test_forked_sweep_block_boundaries(w, forking, monkeypatch):
    workers, forks = forking
    workers(w)
    rng = np.random.default_rng(11)
    for _ in range(12):
        h = random_digraph(rng, max_n=25)

        def fresh() -> DirectedGraph:
            return DirectedGraph.from_edges(h.edges, nodes=h.nodes + ("zz1", "zz2"))

        g = fresh()
        want = list(scalar_path_centralities(g))
        # chunks of one source, then of two or more sources split into blocks
        width = max(g.m, g.n)
        for budget in (1, 2 * width, 3 * width):
            monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", budget)
            assert _scores_by_index(*path_centralities(fresh())) == want, budget
            assert _scores_by_index(closeness_centrality(fresh())) == want[1:]
    assert forks


def _failing_blocks(monkeypatch, in_parent: bool) -> None:
    """Make each chunk swept after the fork raise, here or in the workers."""
    parent = os.getpid()
    blocks = centrality_mod._blocks

    def failing(g, lo, hi, block):
        if lo > 0 and (os.getpid() == parent) == in_parent:
            raise ValueError("chunk fails")
        return blocks(g, lo, hi, block)

    monkeypatch.setattr(centrality_mod, "_blocks", failing)


def test_forked_sweep_worker_failure_raises(forking, monkeypatch, capsys):
    workers, forks = forking
    workers(2)
    monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", 2**8)
    _failing_blocks(monkeypatch, in_parent=False)
    with pytest.raises(RuntimeError, match="path sweep worker .* ended before sending"):
        path_centralities(gen_erdos_renyi(60, 0.1, 5))
    assert len(forks) == 1
    # the CLI reports it as an internal error
    golden = Path(__file__).parent / "golden" / "gen_pa.json"
    assert main(["evaluate", str(golden)]) == 3
    assert "internal error: path sweep worker" in capsys.readouterr().err
    assert len(forks) == 2


def test_forked_sweep_parent_failure_reaps_workers(forking, monkeypatch):
    workers, forks = forking
    workers(3)
    monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", 2**8)
    _failing_blocks(monkeypatch, in_parent=True)
    with pytest.raises(ValueError, match="chunk fails"):
        path_centralities(gen_erdos_renyi(60, 0.1, 5))
    assert len(forks) == 2


def test_sweep_never_forks_beside_a_thread(forking, monkeypatch):
    workers, _ = forking
    workers(2)
    monkeypatch.setattr(centrality_mod, "_BLOCK_BUDGET", 2**12)

    def refuse():
        raise AssertionError("forked while a second thread runs")

    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        g = _BUILD["er300"]()
        assert _sha256(g, betweenness_centrality(g)) == _RECORDED["er300"][0]
        g = _BUILD["er300"]()
        assert _sha256(g, closeness_centrality(g)) == _RECORDED["er300"][1]
    finally:
        stop.set()
        thread.join()
