"""Baseline centrality measures over directed graphs.

All five measures return raw scores plus a deterministic descending rank via
:func:`to_rank` (score descending, label ascending, so equal scores never
leave an ambiguous order).  Conventions for directed graphs:

* degree splits into in / out / total variants;
* betweenness counts shortest directed paths with the node strictly interior,
  unnormalized (Brandes accumulation);
* closeness uses outgoing distances with a reach-scaled correction
  ``(r / (n - 1)) * (r / D)`` so scores stay comparable when parts of the
  graph are unreachable; it reduces to the classic inverse-average-distance
  form on strongly connected graphs;
* eigenvector is the dominant left eigenvector of the adjacency matrix (a
  node's score is the sum of its in-neighbors' scores), by power iteration.

Betweenness and closeness share one all-sources sweep over the graph's CSR
arrays (:func:`path_centralities`): numpy BFS trees for a block of sources
side by side, level by level, with every floating-point sum taken in the
order of the classic one-source-at-a-time loop, so the scores do not depend
on the block size.

Closeness has no sweep of its own: it is always read from that one.

The sources fall into contiguous chunks of ``_BLOCK_BUDGET // n`` (each
chunk's dependency rows are at most 2**16 floats, 512 KiB), and one loop
walks them.  The calling process sweeps chunk 0 and projects the edges it
expanded to all n sources.  When that reaches ``_FORK_MIN_VISITS`` (2**22),
``os.fork`` and ``os.sched_getaffinity`` exist, the mask holds more than one
CPU and no other Python thread runs, the remaining chunks go round-robin to
W workers, one per CPU of the affinity mask: this process and forked
children, which send their chunks back over pipes.  Otherwise W = 1 and this
process sweeps every chunk.  This process adds every dependency row in
ascending source order either way, so the scores are bit for bit those of
one process, and ``taskset -c 0`` changes only the wall time.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .graph import DirectedGraph

MEASURES = (
    "in_degree",
    "out_degree",
    "total_degree",
    "betweenness",
    "closeness",
    "eigenvector",
)


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one measure; all scores finite and >= 0."""

    measure: str
    scores: dict[str, float]
    warning: str | None = None


@dataclass(frozen=True)
class Rank:
    """Nodes ordered best-first; always a full permutation, never tied.

    ``warning`` is the scores' warning, carried along for the user.
    """

    measure: str
    order: tuple[str, ...]
    warning: str | None = field(default=None, compare=False)

    def positions(self) -> dict[str, int]:
        """1-based position of every node (1 = top of the rank)."""
        return {v: i + 1 for i, v in enumerate(self.order)}


def to_rank(scores: CentralityScores) -> Rank:
    """Order nodes by score descending, ties broken by label ascending."""
    ordered = sorted(scores.scores, key=lambda v: (-scores.scores[v], v))
    return Rank(measure=scores.measure, order=tuple(ordered), warning=scores.warning)


def degree_centrality(g: DirectedGraph, mode: str = "in") -> CentralityScores:
    """Degree scores; ``mode`` is ``in``, ``out``, or ``total``."""
    if mode == "in":
        degree = np.diff(g.in_csr[0])
    elif mode == "out":
        degree = np.diff(g.csr[0])
    elif mode == "total":
        degree = np.diff(g.in_csr[0]) + np.diff(g.csr[0])
    else:
        raise ValueError(f"unknown degree mode {mode!r}; expected in, out, or total")
    scores = dict(zip(g.nodes, degree.astype(float).tolist()))
    return CentralityScores(measure=f"{mode}_degree", scores=scores)


#: A block of sources holds at most this many (source, node) keys, and its
#: busiest BFS level expands about this many edges.  The first block assumes
#: one level may hold every edge (budget // max(m, n) sources); each later
#: block scales by the busiest level of the block before, so graphs whose
#: BFS trees stay small batch many more sources.  A chunk, the unit of work
#: one process sweeps and hands over, holds budget // n sources, so its
#: dependency rows are at most this many floats.
_BLOCK_BUDGET = 2**16

#: The sweep forks worker processes only when its first chunk, projected to
#: all n sources, expands at least this many edges: below it the fork and the
#: pipe cost more than the second CPU saves.
_FORK_MIN_VISITS = 2**22

# Python 3.12+ warns on fork while numpy's BLAS pool thread runs; the workers
# call no BLAS, and OpenBLAS registers its own atfork handlers.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _blocks(g: DirectedGraph, lo: int, hi: int, block: int):
    """Sweep sources ``lo..hi-1`` a block at a time, in ascending order.

    Runs Brandes' algorithm over ``g.csr`` for a block of B sources at once,
    node v of source b keyed ``b * n + v``.  The forward BFS is
    level-synchronous and keeps each source's FIFO discovery order; it
    records the shortest-path DAG edges of each level.  The backward pass
    feeds each node's dependency contributions to ``np.bincount`` in the
    reversed discovery order of its children.  Path counts sigma are float64,
    exact below 2**53.

    Yields ``(sources, reached, closeness, rows, visits, block)`` per block:
    the closeness of the ``reached`` sources (those reaching any node), the
    block's B x n dependency rows, the edges its BFS expanded, and the size
    of the next block.
    """
    n = g.n
    indptr, indices = g.csr
    while lo < hi:
        sources = np.arange(lo, min(lo + block, hi))
        lo += sources.size
        peak = 1  # edges expanded by the busiest level
        visits = 0
        size = sources.size * n
        frontier = np.arange(sources.size) * n + sources
        dist = np.full(size, -1, dtype=np.intp)
        dist[frontier] = 0
        first = np.empty(size, dtype=np.intp)  # scratch: first edge, then rank
        sigma = np.zeros(size)
        sigma[frontier] = 1.0
        levels = [frontier]
        dag = [None]  # per level: (parent key, child's discovery rank) of each DAG edge
        reached = np.zeros(sources.size, dtype=np.int64)
        total = np.zeros(sources.size, dtype=np.int64)
        while True:
            # Every out-edge of the frontier, frontier order, neighbors ascending.
            v = frontier % n
            starts = indptr[v]
            deg = indptr[v + 1] - starts
            pos = np.repeat(starts - np.cumsum(deg) + deg, deg)
            pos += np.arange(pos.size)
            head = indices[pos]
            head += np.repeat(frontier - v, deg)
            peak = max(peak, head.size)
            visits += head.size
            # flatnonzero + take: much faster than a boolean mask index here.
            fresh = np.flatnonzero(dist[head] < 0)
            if not fresh.size:
                break
            head = head[fresh]
            # FIFO order: a node joins the next level at the first edge that
            # reaches it, and edges come out in frontier order.
            at = np.arange(head.size)
            first[head] = head.size
            np.minimum.at(first, head, at)
            nxt = head[np.flatnonzero(first[head] == at)]
            depth = len(levels)
            dist[nxt] = depth
            found = np.bincount(nxt // n, minlength=sources.size)
            reached += found
            total += depth * found
            tail = np.repeat(frontier, deg)[fresh]
            first[nxt] = np.arange(nxt.size)
            rank = first[head]
            sigma[nxt] = np.bincount(rank, weights=sigma[tail], minlength=nxt.size)
            dag.append((tail, rank))
            levels.append(nxt)
            frontier = nxt

        block = max(1, min(_BLOCK_BUDGET // n, _BLOCK_BUDGET * sources.size // peak))
        some = np.flatnonzero(reached)
        r = reached[some]
        closeness = (r / (n - 1)) * (r / total[some])
        delta = np.zeros(size)
        for depth in range(len(levels) - 1, 0, -1):
            children = levels[depth]
            coeff = (1.0 + delta[children]) / sigma[children]
            # Children in reversed discovery order; one child's edges have
            # distinct parents, so their order among themselves is free.
            tail, rank = dag[depth]
            order = np.argsort(-rank)
            tail, rank = tail[order], rank[order]
            parents = levels[depth - 1]
            first[parents] = np.arange(parents.size)
            delta[parents] = np.bincount(
                first[tail], weights=sigma[tail] * coeff[rank], minlength=parents.size
            )
        delta[levels[0]] = 0.0
        rows = delta.reshape(sources.size, n)
        yield sources, sources[some], closeness, rows, visits, block


def _path_sweep(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Betweenness and closeness by node index.

    Sources fall into chunks of ``chunk``, swept by :func:`_blocks` in
    ascending order, and each source's dependency row is added to the totals
    one by one, so every floating-point sum runs in the order of the
    one-source-at-a-time loop.  This process sweeps chunk 0 and projects its
    edge visits to all n sources; :func:`_workers` turns that into W workers.
    Chunk i >= 1 goes to worker ``(i - 1) % W``: worker 0 is this process,
    the others are forked children that send each chunk back over a pipe as
    its closeness values followed by its dependency rows.  W = 1 is the
    serial sweep.  Whether the sweep ends or raises, every child still
    running is killed and reaped.
    """
    n = g.n
    betweenness = np.zeros(n)
    closeness = np.zeros(n)
    chunk = max(1, _BLOCK_BUDGET // max(n, 1))
    block = max(1, _BLOCK_BUDGET // max(g.m, n, 1))
    starts = range(0, n, chunk)
    workers = 1
    visits = 0
    children = []  # (pid, read end of its pipe) of workers 1..W-1
    try:
        for i, start in enumerate(starts):
            stop = min(start + chunk, n)
            if i == 1:
                workers = _workers(visits * n / start, len(starts) - 1)
                if workers > 1:
                    _fork(g, starts[1:], chunk, block, workers, children)
                    buf = np.empty(chunk * (n + 1))
            k = (i - 1) % workers if i else 0
            if k == 0:
                for _, reached, values, rows, seen, block in _blocks(
                    g, start, stop, block
                ):
                    visits += seen
                    closeness[reached] = values
                    for dependency in rows:
                        betweenness += dependency
                continue
            pid, r = children[k - 1]
            size = stop - start
            got = buf[: size * (n + 1)]
            view = memoryview(got).cast("B")
            while view:
                done = os.readv(r, [view])
                if not done:
                    raise RuntimeError(
                        f"path sweep worker {pid} ended before sending sources "
                        f"{start}..{stop - 1}"
                    )
                view = view[done:]
            closeness[start:stop] = got[:size]
            for dependency in got[size:].reshape(size, n):
                betweenness += dependency
    finally:
        for pid, r in children:
            os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return betweenness, closeness


def _workers(projected_visits: float, chunks: int) -> int:
    """How many processes, this one included, sweep the remaining chunks."""
    if (
        projected_visits < _FORK_MIN_VISITS
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() != 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _fork(
    g: DirectedGraph,
    starts: range,
    chunk: int,
    block: int,
    workers: int,
    children: list[tuple[int, int]],
) -> None:
    """Fork workers 1..W-1; worker k sweeps the chunks ``starts[k::workers]``.

    Each child joins ``children`` as ``(pid, read end of its pipe)`` once it
    runs, and closes the read ends of the children forked before it.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                readers = [r] + [fd for _, fd in children]
                _worker(g, starts[k::workers], chunk, block, w, readers)
            os.close(w)
            children.append((pid, r))


def _worker(
    g: DirectedGraph, starts: range, chunk: int, block: int, w: int, readers: list[int]
) -> NoReturn:
    """Forked child: sweep the chunks beginning at ``starts``, write each to ``w``.

    It first closes the pipe ends it inherited for reading, so that a write
    fails instead of blocking once the parent is gone.
    """
    code = 1
    try:
        for fd in readers:
            os.close(fd)
        n = g.n
        for start in starts:
            size = min(chunk, n - start)
            out = np.zeros(size * (n + 1))
            dependencies = out[size:].reshape(-1, n)
            for sources, reached, values, rows, _, block in _blocks(
                g, start, start + size, block
            ):
                out[reached - start] = values
                dependencies[sources[0] - start : sources[-1] + 1 - start] = rows
            view = memoryview(out).cast("B")
            while view:
                view = view[os.write(w, view) :]
        code = 0
    finally:
        os._exit(code)


def path_centralities(g: DirectedGraph) -> tuple[CentralityScores, CentralityScores]:
    """Betweenness and closeness from one shared all-sources sweep.

    Returns ``(betweenness, closeness)``, the same scores as
    :func:`betweenness_centrality` and :func:`closeness_centrality`.  The
    sweep runs at most once per graph and is kept in ``g.memo``: later calls
    of any of the three reuse it.
    """
    done = g.memo.get("path_sweep")
    if done is None:
        done = g.memo["path_sweep"] = _path_sweep(g)
    betweenness, closeness = done
    return (
        CentralityScores("betweenness", dict(zip(g.nodes, betweenness.tolist()))),
        CentralityScores("closeness", dict(zip(g.nodes, closeness.tolist()))),
    )


def betweenness_centrality(g: DirectedGraph) -> CentralityScores:
    """Unnormalized shortest-path betweenness on the directed graph.

    For each node v, sums sigma_st(v) / sigma_st over all ordered pairs
    (s, t) with s != v != t, where sigma_st counts shortest directed paths
    and sigma_st(v) those passing through v as an interior node.  Pairs with
    no path contribute nothing.

    Brandes' accumulation runs for a block of sources at a time, but in a
    fixed order: each node's dependency sums its children's contributions in
    reversed BFS discovery order (neighbors ascending in ``csr``), and
    sources are added to the total in sorted node order, one by one.  The
    result is bit-for-bit that of the one-source-at-a-time loop.  Path
    counts sigma are float64, exact below 2**53, as in networkx.

    The sources fall into chunks whose rows are at most 2**16 floats, swept
    by one loop.  On a graph whose sweep projects to at least 2**22 edge
    visits, the chunks after the first run on every CPU of the process's
    affinity mask (forked children, none outliving the call); the parent
    still adds their rows in source order, so the scores do not depend on
    the CPU count, and a worker that dies raises ``RuntimeError``.
    """
    return path_centralities(g)[0]


def closeness_centrality(g: DirectedGraph) -> CentralityScores:
    """Reach-scaled closeness over outgoing distances.

    With r nodes reachable from v (excluding v) at total distance D:
    ``closeness(v) = (r / (n - 1)) * (r / D)``; nodes reaching nothing score 0.
    r and D are exact integers.  The scores come from the graph's shared
    betweenness sweep (:func:`path_centralities`), so closeness alone costs
    the full sweep, path counts and dependencies included.
    """
    return path_centralities(g)[1]


def _is_acyclic(g: DirectedGraph) -> bool:
    indptr, indices = (a.tolist() for a in g.csr)
    indeg = np.diff(g.in_csr[0]).tolist()
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for w in indices[indptr[v] : indptr[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed == g.n


def eigenvector_centrality(
    g: DirectedGraph, tol: float = 1e-10, max_iter: int = 1000
) -> CentralityScores:
    """Dominant left eigenvector of the adjacency matrix, L2-normalized.

    Scores flow along incoming edges: a node is central when its
    in-neighbors are central.  Power iteration starts uniform and runs on
    the shifted operator A^T + I, which leaves the eigenvector unchanged but
    converges even on periodic structures (a plain iteration oscillates
    forever on, e.g., a bidirectional path).  Convergence is tol on the L2
    difference of successive normalized iterates, capped at max_iter; when
    the cap is hit the last iterate is returned with ``warning`` naming the
    iteration count and the residual.

    On acyclic graphs the true iteration collapses to the zero vector (the
    adjacency matrix is nilpotent), so the result falls back to scores
    proportional to in-degree with ``warning`` set.  Scaling by a positive
    norm keeps every rank and every tie, so the fallback's tie-averaged
    Spearman against any order is identical to in-degree's: on
    preferential-attachment graphs, which are acyclic, the eigenvector
    baseline coincides with in_degree.  An edgeless graph has
    no meaningful eigenvector at all and raises ``ValueError``.
    """
    if g.m == 0:
        raise ValueError("eigenvector undefined: graph has no edges")
    n = g.n

    if _is_acyclic(g):
        vec = np.diff(g.in_csr[0]).astype(float)
        vec /= np.linalg.norm(vec)
        return CentralityScores(
            measure="eigenvector",
            scores=dict(zip(g.nodes, vec.tolist())),
            warning="acyclic graph: power iteration collapses to zero; "
            "scores proportional to in-degree",
        )

    # Edge index arrays: (A^T x)[t] sums x[s] over the edges s -> t.
    indptr, dst = g.csr
    src = np.repeat(np.arange(n), np.diff(indptr))

    x = np.full(n, 1.0 / np.sqrt(n))
    residual = float("inf")
    warning = None
    for _ in range(max_iter):
        y = np.bincount(dst, weights=x[src], minlength=n) + x
        y /= np.linalg.norm(y)
        residual = float(np.linalg.norm(y - x))
        x = y
        if residual <= tol:
            break
    else:
        warning = (
            f"power iteration stopped at max_iter={max_iter} without converging "
            f"(residual {residual:.3g} > tol {tol:.3g})"
        )

    return CentralityScores(
        measure="eigenvector", scores=dict(zip(g.nodes, x.tolist())), warning=warning
    )
