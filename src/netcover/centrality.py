"""Baseline centrality measures over directed graphs.

The four baseline measures (in-degree, betweenness, closeness, eigenvector)
each return a read-only array of scores by node position, and
:func:`to_rank` orders it (score descending, label ascending, so equal scores
never leave an ambiguous order); labels are looked up only on demand.
Conventions for directed graphs:

* degree counts incoming edges: the members who name a node;
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
on the block size.  A level runs top-down over the frontier's out-edges, or
bottom-up over the unvisited nodes' in-edges when those are fewer (by the
factor ``_PULL``); bottom-up puts its edges back in top-down order, so the
direction never changes a bit of the scores.

Closeness has no sweep of its own: it is always read from that one.

The sources fall into contiguous chunks of ``_BLOCK_BUDGET // n`` (each
chunk's dependency rows are at most 2**16 floats, 512 KiB), and one loop
walks them.  The calling process sweeps chunk 0 and projects its edge visits
to all n sources.  An edge visit is an out-edge of a BFS frontier, what a
top-down level expands, whichever direction the level ran, so the projection
and the block sizes do not depend on ``_PULL``.  When the projection reaches
``_FORK_MIN_VISITS`` (2**22),
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
from functools import cached_property
from typing import BinaryIO, NoReturn

import numpy as np

from .graph import DirectedGraph, _edge_positions

@dataclass(frozen=True, eq=False)
class CentralityScores:
    """Per-node scores for one measure; all scores finite and >= 0.

    ``values[i]`` is the score of ``nodes[i]``, the graph's sorted labels.
    ``values`` is made read-only, since the sweep's arrays are shared through
    ``g.memo``; the label dict ``scores`` is built on first access.
    """

    measure: str
    nodes: tuple[str, ...] = field(repr=False)
    values: np.ndarray = field(repr=False)
    warning: str | None = None

    def __post_init__(self) -> None:
        self.values.flags.writeable = False

    @cached_property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.nodes, self.values.tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CentralityScores) and (
            self.measure, self.nodes, self.values.tolist(), self.warning
        ) == (other.measure, other.nodes, other.values.tolist(), other.warning)


@dataclass(frozen=True)
class Rank:
    """Nodes ordered best-first; always a full permutation, never tied.

    ``perm`` is ``order`` as positions in ``nodes``, the graph's sorted
    labels.  ``warning`` is the scores' warning, carried along for the user.
    """

    measure: str
    order: tuple[str, ...]
    nodes: tuple[str, ...] = field(repr=False, compare=False)
    perm: np.ndarray = field(repr=False, compare=False)
    warning: str | None = field(default=None, compare=False)


def to_rank(scores: CentralityScores) -> Rank:
    """Order nodes by score descending, ties broken by label ascending.

    ``nodes`` is sorted, so a stable sort keeps tied nodes in label order.
    """
    perm = np.argsort(-scores.values, kind="stable")
    perm.flags.writeable = False
    order = tuple(map(scores.nodes.__getitem__, perm.tolist()))
    return Rank(scores.measure, order, scores.nodes, perm, scores.warning)


def degree_centrality(g: DirectedGraph) -> CentralityScores:
    """In-degree scores: how many members name each node."""
    return CentralityScores("in_degree", g.nodes, np.diff(g.in_csr[0]).astype(float))


#: A chunk, the unit of work one process sweeps and hands over, holds
#: budget // n sources, so its dependency rows are at most this many floats.
#: A block never crosses a chunk, so it holds at most this many (source, node)
#: keys, and its busiest BFS level expands about this many edges.  The first
#: block assumes one level may hold every edge (budget // max(m, n) sources);
#: each later block scales by the busiest level of the block before, so graphs
#: whose BFS trees stay small batch many more sources.
_BLOCK_BUDGET = 2**16

#: The sweep forks worker processes only when its first chunk, projected to
#: all n sources, expands at least this many edges: below it the fork and the
#: pipe cost more than the second CPU saves.
_FORK_MIN_VISITS = 2**22

#: A BFS level runs bottom-up when this many times the in-edges of the
#: unvisited keys are fewer than the out-edges of its frontier.
_PULL = 4

# Python 3.12+ warns on fork while numpy's BLAS pool thread runs; the workers
# call no BLAS, and OpenBLAS registers its own atfork handlers.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    keys: np.ndarray,
    v: np.ndarray,
    deg: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """CSR row ``v[i]`` of each key, concatenated in key order.

    ``v`` is ``keys % n``, ``deg`` the rows' lengths and ``ends`` their
    running sum.  Each entry comes back keyed in its key's block row, so
    ``w`` in the row of key ``b * n + v`` becomes ``b * n + w``.
    """
    pos = np.repeat(indptr[v] - ends + deg, deg)
    pos += np.arange(pos.size)
    nbr = indices[pos]
    nbr += np.repeat(keys - v, deg)
    return nbr


def _blocks(g: DirectedGraph, lo: int, hi: int, block: int):
    """Sweep sources ``lo..hi-1`` a block at a time, in ascending order.

    Runs Brandes' algorithm over ``g.csr`` for a block of B sources at once,
    node v of source b keyed ``b * n + v``.  The forward BFS is
    level-synchronous and keeps each source's FIFO discovery order; it
    records the shortest-path DAG edges of each level, and ``first[key]``
    holds the key's rank within its level from the moment the level is
    found.  The backward pass feeds each node's dependency contributions to
    ``np.bincount`` in the reversed discovery order of its children.  Path
    counts sigma are float64, exact below 2**53.

    Each level runs top-down or bottom-up (Beamer et al., SC 2012), by the
    rule in the module docstring.  Bottom-up expands the unvisited keys'
    in-edges, head ascending, and sorts those from the frontier stably by
    their tail's rank alone into top-down order (frontier order, then head
    ascending), so both give the same DAG edges and the same bits.

    Yields ``(sources, reached, closeness, rows, visits, block)`` per block:
    the closeness of the ``reached`` sources (those reaching any node), the
    block's B x n dependency rows, the out-edges of every frontier (what a
    top-down BFS expands, whichever direction ran), and the size of the
    next block.
    """
    n = g.n
    indptr, indices = g.csr
    in_indptr, in_indices = g.in_csr
    out_degree = np.diff(indptr)
    in_degree = np.diff(in_indptr)
    while lo < hi:
        sources = np.arange(lo, min(lo + block, hi))
        lo += sources.size
        peak = 1  # out-edges of the busiest level's frontier
        visits = 0
        size = sources.size * n
        frontier = np.arange(sources.size) * n + sources
        v = sources
        # in-edges of the unvisited keys: when none is left, nothing can be found
        unseen = sources.size * g.m - int(in_degree[sources].sum())
        dist = np.full(size, -1, dtype=np.intp)
        dist[frontier] = 0
        first = np.empty(size, dtype=np.intp)  # first edge while found, then rank
        first[frontier] = np.arange(sources.size)
        sigma = np.zeros(size)
        sigma[frontier] = 1.0
        levels = [frontier]
        dag = [None]  # per level: (parent key, child's discovery rank) of each DAG edge
        reached = np.zeros(sources.size, dtype=np.int64)
        total = np.zeros(sources.size, dtype=np.int64)
        while True:
            deg = out_degree[v]
            ends = np.cumsum(deg)
            out = int(ends[-1])
            peak = max(peak, out)
            visits += out
            depth = len(levels)
            if _PULL * unseen < out:
                if not unseen:
                    break
                # In-edges of every unvisited key; keep those from the frontier.
                keys = np.flatnonzero(dist < 0)
                u = keys % n
                in_deg = in_degree[u]
                tail = _gather(in_indptr, in_indices, keys, u, in_deg, np.cumsum(in_deg))
                kept = np.flatnonzero(dist[tail] == depth - 1)
                if not kept.size:
                    break
                tail = tail[kept]
                head = np.repeat(keys, in_deg)[kept]
                # Top-down order: frontier order, then head ascending.
                order = np.argsort(first[tail], kind="stable")
                tail, head = tail[order], head[order]
            else:
                # Every out-edge of the frontier, frontier order, neighbors ascending.
                head = _gather(indptr, indices, frontier, v, deg, ends)
                # flatnonzero + take: much faster than a boolean mask index here.
                fresh = np.flatnonzero(dist[head] < 0)
                if not fresh.size:
                    break
                head = head[fresh]
                tail = np.repeat(frontier, deg)[fresh]
            # FIFO order: a node joins the next level at the first edge that
            # reaches it, and edges come out in frontier order.
            at = np.arange(head.size)
            first[head] = head.size
            np.minimum.at(first, head, at)
            nxt = head[np.flatnonzero(first[head] == at)]
            dist[nxt] = depth
            row, v = np.divmod(nxt, n)
            found = np.bincount(row, minlength=sources.size)
            reached += found
            total += depth * found
            first[nxt] = np.arange(nxt.size)
            rank = first[head]
            sigma[nxt] = np.bincount(rank, weights=sigma[tail], minlength=nxt.size)
            dag.append((tail, rank))
            levels.append(nxt)
            frontier = nxt
            unseen -= int(in_degree[v].sum())

        block = max(1, _BLOCK_BUDGET * sources.size // peak)
        some = np.flatnonzero(reached)
        r = reached[some]
        closeness = (r / (n - 1)) * (r / total[some])
        delta = np.zeros(size)
        for depth in range(len(levels) - 1, 0, -1):
            children = levels[depth]
            coeff = (1.0 + delta[children]) / sigma[children]
            tail, rank = dag[depth]
            parents = levels[depth - 1]
            parent = first[tail]
            # Each parent's children in reversed discovery order.  The edges
            # come grouped by parent, in frontier order, so the stable sort
            # (timsort) mostly merges runs; it beats sorting by rank alone.
            order = np.argsort(parent * children.size - rank, kind="stable")
            weights = sigma[tail] * coeff[rank]
            delta[parents] = np.bincount(
                parent[order], weights=weights[order], minlength=parents.size
            )
        delta[levels[0]] = 0.0
        rows = delta.reshape(sources.size, n)
        yield sources, sources[some], closeness, rows, visits, block


def _path_sweep(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Betweenness and closeness by node index.

    Sources fall into chunks of ``chunk``, swept by :func:`_blocks` in
    ascending order, and each source's dependency row is added to the totals
    one by one, so every floating-point sum runs in the order of the
    one-source-at-a-time loop.  After chunk 0, :func:`_workers` picks W by
    the rule in the module docstring.  Chunk i >= 1 goes to worker
    ``(i - 1) % W``: worker 0 is this process, the others are forked
    children that send each chunk back over a pipe as its closeness values
    followed by its dependency rows.  W = 1 is the serial sweep.  Whether the
    sweep ends or raises, every pipe is closed and every child still running
    is killed and reaped.
    """
    n = g.n
    betweenness = np.zeros(n)
    closeness = np.zeros(n)
    chunk = max(1, _BLOCK_BUDGET // n)
    block = max(1, _BLOCK_BUDGET // max(g.m, n))
    chunks = [range(start, min(start + chunk, n)) for start in range(0, n, chunk)]
    workers = 1
    visits = 0
    children = []  # (pid, file reading its pipe) of workers 1..W-1
    try:
        for i, sources in enumerate(chunks):
            start, stop = sources.start, sources.stop
            if i == 1:
                workers = _workers(visits * n / start, len(chunks) - 1)
                if workers > 1:
                    _fork(g, chunks[1:], block, workers, children)
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
            pid, pipe = children[k - 1]
            size = stop - start
            got = buf[: size * (n + 1)]
            if pipe.readinto(got) < got.nbytes:
                raise RuntimeError(
                    f"path sweep worker {pid} ended before sending sources "
                    f"{start}..{stop - 1}"
                )
            closeness[start:stop] = got[:size]
            for dependency in got[size:].reshape(size, n):
                betweenness += dependency
    finally:
        for pid, pipe in children:
            pipe.close()
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
    chunks: list[range],
    block: int,
    workers: int,
    children: list[tuple[int, BinaryIO]],
) -> None:
    """Fork workers 1..W-1; worker k sweeps the chunks ``chunks[k::workers]``.

    Each child joins ``children`` as ``(pid, file reading its pipe)`` once it
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
                readers = [r] + [pipe.fileno() for _, pipe in children]
                _worker(g, chunks[k::workers], block, w, readers)
            os.close(w)
            children.append((pid, open(r, "rb")))


def _worker(
    g: DirectedGraph, chunks: list[range], block: int, w: int, readers: list[int]
) -> NoReturn:
    """Forked child: sweep the source ranges ``chunks``, write each to ``w``.

    It first closes the pipe ends it inherited for reading, so that a write
    fails instead of blocking once the parent is gone.  A chunk is written
    whole, after all of it is swept: rows written block by block fill the
    64 KiB pipe, and the parent then waits on this worker's sweep (a
    benchmark pass on ER n=1500 p=0.0067, 2 CPUs: 2.04-2.84 s became 3.24-3.77 s).
    """
    code = 1
    try:
        for fd in readers:
            os.close(fd)
        with open(w, "wb") as pipe:
            for chunk in chunks:
                start, size = chunk.start, len(chunk)
                out = np.zeros(size * (g.n + 1))
                dependencies = out[size:].reshape(-1, g.n)
                for sources, reached, values, rows, _, block in _blocks(
                    g, start, chunk.stop, block
                ):
                    out[reached - start] = values
                    dependencies[sources[0] - start : sources[-1] + 1 - start] = rows
                pipe.write(out)
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
    if "path_sweep" not in g.memo:
        g.memo["path_sweep"] = _path_sweep(g)
    betweenness, closeness = g.memo["path_sweep"]
    return (
        CentralityScores("betweenness", g.nodes, betweenness),
        CentralityScores("closeness", g.nodes, closeness),
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
    result is bit-for-bit that of the one-source-at-a-time loop, whichever
    direction each BFS level runs and however many CPUs share the sweep
    (the module docstring has the rules).  Path counts sigma are float64,
    exact below 2**53, as in networkx.

    A large sweep runs on forked children, none outliving the call; a
    worker that dies raises ``RuntimeError``.
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


#: Power iteration stops once successive normalized iterates differ by at
#: most this much (L2), or after this many steps.
_TOL = 1e-10
_MAX_ITER = 1000


def eigenvector_centrality(g: DirectedGraph) -> CentralityScores:
    """Dominant left eigenvector of the adjacency matrix, L2-normalized.

    Scores flow along incoming edges: a node is central when its
    in-neighbors are central.  Power iteration starts uniform and runs on
    the shifted operator A^T + I, which leaves the eigenvector unchanged but
    converges even on periodic structures (a plain iteration oscillates
    forever on, e.g., a bidirectional path).  Convergence is ``_TOL``
    (1e-10) on the L2 difference of successive normalized iterates, capped
    at ``_MAX_ITER`` (1000) steps; when the cap is hit the last iterate is
    returned with ``warning`` naming the iteration count and the residual.

    On acyclic graphs the true iteration collapses to the zero vector (the
    adjacency matrix is nilpotent), so the result falls back to
    :func:`degree_centrality`'s scores, L2-normalized, with ``warning`` set.
    Scaling by a positive norm keeps every rank and every tie, so the
    fallback's tie-averaged Spearman against any order is identical to
    in-degree's: on preferential-attachment graphs, which are acyclic, the
    eigenvector baseline coincides with in_degree.  An edgeless graph is the
    zero case of that fallback: every in-degree is 0, so every score is 0.0
    (rank falls back to label order) and ``warning`` says the eigenvector is
    undefined.  Nothing is raised.
    """
    n = g.n

    if _is_acyclic(g):
        vec = degree_centrality(g).values
        if g.m == 0:
            warning = "edgeless graph: eigenvector undefined, scores zeroed"
        else:
            vec = vec / np.linalg.norm(vec)
            warning = (
                "acyclic graph: power iteration collapses to zero; "
                "scores proportional to in-degree"
            )
        return CentralityScores("eigenvector", g.nodes, vec, warning)

    # Edge index arrays: (A^T x)[t] sums x[s] over the edges s -> t.
    src, dst = _edge_positions(g.csr)

    x = np.full(n, 1.0 / np.sqrt(n))
    warning = None
    for _ in range(_MAX_ITER):
        y = np.bincount(dst, weights=x[src], minlength=n) + x
        y /= np.linalg.norm(y)
        residual = float(np.linalg.norm(y - x))
        x = y
        if residual <= _TOL:
            break
    else:
        warning = (
            f"power iteration stopped at max_iter={_MAX_ITER} without converging "
            f"(residual {residual:.3g} > tol {_TOL:.3g})"
        )

    return CentralityScores("eigenvector", g.nodes, x, warning)
