"""Correctness gate for the CLI outputs, run outside the timed region.

Each check takes the op's argv and the stdout of its first call and returns
an error message, or ``None`` when the output is right.  References come from
outside the program under test wherever one exists:

* greedy picks must equal :func:`netcover.oracles.naive_greedy`;
* betweenness and closeness (on the reversed graph) come from networkx, and
  eigenvector from networkx too unless the graph is acyclic, where netcover
  documents an in-degree fallback;
* Spearman values come from scipy;
* coverage is recomputed from networkx predecessor sets.

Floating-point scores from two implementations can order near-equal nodes
differently, so a coverage cell or a pick whose position depends on such a
near-tie is not compared; everywhere else the comparison is exact.
"""

from __future__ import annotations

import csv
import io
import json
import math

import networkx as nx
import scipy.stats

#: evaluate's columns, in output order.
METHODS = ("in_degree", "betweenness", "closeness", "eigenvector", "greedy")
_DEFAULT_KS = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)
#: Relative gap below which two reference scores count as a near-tie.
_TIE_TOL = {"in_degree": 0.0, "betweenness": 1e-9, "closeness": 1e-9, "eigenvector": 1e-8}


def pct_whole(x: float) -> str:
    return f"{x * 100:.0f}%"


class Reference:
    """Lazily computed reference results for one input graph."""

    def __init__(self, g):
        self.g = g
        self.G = nx.DiGraph()
        self.G.add_nodes_from(g.nodes)
        self.G.add_edges_from(g.edges)
        self.n = g.n
        self._scores: dict[str, tuple[dict[str, float], float]] = {}
        self._greedy: dict[float, object] = {}

    def scores(self, method: str) -> tuple[dict[str, float], float]:
        """Reference scores and their near-tie tolerance."""
        if method not in self._scores:
            G, tol = self.G, _TIE_TOL[method]
            if method == "in_degree":
                s = {v: float(d) for v, d in G.in_degree()}
            elif method == "betweenness":
                s = nx.betweenness_centrality(G, normalized=False)
            elif method == "closeness":
                s = nx.closeness_centrality(G.reverse(copy=False))
            elif nx.is_directed_acyclic_graph(G):
                s, tol = {v: float(d) for v, d in G.in_degree()}, 0.0
            else:
                s = nx.eigenvector_centrality(G, max_iter=1000, tol=1e-12)
            self._scores[method] = (s, tol)
        return self._scores[method]

    def order(self, method: str) -> list[str]:
        s, _ = self.scores(method)
        return sorted(s, key=lambda v: (-s[v], v))

    def greedy(self, target: float):
        from netcover.oracles import naive_greedy

        if target not in self._greedy:
            self._greedy[target] = naive_greedy(self.g, target)
        return self._greedy[target]

    def coverage_curve(self, picks) -> list[float]:
        covered: set[str] = set()
        out = []
        for v in picks:
            covered.add(v)
            covered.update(self.G.predecessors(v))
            out.append(len(covered) / self.n)
        return out


def _near(a: float, b: float, tol: float) -> bool:
    """True when a and b may be ordered differently by another implementation."""
    if tol == 0.0 or a == b == 0.0:  # exact in both: the label tie-break decides
        return False
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def _tie_groups(values: list[float], tol: float) -> list[int]:
    """Sizes of runs of near-tied values (sizes >= 2 only)."""
    ordered = sorted(values)
    groups, size = [], 1
    for a, b in zip(ordered, ordered[1:]):
        if _near(a, b, tol):
            size += 1
        else:
            if size > 1:
                groups.append(size)
            size = 1
    if size > 1:
        groups.append(size)
    return groups


def _md_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[::2], argv[1::2]))


def check_evaluate(ref: Reference, argv: list[str], out: str) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["k", *METHODS]:
        return f"evaluate header {rows[:1]}"
    ks = [int(r[0]) for r in rows[1:]]
    if ks != sorted({min(k, ref.n) for k in _DEFAULT_KS}):
        return f"evaluate ks {ks}"
    greedy = ref.greedy(1.0).cumulative
    for j, method in enumerate(METHODS, start=1):
        if method == "greedy":
            expected = [greedy[min(k - 1, len(greedy) - 1)] for k in ks]
        else:
            s, tol = ref.scores(method)
            order = ref.order(method)
            curve = ref.coverage_curve(order[: ks[-1]])
            expected = [
                None if k < ref.n and _near(s[order[k - 1]], s[order[k]], tol) else curve[k - 1]
                for k in ks
            ]
        for k, row, want in zip(ks, rows[1:], expected):
            if want is not None and float(row[j]) != want:
                return f"evaluate {method} k={k}: {row[j]} != {want!r}"
    return None


def check_correlate(ref: Reference, argv: list[str], out: str) -> str | None:
    doc = json.loads(out)
    if doc.get("reference") != "greedy" or set(doc.get("entries", {})) != set(METHODS[:-1]):
        return f"correlate schema {sorted(doc)}"
    labels = sorted(ref.G.nodes)
    picks = ref.greedy(1.0).picks
    tail = (len(picks) + 1 + ref.n) / 2.0
    pos = {v: float(i + 1) for i, v in enumerate(picks)}
    xs = [pos.get(v, tail) for v in labels]
    for method in METHODS[:-1]:
        s, tol = ref.scores(method)
        ys = [-s[v] for v in labels]
        want = scipy.stats.spearmanr(xs, ys).statistic
        got = doc["entries"][method]
        if got is None or math.isnan(want):
            if not (got is None and math.isnan(want)):
                return f"correlate {method}: {got} != {want}"
            continue
        # Reordering a near-tied pair moves rho by at most 12/n^2.
        allowance = 1e-9 + 12 * sum(size * size for size in _tie_groups(ys, tol)) / ref.n**2
        if abs(got - want) > allowance:
            return f"correlate {method}: {got!r} vs scipy {want!r} (allowance {allowance:.1e})"
    return None


def check_select(ref: Reference, argv: list[str], out: str) -> str | None:
    opts = _flags(argv[2:])
    rows = _md_rows(out)
    picks = [r[1] for r in rows]
    shown = [r[2] for r in rows]
    if [r[0] for r in rows] != [str(i + 1) for i in range(len(rows))]:
        return "select rank column"
    method = opts["--method"]
    if method == "greedy":
        want = ref.greedy(float(opts["--target"]))
        if tuple(picks) != want.picks:
            return f"greedy picks differ from naive_greedy at {_first_diff(picks, want.picks)}"
        if shown != [pct_whole(c) for c in want.cumulative]:
            return "greedy coverage column"
        return None
    s, tol = ref.scores(method)
    order = ref.order(method)
    if len(set(picks)) != len(picks) or not set(picks) <= set(order):
        return f"{method} picks are not distinct nodes"
    for i, v in enumerate(picks):
        if v != order[i] and not _near(s[v], s[order[i]], tol):
            return f"{method} pick {i + 1} is {v}, reference {order[i]}"
    curve = ref.coverage_curve(picks)
    if shown != [pct_whole(c) for c in curve]:
        return f"{method} coverage column"
    if "--k" in opts:
        if len(picks) != int(opts["--k"]):
            return f"{method} made {len(picks)} picks, asked for {opts['--k']}"
    else:
        target = float(opts["--target"])
        if curve[-1] < target or (len(curve) > 1 and curve[-2] >= target):
            return f"{method} does not stop at the first pick reaching {target}"
    return None


def check_stats(ref: Reference, argv: list[str], out: str) -> str | None:
    n, m = ref.G.number_of_nodes(), ref.G.number_of_edges()
    want = (
        f"n={n} m={m} density={m / (n * (n - 1)) * 100:.1f}% avg_degree={2 * m / n:.2f}\n"
    )
    return None if out == want else f"stats {out!r} != {want!r}"


def check_gen(ref: Reference | None, argv: list[str], out: str) -> str | None:
    from netcover.graph import parse_edge_list

    opts = _flags(argv[1:])
    n = int(opts["--n"])
    g = parse_edge_list(out, opts.get("--format", "json"))
    if g.n != n:
        return f"gen re-parses with n={g.n}, asked for {n}"
    if g.ingest.self_loops or g.ingest.duplicates:
        return f"gen wrote {g.ingest.self_loops} self-loops, {g.ingest.duplicates} duplicates"
    if opts["--model"] == "pa":
        epn = int(opts["--epn"])
        if g.m != sum(min(epn, i) for i in range(n)):
            return f"gen pa has m={g.m}"
    return None


def _first_diff(a, b) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


_CHECKS = {
    "evaluate": check_evaluate,
    "correlate": check_correlate,
    "select": check_select,
    "stats": check_stats,
    "gen": check_gen,
}


def check(ref: Reference | None, argv: list[str], out: str) -> str | None:
    """Validate one op's stdout; any exception is reported as a failure."""
    try:
        return _CHECKS[argv[0]](ref, argv, out)
    except Exception as e:  # noqa: BLE001 - a malformed output is a failed check
        return f"{argv[0]}: unreadable output ({type(e).__name__}: {e})"
