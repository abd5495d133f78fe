"""Outside-in span recorder for the netcover package.

Spans are recorded by wrapping the public functions of each netcover module at
the place where the caller looks them up (a module global such as
``netcover.cli.coverage_table``, or a module attribute such as
``netcover.centrality.betweenness_centrality`` reached through
``_centrality.betweenness_centrality``).  Nothing under ``src/`` changes; the
wrappers are installed for the duration of a ``with instrument(recorder):``
block and removed afterwards.

Spans are kept in memory as (name, start, end, parent) and written out by the
caller when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span tree plus named counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def descendants(self, root: int) -> list[int]:
        """Indices of every span nested (at any depth) under ``root``."""
        inside = {root}
        found = []
        for i in range(root + 1, len(self.spans)):  # children always follow parents
            if self.spans[i].parent in inside:
                inside.add(i)
                found.append(i)
        return found

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }


def _spanned(
    rec: Recorder, name: str, fn: Callable, on_result: Callable | None = None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        rec.counters[name + ".calls"] += 1
        if on_result is not None:
            on_result(rec, result)
        return result

    return wrapper


def _count_greedy_rounds(rec: Recorder, sel) -> None:
    rec.counters["coverage.greedy_rounds"] += len(sel.picks)


def _count_edges(rec: Recorder, g) -> None:
    rec.counters["graph.m"] += g.m


# (module, attribute the caller looks up, span name).  Grouped by the layer
# boundary the lookup crosses.
_BOUNDARIES = (
    # cli -> graph / generators / coverage / evaluation
    ("netcover.cli", "parse_edge_list", "graph.parse_edge_list"),
    ("netcover.cli", "graph_stats", "graph.graph_stats"),
    ("netcover.cli", "to_json", "graph.to_json"),
    ("netcover.cli", "to_csv", "graph.to_csv"),
    ("netcover.cli", "gen_preferential", "generators.gen_preferential"),
    ("netcover.cli", "gen_erdos_renyi", "generators.gen_erdos_renyi"),
    ("netcover.cli", "greedy_select", "coverage.greedy_select"),
    ("netcover.cli", "centrality_rank_select", "coverage.centrality_rank_select"),
    ("netcover.cli", "centrality_rank", "evaluation.centrality_rank"),
    ("netcover.cli", "coverage_table", "evaluation.coverage_table"),
    ("netcover.cli", "rank_correlation_report", "evaluation.rank_correlation_report"),
    # cli -> render (looked up as render.<fn>)
    ("netcover.render", "render_stats", "render.render_stats"),
    ("netcover.render", "render_selection", "render.render_selection"),
    ("netcover.render", "render_table", "render.render_table"),
    ("netcover.render", "render_matrix", "render.render_matrix"),
    # evaluation -> coverage / centrality (the latter as _centrality.<fn>)
    ("netcover.evaluation", "greedy_select", "coverage.greedy_select"),
    ("netcover.evaluation", "to_rank", "centrality.to_rank"),
    ("netcover.centrality", "degree_centrality", "centrality.degree_centrality"),
    ("netcover.centrality", "betweenness_centrality", "centrality.betweenness_centrality"),
    ("netcover.centrality", "closeness_centrality", "centrality.closeness_centrality"),
    ("netcover.centrality", "eigenvector_centrality", "centrality.eigenvector_centrality"),
)

_ON_RESULT = {"coverage.greedy_select": _count_greedy_rounds}


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Install span wrappers on the netcover package; restore on exit."""
    import importlib

    from netcover.graph import DirectedGraph

    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, value: object) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module_name, attr, name in _BOUNDARIES:
            module = importlib.import_module(module_name)
            patch(module, attr, _spanned(rec, name, getattr(module, attr), _ON_RESULT.get(name)))

        # generators -> graph and graph.parse -> graph.construct both reach the
        # constructor through the class attribute.
        from_edges = DirectedGraph.__dict__["from_edges"].__func__
        patch(
            DirectedGraph,
            "from_edges",
            classmethod(_spanned(rec, "graph.from_edges", from_edges, _count_edges)),
        )

        # greedy_select looks node_coverage up in its own module; every call
        # made while a greedy span is innermost is one gain evaluation.
        coverage = importlib.import_module("netcover.coverage")
        node_coverage = coverage.node_coverage

        @functools.wraps(node_coverage)
        def counted(g, v):
            if rec.current() == "coverage.greedy_select":
                rec.counters["coverage.gain_evals"] += 1
            return node_coverage(g, v)

        patch(coverage, "node_coverage", counted)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
