"""The traced run: the workload's CLI calls replayed in-process with spans.

Per-layer numbers come from here and never from the timed run.  Each traced
pass is paired with an untraced in-process pass of the same calls, so the
tracing overhead is measured rather than assumed.  Memory is taken in its own
tracemalloc pass, because tracemalloc slows Python code.
"""

from __future__ import annotations

import contextlib
import gc
import io
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from harness import call_cli, peak_mib
from spans import Recorder, instrument


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Which end-to-end metric it should move, on which workload.
    moves: str
    #: Measured on every workload, so it can sit in the result line; the others
    #: exist only where their layer runs and are printed in the report.
    everywhere: bool = False


LAYER_METRICS = (
    LayerMetric("cli.startup_s", "s", "lower",
                "every op; most of select_* on survey-pa, negligible in evaluate_s on flat-er", True),
    LayerMetric("cli.self_s", "s", "lower", "every op, as cli.startup_s", True),
    LayerMetric("graph.parse_s", "s", "lower",
                "stats_s and select_* on bulk-ingest; under 5% elsewhere"),
    LayerMetric("graph.construct_s", "s", "lower",
                "stats_s and select_* on bulk-ingest, gen_* on synth", True),
    LayerMetric("graph.serialize_s", "s", "lower", "gen_* on synth"),
    LayerMetric("graph.edges_per_s", "1/s", "higher",
                "stats_s and select_* on bulk-ingest, gen_* on synth (base: graph.m)", True),
    LayerMetric("graph.m", "count", "higher", "base of graph.edges_per_s"),
    LayerMetric("generators.pa_s", "s", "lower", "gen_pa_s on synth; setup_s on survey-pa, bulk-ingest"),
    LayerMetric("generators.er_s", "s", "lower", "gen_er_s on synth; setup_s on flat-er"),
    LayerMetric("generators.peak_mb", "MiB", "lower",
                "gen_* and peak_rss_mb on synth; setup_s elsewhere", True),
    LayerMetric("centrality.betweenness_s", "s", "lower",
                "evaluate_s, correlate_s, select_rank_s on flat-er (most) and survey-pa"),
    LayerMetric("centrality.closeness_s", "s", "lower", "evaluate_s, correlate_s on flat-er and survey-pa"),
    LayerMetric("centrality.eigenvector_s", "s", "lower", "evaluate_s, correlate_s on flat-er only"),
    LayerMetric("centrality.to_rank_s", "s", "lower", "evaluate_s, select_rank_s on flat-er and survey-pa"),
    LayerMetric("centrality.betweenness.calls", "count", "lower",
                "evaluate_s, correlate_s, select_rank_s on flat-er and survey-pa", True),
    LayerMetric("centrality.bfs_edge_visits", "count", "lower",
                "evaluate_s, correlate_s, select_rank_s on flat-er and survey-pa", True),
    LayerMetric("centrality.ns_per_edge_visit", "ns", "lower",
                "evaluate_s, correlate_s, select_rank_s on flat-er (most) and survey-pa"),
    LayerMetric("centrality.eigenvector_peak_mb", "MiB", "lower",
                "peak_rss_mb on flat-er only", True),
    LayerMetric("coverage.greedy_s", "s", "lower",
                "select_greedy_s on flat-er; little on survey-pa and bulk-ingest"),
    LayerMetric("coverage.greedy_rounds", "count", "lower", "select_greedy_s on flat-er", True),
    LayerMetric("coverage.gain_evals", "count", "lower", "select_greedy_s on flat-er", True),
    LayerMetric("coverage.pick_yield", "frac", "higher", "select_greedy_s on flat-er (rounds/gain_evals)"),
    LayerMetric("coverage.rank_select_s", "s", "lower", "select_rank_s on every graph workload"),
    LayerMetric("evaluation.coverage_table_self_s", "s", "lower", "evaluate_s on survey-pa and flat-er"),
    LayerMetric("evaluation.correlation_self_s", "s", "lower", "correlate_s on survey-pa and flat-er"),
    LayerMetric("render.s", "s", "lower", "guard: should stay near zero everywhere"),
    LayerMetric("trace.overhead_frac", "frac", "lower",
                "none: traced in-process pass against the same pass untraced", True),
)

STARTUP_PROBES = 5


def bfs_visits_per_sweep(g) -> int:
    """Sum over sources of the out-degrees of every node the source reaches."""
    index = {v: i for i, v in enumerate(g.nodes)}
    rows = [index[s] for s, _ in g.edges]
    cols = [index[t] for _, t in g.edges]
    adj = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    outdeg = np.diff(adj.indptr)
    return int(
        sum(
            outdeg[scipy.sparse.csgraph.breadth_first_order(adj, s, return_predecessors=False)].sum()
            for s in range(g.n)
        )
    )


def _replay(argvs: list[list[str]], rec: Recorder | None):
    """Call ``netcover.cli.main`` for each argv; return (wall, [(rc, stdout)])."""
    from netcover import cli

    def call(argv):
        try:
            return cli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            return e.code

    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if rec is None:
                rc = call(argv)
            else:
                with rec.span("cli.main"):
                    rc = call(argv)
        outputs.append((rc, buf.getvalue()))
    return time.perf_counter() - start, outputs


def layer_metrics(rec: Recorder, visits_per_sweep: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times inclusive unless ``self``)."""
    dur: Counter[str] = Counter()
    own: Counter[str] = Counter()
    for span, self_s in zip(rec.spans, rec.self_times()):
        dur[span.name] += span.duration
        own[span.name] += self_s
    c = rec.counters
    betw = dur["centrality.betweenness_centrality"]
    close = dur["centrality.closeness_centrality"]
    sweeps = c["centrality.betweenness_centrality.calls"] + c["centrality.closeness_centrality.calls"]
    visits = sweeps * visits_per_sweep
    rounds, evals = c["coverage.greedy_rounds"], c["coverage.gain_evals"]
    construct = dur["graph.from_edges"]
    return {
        "cli.self_s": own["cli.main"],
        "graph.parse_s": dur["graph.parse_edge_list"],
        "graph.construct_s": construct,
        "graph.serialize_s": dur["graph.to_json"] + dur["graph.to_csv"],
        "graph.edges_per_s": c["graph.m"] / construct if construct else None,
        "graph.m": c["graph.m"],
        "generators.pa_s": dur["generators.gen_preferential"],
        "generators.er_s": dur["generators.gen_erdos_renyi"],
        "centrality.betweenness_s": betw,
        "centrality.closeness_s": close,
        "centrality.eigenvector_s": dur["centrality.eigenvector_centrality"],
        "centrality.to_rank_s": dur["centrality.to_rank"],
        "centrality.betweenness.calls": c["centrality.betweenness_centrality.calls"],
        "centrality.bfs_edge_visits": visits,
        "centrality.ns_per_edge_visit": (betw + close) / visits * 1e9 if visits else None,
        "coverage.greedy_s": dur["coverage.greedy_select"],
        "coverage.greedy_rounds": rounds,
        "coverage.gain_evals": evals,
        "coverage.pick_yield": rounds / evals if evals else None,
        "coverage.rank_select_s": dur["coverage.centrality_rank_select"],
        "evaluation.coverage_table_self_s": own["evaluation.coverage_table"],
        "evaluation.correlation_self_s": own["evaluation.rank_correlation_report"],
        "render.s": sum(d for name, d in dur.items() if name.startswith("render.")),
    }


def op_breakdown(rec: Recorder, op_names: list[str], top: int = 4) -> list[str]:
    """Where each op's traced time went: the largest nested spans by name."""
    roots = [i for i, s in enumerate(rec.spans) if s.name == "cli.main"]
    lines = []
    for name, root in zip(op_names, roots):
        total = rec.spans[root].duration
        inner: Counter[str] = Counter()
        for i in rec.descendants(root):
            inner[rec.spans[i].name] += rec.spans[i].duration
        parts = ", ".join(
            f"{span} {d:.3f} s ({d / total:.0%})" for span, d in inner.most_common(top)
        )
        lines.append(f"  {name}: {total:.3f} s traced; {parts}")
    return lines


@dataclass
class TracedResult:
    metrics: dict[str, float | None]
    outputs: list[list[tuple[int, str]]]  # per pass, per op: (exit code, stdout)
    startup_failures: int
    report: list[str]
    recorders: list[Recorder]


def traced_run(
    argvs: list[list[str]],
    op_names: list[str],
    seconds: float,
    workdir,
    graph,
    generator_peak_mib: float,
) -> TracedResult:
    """Startup probes, then (untraced, traced) in-process pass pairs until
    ``seconds`` have passed (at least one pair), then the eigenvector
    tracemalloc pass on ``graph``."""
    startup = [call_cli(["--help"], workdir) for _ in range(STARTUP_PROBES)]

    plain_walls, traced_walls, outputs, recorders = [], [], [], []
    # Freeze the benchmark's own heap (numpy, scipy, networkx), so that a full
    # collection during the replay scans about what it would in a CLI process.
    gc.collect()
    gc.freeze()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            wall, out = _replay(argvs, None)
            plain_walls.append(wall)
            outputs.append(out)
            rec = Recorder()
            with instrument(rec):
                wall, out = _replay(argvs, rec)
            traced_walls.append(wall)
            outputs.append(out)
            recorders.append(rec)
            if time.perf_counter() >= deadline:
                break
    finally:
        gc.unfreeze()

    from netcover.centrality import eigenvector_centrality

    _, eig_peak = peak_mib(eigenvector_centrality, graph)
    visits = bfs_visits_per_sweep(graph) if any(
        r.counters["centrality.betweenness_centrality.calls"]
        + r.counters["centrality.closeness_centrality.calls"]
        for r in recorders
    ) else 0

    per_pass = [layer_metrics(r, visits) for r in recorders]
    metrics: dict[str, float | None] = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass if p[key] is not None]
        if not values:
            metrics[key] = None
        elif all(isinstance(v, int) for v in values):  # counts stay whole numbers
            metrics[key] = statistics.median_low(values)
        else:
            metrics[key] = statistics.median(values)
    metrics["cli.startup_s"] = statistics.median(c.wall_s for c in startup)
    metrics["generators.peak_mb"] = generator_peak_mib
    metrics["centrality.eigenvector_peak_mb"] = eig_peak
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )

    report = [
        f"traced run: {len(recorders)} traced + {len(plain_walls)} untraced in-process passes, "
        f"{STARTUP_PROBES} startup probes; where each traced op's time went:",
        *op_breakdown(recorders[0], op_names),
    ]
    startup_failures = sum(c.returncode != 0 for c in startup)
    return TracedResult(metrics, outputs, startup_failures, report, recorders)
