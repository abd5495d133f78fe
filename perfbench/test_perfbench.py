"""Tests of the benchmark itself: span arithmetic, the gate, a tiny smoke run."""

import dataclasses
import json
import sys

import pytest

from harness import ROOT, SRC

sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from spans import Recorder, Span, instrument  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    rec = Recorder()
    rec.spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("other-root", 11.0, 12.5, -1),
    ]
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0, 1.5]
    assert rec.descendants(0) == [1, 2, 3]
    assert rec.descendants(1) == [2]


def test_nested_spans_record_parents():
    rec = Recorder()
    with rec.span("outer"):
        assert rec.current() == "outer"
        with rec.span("inner"):
            assert rec.current() == "inner"
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", -1), ("inner", 0)]
    outer, inner = rec.spans
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert rec.self_times()[0] == pytest.approx(outer.duration - inner.duration)


def _star_file(tmp_path):
    path = tmp_path / "g.csv"
    edges = [("a", "hub"), ("b", "hub"), ("c", "hub"), ("hub", "d"), ("e", "d"), ("d", "a")]
    path.write_text("".join(f"{s},{t}\n" for s, t in edges))
    return path


def _cli(argv, capsys):
    from netcover.cli import main

    assert main(argv) == 0
    return capsys.readouterr().out


def test_instrument_nests_layers_and_restores(tmp_path, capsys):
    import netcover.cli

    original = netcover.cli.coverage_table
    rec = Recorder()
    with instrument(rec):
        with rec.span("cli.main"):
            _cli(["evaluate", str(_star_file(tmp_path)), "--format", "csv"], capsys)
    assert netcover.cli.coverage_table is original

    def chain(name):
        i = next(i for i, s in enumerate(rec.spans) if s.name == name)
        names = []
        while i >= 0:
            names.append(rec.spans[i].name)
            i = rec.spans[i].parent
        return names

    assert chain("centrality.betweenness_centrality") == [
        "centrality.betweenness_centrality", "evaluation.coverage_table", "cli.main"
    ]
    assert chain("graph.from_edges") == ["graph.from_edges", "graph.parse_edge_list", "cli.main"]
    assert rec.counters["coverage.gain_evals"] > rec.counters["coverage.greedy_rounds"] > 0


def _graph_and_ref(tmp_path):
    from netcover.graph import parse_edge_list

    path = _star_file(tmp_path)
    return path, gate.Reference(parse_edge_list(path.read_text(), "csv"))


def test_gate_accepts_real_outputs_and_rejects_corrupted_ones(tmp_path, capsys):
    path, ref = _graph_and_ref(tmp_path)
    select = ["select", str(path), "--method", "greedy", "--target", "1.0"]
    out = _cli(select, capsys)
    assert gate.check(ref, select, out) is None
    lines = out.splitlines(keepends=True)
    assert len(lines) >= 4  # header, rule and at least two picks
    first, second = lines[2].split("|"), lines[3].split("|")
    first[2], second[2] = second[2], first[2]  # swap the first two picks
    swapped = "".join(lines[:2]) + "|".join(first) + "|".join(second) + "".join(lines[4:])
    assert "differ from naive_greedy" in gate.check(ref, select, swapped)

    evaluate = ["evaluate", str(path), "--format", "csv"]
    out = _cli(evaluate, capsys)
    assert gate.check(ref, evaluate, out) is None
    header, first_row, *rest = out.splitlines(keepends=True)
    cells = first_row.rstrip("\n").split(",")
    cells[-1] = "0.5"  # the k=1 greedy cell, which is always compared exactly
    assert "greedy k=1" in gate.check(ref, evaluate, header + ",".join(cells) + "\n" + "".join(rest))

    correlate = ["correlate", str(path), "--format", "json"]
    out = _cli(correlate, capsys)
    assert gate.check(ref, correlate, out) is None
    doc = json.loads(out)
    doc["entries"]["in_degree"] += 1e-6  # integer scores: no near-tie allowance
    assert gate.check(ref, correlate, json.dumps(doc)) is not None
    assert gate.check(ref, correlate, "not json") is not None


def test_gate_counts_exit_codes_and_unstable_outputs(tmp_path, capsys):
    path, ref = _graph_and_ref(tmp_path)
    stats = ["stats", str(path)]
    good = _cli(stats, capsys)
    workload = Workload("tiny", "test", (Op("stats", ("stats", "{input}")),), model="pa")
    assert run._gate(workload, ref.g, [stats], [[(0, good), (0, good)]])[:2] == (2, 0)
    attempted, failed, errors = run._gate(workload, ref.g, [stats], [[(0, good), (0, good + " ")]])
    assert (attempted, failed) == (2, 1) and "differ" in errors[0]
    attempted, failed, _ = run._gate(workload, ref.g, [stats], [[(2, ""), (0, good)]])
    assert (attempted, failed) == (2, 2)


def _tiny(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


TINY = [
    _tiny("survey-pa", n=80),
    _tiny("flat-er", n=60, p=0.08),
    _tiny("bulk-ingest", n=300),
    _tiny(
        "synth",
        ops=(
            Op("gen_pa", ("gen", "--model", "pa", "--n", "50", "--epn", "3", "--seed", "{seed}")),
            Op("gen_er", ("gen", "--model", "er", "--n", "40", "--p", "0.2",
                          "--seed", "{seed}", "--format", "csv")),
        ),
    ),
]


@pytest.mark.parametrize("workload", TINY, ids=[w.name for w in TINY])
def test_tiny_timed_run_has_no_failures(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False)
    assert result.errors == [] and result.failed == 0
    assert result.attempted == len(workload.ops) + run.SETUP_REPEATS
    assert [k for k in result.metrics] == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in result.metrics.values())
    assert json.loads(result.line())["correct"] is True


@pytest.mark.parametrize("workload", [TINY[0], TINY[3]], ids=["survey-pa", "synth"])
def test_tiny_traced_run_has_no_failures(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True)
    assert result.errors == [] and result.failed == 0
    everywhere = [m.name for m in traced.LAYER_METRICS if m.everywhere]
    assert list(result.metrics) == everywhere
    assert all(isinstance(v, (int, float)) for v, _ in result.metrics.values())
    assert all(isinstance(v, int) for v, unit in result.metrics.values() if unit == "count")


def test_bfs_visits_counts_reached_out_degrees():
    from netcover.graph import DirectedGraph

    # a -> b -> c, c -> b: a reaches {a, b, c}, b and c reach {b, c}.
    g = DirectedGraph.from_edges([("a", "b"), ("b", "c"), ("c", "b")])
    assert traced.bfs_visits_per_sweep(g) == 3 + 2 + 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in traced.LAYER_METRICS if m.everywhere
    ]
