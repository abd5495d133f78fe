"""netcover benchmark: CLI wall time on seeded workloads, plus a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flat-er --seed 1 --seconds 10 --trace 0

and every workload in both modes (about four minutes on two cores)::

    for w in survey-pa flat-er bulk-ingest synth; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --trace $t; done; done

``--trace 0`` runs the ``netcover`` CLI as its users do, one process at a time
(a closed loop with one client), on inputs generated from ``--seed``, and
reports the end-to-end metrics.  ``--trace 1`` replays the same calls
in-process through ``netcover.cli.main`` with span wrappers installed and
reports the per-layer metrics.  Either way every output is checked (see
``gate.py``) outside the timed region, a human-readable report is printed,
and the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is run from the checkout's ``src/``; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import ROOT, SRC, call_cli, describe, peak_mib
from workloads import WORKLOADS, Workload

#: Set-ups per timed run; setup_s is their median.
SETUP_REPEATS = 3

#: (name, unit) of the end-to-end metrics in the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MiB"),
)

WORK_DIR = ROOT / ".perfbench"


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    report: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def _write_input(workload: Workload, g, path: Path) -> None:
    path.write_text(workload.serialize(g), encoding="utf-8")


def _gate(workload: Workload, graph, argvs, outputs_per_op) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every repeat of every op.

    A call fails when it exits non-zero, when its stdout differs from the
    op's first call, or when the first call's stdout fails the check.
    """
    import gate

    ref = gate.Reference(graph) if workload.has_input else None
    attempted = failed = 0
    errors = []
    for op, argv, outs in zip(workload.ops, argvs, outputs_per_op):
        attempted += len(outs)
        first_rc, first = outs[0]
        bad = [i for i, (rc, out) in enumerate(outs) if rc != 0 or out != first]
        error = f"exit code {first_rc}" if first_rc != 0 else gate.check(ref, argv, first)
        if error is not None:
            bad = list(range(len(outs)))
            errors.append(f"{op.name}: {error}")
        elif bad:
            errors.append(f"{op.name}: {len(bad)} calls differ from the first call's stdout")
        failed += len(bad)
    return attempted, failed, errors


def timed_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    input_path = workdir / f"input.{workload.fmt}"
    warm_argv = workload.warmup().resolve(input_path, seed)
    setups, warm_failures = [], 0
    graph = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if workload.has_input:
            graph = workload.make_graph(seed)
            _write_input(workload, graph, input_path)
        warm = call_cli(warm_argv, workdir)
        setups.append(time.perf_counter() - start)
        warm_failures += warm.returncode != 0

    argvs = [op.resolve(input_path, seed) for op in workload.ops]
    calls: list[list] = [[] for _ in argvs]
    pass_rss = []
    deadline = time.perf_counter() + seconds
    while True:
        rss = 0
        for argv, bucket in zip(argvs, calls):
            c = call_cli(argv, workdir)
            bucket.append(c)
            rss = max(rss, c.rss_kib)
        pass_rss.append(rss / 1024)
        if time.perf_counter() >= deadline:
            break

    outputs = [[(c.returncode, c.stdout.decode()) for c in bucket] for bucket in calls]
    attempted, failed, errors = _gate(workload, graph, argvs, outputs)
    if warm_failures:
        errors.append(f"{warm_failures} set-up warm-up calls exited non-zero")

    op_medians = {
        op.name: statistics.median(c.wall_s for c in bucket)
        for op, bucket in zip(workload.ops, calls)
    }
    values = {
        "setup_s": statistics.median(setups),
        # A typical pass: each op's median filters a burst of host noise on
        # its own, where the median of whole-pass sums would not.
        "pass_s": sum(op_medians.values()),
        "peak_rss_mb": statistics.median(pass_rss),
    }
    report = [
        f"  setup_s        {values['setup_s']:10.4f} s    {describe(setups)} set-ups",
        f"  pass_s         {values['pass_s']:10.4f} s    sum of the per-op medians over "
        f"{len(pass_rss)} passes",
    ]
    for op, bucket in zip(workload.ops, calls):
        walls = [c.wall_s for c in bucket]
        report.append(f"  {op.name + '_s':14s} {op_medians[op.name]:10.4f} s    {describe(walls)}")
    report.append(
        f"  peak_rss_mb    {values['peak_rss_mb']:10.2f} MiB  largest child RSS per pass, "
        f"{describe(pass_rss)} passes"
    )
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return Result(
        metrics, attempted + SETUP_REPEATS, failed + warm_failures, report, errors
    )


def traced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    import traced

    # One set-up; its generator calls run under tracemalloc (set-up is not
    # timed here) and give generators.peak_mb.
    graphs, peaks = zip(
        *(peak_mib(fn, *args) for fn, args in workload.generator_calls(seed))
    )
    # The graph the eigenvector memory pass runs on: the input, or for synth
    # the last graph its gen ops write.
    graph = graphs[-1]
    input_path = workdir / f"input.{workload.fmt}"
    if workload.has_input:
        _write_input(workload, graph, input_path)
    warm = call_cli(workload.warmup().resolve(input_path, seed), workdir)

    argvs = [op.resolve(input_path, seed) for op in workload.ops]
    names = [op.name for op in workload.ops]
    t = traced.traced_run(argvs, names, seconds, workdir, graph, max(peaks))
    outputs = [[p[i] for p in t.outputs] for i in range(len(argvs))]
    attempted, failed, errors = _gate(workload, graph, argvs, outputs)
    failed += t.startup_failures + (warm.returncode != 0)
    attempted += traced.STARTUP_PROBES + 1

    report = []
    for m in traced.LAYER_METRICS:
        value = t.metrics[m.name]
        shown = "n/a (layer not reached)" if value is None or (
            value == 0 and not m.everywhere
        ) else f"{value:.6g} {m.unit}"
        report.append(f"  {m.name:34s} {shown:28s} moves: {m.moves}")
    report += t.report
    metrics = {
        m.name: (t.metrics[m.name], m.unit) for m in traced.LAYER_METRICS if m.everywhere
    }
    trace = {
        "metrics": t.metrics,
        "passes": [r.to_json() for r in t.recorders],
        "ops": names,
    }
    return Result(metrics, attempted, failed, report, errors, trace)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        run = traced_run if trace else timed_run
        return run(workload, seed, seconds, Path(tmp))


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "netcover" / "__init__.py").is_file():
        print(f"perfbench: no netcover sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netcover

    if Path(netcover.__file__).resolve().parent != (SRC / "netcover").resolve():
        print(f"perfbench: imported netcover from {netcover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))

    if result.trace is not None:
        out_dir = WORK_DIR / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{workload.name}-seed{args.seed}.json").write_text(json.dumps(result.trace))
    mode = "traced" if args.trace else "timed"
    print(f"perfbench {workload.name} seed={args.seed} ({mode}): {workload.why}")
    print("\n".join(result.report))
    frac = result.failed / result.attempted
    print(f"  failed_frac    {frac:10.4f}      {result.failed} of {result.attempted} calls")
    for error in result.errors:
        print(f"  FAILED {error}")
        print(f"perfbench: {error}", file=sys.stderr)
    print(result.line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
