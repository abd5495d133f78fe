"""The benchmark's workloads: seeded inputs and the CLI calls made on them.

Each workload is shaped so that one planned optimisation does most of its work
there and nearly none on another:

* ``survey-pa`` looks like the paper's org-survey graph (heavy-tailed and
  acyclic): betweenness dominates, greedy is trivial and eigenvector takes
  the DAG fallback.
* ``flat-er`` has the same n and m but is strongly connected with flat
  degrees: every BFS reaches every node, greedy degenerates and eigenvector
  runs a dense power iteration.
* ``bulk-ingest`` is a large edge list on which only parsing, graph
  construction, greedy and a degree rank run.
* ``synth`` is the write path: the generators and serialization.

Argument templates use ``{input}`` for the generated file and ``{seed}`` for
the run's seed; the CLI sees only the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI call; ``name`` is the stem of its per-op metric (``<name>_s``)."""

    name: str
    argv: tuple[str, ...]

    def resolve(self, input_path: Path | None, seed: int) -> list[str]:
        return [a.format(input=input_path, seed=seed) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    model: str | None = None  # "pa" or "er" for the input graph; None: no input
    n: int = 0
    epn: int | None = None
    p: float | None = None
    fmt: str = "json"

    @property
    def has_input(self) -> bool:
        return self.model is not None

    def generator_calls(self, seed: int) -> list[tuple]:
        """``(function, args)`` of each netcover generator call the workload
        makes: the input graph's, or for ``synth`` those behind its gen ops."""
        from netcover.generators import gen_erdos_renyi, gen_preferential

        if self.has_input:
            specs = [(self.model, self.n, self.epn, self.p)]
        else:
            specs = []
            for op in self.ops:
                f = dict(zip(op.argv[1::2], op.argv[2::2]))
                specs.append((f["--model"], int(f["--n"]), int(f.get("--epn", 0)), float(f.get("--p", 0))))
        return [
            (gen_preferential, (n, epn, seed)) if model == "pa" else (gen_erdos_renyi, (n, p, seed))
            for model, n, epn, p in specs
        ]

    def make_graph(self, seed: int):
        """The workload's input graph, generated by netcover from ``seed``."""
        fn, args = self.generator_calls(seed)[0]
        return fn(*args)

    def serialize(self, g) -> str:
        from netcover.graph import to_csv, to_json

        return to_json(g) if self.fmt == "json" else to_csv(g)

    def warmup(self) -> Op:
        """The set-up call: read the input once, or generate a tiny graph."""
        if self.has_input:
            return Op("warmup", ("stats", "{input}"))
        return Op("warmup", ("gen", "--model", "pa", "--n", "100", "--epn", "10", "--seed", "{seed}"))


def _graph_ops(greedy_target: str) -> tuple[Op, ...]:
    return (
        Op("evaluate", ("evaluate", "{input}", "--format", "csv")),
        Op("correlate", ("correlate", "{input}", "--format", "json")),
        Op("select_greedy", ("select", "{input}", "--method", "greedy", "--target", greedy_target)),
        Op("select_rank", ("select", "{input}", "--method", "betweenness", "--target", "0.8")),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="survey-pa",
            why="PA n=1500 epn=10 json, acyclic like the org survey: betweenness dominates, "
            "greedy is trivial, eigenvector takes the DAG fallback",
            ops=_graph_ops("0.8"),
            model="pa",
            n=1500,
            epn=10,
        ),
        Workload(
            name="flat-er",
            why="ER n=1500 p=0.0067 json, one SCC with flat degrees: every BFS reaches all, "
            "greedy degenerates to full cover, eigenvector runs dense power iteration",
            ops=_graph_ops("1.0"),
            model="er",
            n=1500,
            p=0.0067,
        ),
        Workload(
            name="bulk-ingest",
            why="PA n=20000 epn=10 csv (m~200k): only parsing, graph construction, greedy and "
            "a degree rank run, so a construction-time index must pay for itself here",
            ops=(
                Op("stats", ("stats", "{input}")),
                Op("select_greedy", ("select", "{input}", "--method", "greedy", "--target", "0.8")),
                Op("select_rank", ("select", "{input}", "--method", "in_degree", "--k", "50")),
            ),
            model="pa",
            n=20000,
            epn=10,
            fmt="csv",
        ),
        Workload(
            name="synth",
            why="gen pa n=5000 epn=10 json and gen er n=2000 p=0.005 csv: the write path, "
            "so the quadratic and dense generators are measured",
            ops=(
                Op("gen_pa", ("gen", "--model", "pa", "--n", "5000", "--epn", "10",
                              "--seed", "{seed}", "--format", "json")),
                Op("gen_er", ("gen", "--model", "er", "--n", "2000", "--p", "0.005",
                              "--seed", "{seed}", "--format", "csv")),
            ),
        ),
    )
}
