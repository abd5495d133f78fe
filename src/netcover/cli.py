"""Command-line interface.

Subcommands: ``stats``, ``select``, ``evaluate``, ``correlate``, ``gen``.
Exit codes: 0 success, 2 usage/input errors, 3 internal invariant
violations.  Diagnostics go to stderr; data goes to stdout or ``--out``.
Identical invocations on identical inputs emit byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, TextIO

from . import render
from .coverage import _check_fraction, centrality_rank_select, greedy_select
from .evaluation import (
    METHODS,
    centrality_rank,
    coverage_table,
    default_ks,
    rank_correlation_report,
)
from .generators import gen_erdos_renyi, gen_preferential
from .graph import (
    _FORMATS, DirectedGraph, graph_stats, parse_edge_list, to_csv, to_json
)


def _warn(*messages: str | None) -> None:
    """One ``warning:`` line on stderr per message that is not ``None``."""
    for message in messages:
        if message is not None:
            print(f"warning: {message}", file=sys.stderr)


def _load_graph(path: str, fmt: str | None) -> DirectedGraph:
    """Parse the input file; report dropped rows as one stderr warning."""
    # untranslated line ends: a \r inside a quoted CSV cell survives
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read()
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    g = parse_edge_list(text, fmt)
    if g.ingest.duplicates or g.ingest.self_loops:
        _warn(
            f"ingest dropped {g.ingest.duplicates} duplicate edge(s) "
            f"and {g.ingest.self_loops} self-loop(s)"
        )
    return g


#: What a subcommand hands back: its text, or a function that writes it to a file.
Output = str | Callable[[TextIO], object]


def _emit(output: Output, out: str | None) -> None:
    """Write ``output`` to stdout (looked up now, so redirection holds) or ``out``."""
    write = output if callable(output) else lambda f: f.write(output)
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as f:
            write(f)


def _add_io_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="path to a CSV edge list or JSON graph file")
    sub.add_argument(
        "--input-format",
        choices=_FORMATS,
        default=None,
        help="override input format detection (default: by file extension)",
    )
    sub.add_argument(
        "--format",
        choices=render.FORMATS,
        default="markdown",
        help="output format (default: markdown)",
    )
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcover",
        description="Directed-graph coverage analytics: greedy seed selection, "
        "centrality rankings, and evaluation tables.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stats", help="node/edge counts, density, average degree")
    _add_io_args(p)
    p.set_defaults(handler=_cmd_stats)

    p = subs.add_parser("select", help="pick nodes by greedy coverage or a centrality rank")
    _add_io_args(p)
    p.add_argument("--method", required=True, choices=METHODS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=float, help="coverage fraction in (0, 1]")
    group.add_argument("--k", type=int, help="number of nodes to select")
    p.set_defaults(handler=_cmd_select)

    p = subs.add_parser("evaluate", help="coverage-vs-k table for every method")
    _add_io_args(p)
    p.add_argument(
        "--ks",
        default=None,
        help="comma-separated ascending counts (default: 1-5,10..50 clamped to n)",
    )
    p.set_defaults(handler=_cmd_evaluate)

    p = subs.add_parser(
        "correlate", help="Spearman rho between the greedy rank and each centrality"
    )
    _add_io_args(p)
    p.set_defaults(handler=_cmd_correlate)

    p = subs.add_parser("gen", help="generate a seeded synthetic graph")
    p.add_argument("--model", required=True, choices=("er", "pa"))
    p.add_argument("--n", required=True, type=int, help="node count")
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi)")
    p.add_argument(
        "--epn", type=int, help="edges per arriving node (preferential_attachment)"
    )
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--format",
        choices=_FORMATS,
        default="json",
        help="graph file format (default: json; csv drops isolated nodes)",
    )
    p.add_argument("--out", default=None, help="write the graph to this file")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _cmd_stats(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, args.input_format)
    return render.render_stats(graph_stats(g), args.format)


def _cmd_select(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, args.input_format)
    # a bad request fails here, before any centrality work
    if args.k is not None and not 1 <= args.k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {args.k}")
    if args.target is not None:
        _check_fraction("target", args.target)
    if args.method == "greedy":
        sel = greedy_select(g, 1.0 if args.target is None else args.target, args.k)
    else:
        rank = centrality_rank(g, args.method)
        _warn(rank.warning)
        sel = centrality_rank_select(g, rank)
        if args.target is not None:
            sel = sel.reaching(args.target)
    if args.k is not None:
        sel = sel.truncated(args.k)
    return render.render_selection(sel, args.format)


def _cmd_evaluate(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, args.input_format)
    if args.ks is None:
        ks = default_ks(g.n)
    else:
        try:
            ks = tuple(int(part) for part in args.ks.split(","))
        except ValueError:
            raise ValueError(f"--ks must be comma-separated integers, got {args.ks!r}")
    table = coverage_table(g, ks)
    _warn(*table.warnings)
    return render.render_table(table, args.format)


def _cmd_correlate(args: argparse.Namespace) -> str:
    g = _load_graph(args.graph, args.input_format)
    matrix = rank_correlation_report(g)
    _warn(*matrix.warnings)
    return render.render_matrix(matrix, args.format)


def _cmd_gen(args: argparse.Namespace) -> Output:
    if args.model == "er":
        if args.p is None:
            raise ValueError("--p is required for the erdos_renyi model")
        if args.epn is not None:
            raise ValueError("--epn does not apply to the erdos_renyi model")
        g = gen_erdos_renyi(args.n, args.p, args.seed)
    else:
        if args.epn is None:
            raise ValueError("--epn is required for the preferential_attachment model")
        if args.p is not None:
            raise ValueError("--p does not apply to the preferential_attachment model")
        g = gen_preferential(args.n, args.epn, args.seed)
    # written chunk by chunk: the document never exists whole
    return partial(to_json if args.format == "json" else to_csv, g)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.handler(args), args.out)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - invariant violations map to exit 3
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return 0
