"""Output emitters: markdown (human tables), csv, and json.

Markdown rounds the way the evaluation tables are usually read (whole
percent for coverage, three decimals for correlations); csv and json keep
full float precision.  All emitters sort keys and fix column order, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .coverage import SelectionResult
from .evaluation import CoverageTable, RankCorrelationMatrix, ParetoPoint
from .graph import GraphStats

FORMATS = ("markdown", "csv", "json")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _csv_rows(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_doc(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    # a "|" inside a cell (a node label) would end the cell early
    rows = [[cell.replace("|", "\\|") for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def pct_whole(x: float) -> str:
    return f"{x * 100:.0f}%"


def render_stats(stats: GraphStats, fmt: str = "markdown") -> str:
    _check_format(fmt)
    if fmt == "markdown":
        return (
            f"n={stats.n} m={stats.m} "
            f"density={stats.density * 100:.1f}% "
            f"avg_degree={stats.avg_degree:.2f}\n"
        )
    if fmt == "csv":
        return _csv_rows(
            [
                ["n", "m", "density", "avg_degree"],
                [stats.n, stats.m, repr(stats.density), repr(stats.avg_degree)],
            ]
        )
    return _json_doc(
        {
            "n": stats.n,
            "m": stats.m,
            "density": stats.density,
            "avg_degree": stats.avg_degree,
        }
    )


def render_selection(sel: SelectionResult, fmt: str = "markdown") -> str:
    _check_format(fmt)
    if fmt == "markdown":
        rows = [
            [str(i + 1), node, pct_whole(cov)]
            for i, (node, cov) in enumerate(zip(sel.picks, sel.cumulative))
        ]
        return _md_table(["rank", "node", "coverage"], rows)
    if fmt == "csv":
        rows: list[Sequence[object]] = [["rank", "node", "coverage"]]
        rows.extend(
            [i + 1, node, repr(cov)]
            for i, (node, cov) in enumerate(zip(sel.picks, sel.cumulative))
        )
        return _csv_rows(rows)
    return _json_doc(
        {
            "method": sel.method,
            "target": sel.target,
            "picks": list(sel.picks),
            "cumulative": list(sel.cumulative),
        }
    )


def render_table(table: CoverageTable, fmt: str = "markdown") -> str:
    _check_format(fmt)
    if fmt == "markdown":
        rows = [
            [str(k)] + [pct_whole(table.columns[m][i]) for m in table.methods]
            for i, k in enumerate(table.ks)
        ]
        return _md_table(["k", *table.methods], rows)
    if fmt == "csv":
        rows: list[Sequence[object]] = [["k", *table.methods]]
        rows.extend(
            [k] + [repr(table.columns[m][i]) for m in table.methods]
            for i, k in enumerate(table.ks)
        )
        return _csv_rows(rows)
    return _json_doc(
        {
            "ks": list(table.ks),
            "methods": list(table.methods),
            "columns": {m: list(vals) for m, vals in table.columns.items()},
        }
    )


def render_matrix(matrix: RankCorrelationMatrix, fmt: str = "markdown") -> str:
    _check_format(fmt)
    methods = list(matrix.entries)
    if fmt == "markdown":
        cells = [
            "n/a" if matrix.entries[m] is None else f"{matrix.entries[m]:.3f}"
            for m in methods
        ]
        return _md_table(["reference", *methods], [[matrix.reference, *cells]])
    if fmt == "csv":
        rows: list[Sequence[object]] = [["method", "spearman_rho"]]
        rows.extend(
            [m, "" if matrix.entries[m] is None else repr(matrix.entries[m])]
            for m in methods
        )
        return _csv_rows(rows)
    return _json_doc({"reference": matrix.reference, "entries": matrix.entries})


def render_pareto(point: ParetoPoint, fmt: str = "markdown") -> str:
    _check_format(fmt)
    if fmt == "markdown":
        return (
            f"method={point.method} k={point.k} "
            f"node_fraction={point.node_fraction * 100:.1f}% "
            f"coverage={pct_whole(point.coverage)}\n"
        )
    if fmt == "csv":
        return _csv_rows(
            [
                ["method", "k", "node_fraction", "coverage"],
                [point.method, point.k, repr(point.node_fraction), repr(point.coverage)],
            ]
        )
    return _json_doc(
        {
            "method": point.method,
            "k": point.k,
            "node_fraction": point.node_fraction,
            "coverage": point.coverage,
        }
    )
