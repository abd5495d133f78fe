"""Output emitters: markdown (human tables), csv, and json.

Markdown rounds the way the evaluation tables are usually read (whole
percent for coverage, three decimals for correlations); csv and json keep
full float precision.  Single records (stats, the Pareto point) go through
one record emitter and row tables (selections, coverage tables) through one
table emitter; only the correlation matrix, whose markdown is the transpose
of its csv, is laid out on its own.  JSON sorts keys and every column order
is fixed, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
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
    # a "|" inside a cell (a node label) would end the cell early, a line end the
    # row; a backslash is doubled, so an escape always reads back one way
    escape = str.maketrans({"\\": "\\\\", "|": "\\|", "\n": "\\n", "\r": "\\r"})
    rows = [[cell.translate(escape) for cell in row] for row in rows]
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


def _emit_record(fmt: str, fields: dict[str, object], **markdown: str) -> str:
    """One record: a markdown ``key=value`` line, a CSV header and row, or a JSON object.

    ``markdown`` holds the rounded markdown text of some fields; the others
    print as they are.
    """
    _check_format(fmt)
    if fmt == "markdown":
        return " ".join(f"{k}={markdown.get(k, v)}" for k, v in fields.items()) + "\n"
    if fmt == "csv":
        return _csv_rows([list(fields), list(fields.values())])
    return _json_doc(fields)


def _emit_table(
    fmt: str, header: Sequence[str], rows: Sequence[Sequence[object]], doc: object
) -> str:
    """``rows`` as a markdown table or a CSV header and rows; JSON writes ``doc``.

    Markdown shows a float cell (always a coverage fraction) as a whole percent.
    """
    _check_format(fmt)
    if fmt == "markdown":
        cells = [
            [pct_whole(c) if isinstance(c, float) else str(c) for c in row] for row in rows
        ]
        return _md_table(header, cells)
    if fmt == "csv":
        return _csv_rows([header, *rows])
    return _json_doc(doc)


def render_stats(stats: GraphStats, fmt: str = "markdown") -> str:
    return _emit_record(
        fmt,
        asdict(stats),
        density=f"{stats.density * 100:.1f}%",
        avg_degree=f"{stats.avg_degree:.2f}",
    )


def render_selection(sel: SelectionResult, fmt: str = "markdown") -> str:
    rows = [[i + 1, v, cov] for i, (v, cov) in enumerate(zip(sel.picks, sel.cumulative))]
    doc = {
        "method": sel.method,
        "target": sel.target,
        "picks": list(sel.picks),
        "cumulative": list(sel.cumulative),
    }
    return _emit_table(fmt, ["rank", "node", "coverage"], rows, doc)


def render_table(table: CoverageTable, fmt: str = "markdown") -> str:
    methods = list(table.columns)
    rows = [[k] + [table.columns[m][i] for m in methods] for i, k in enumerate(table.ks)]
    doc = {
        "ks": list(table.ks),
        "methods": methods,
        "columns": {m: list(vals) for m, vals in table.columns.items()},
    }
    return _emit_table(fmt, ["k", *methods], rows, doc)


def render_matrix(matrix: RankCorrelationMatrix, fmt: str = "markdown") -> str:
    _check_format(fmt)
    methods = list(matrix.entries)
    if fmt == "markdown":
        cells = [
            "n/a" if matrix.entries[m] is None else f"{matrix.entries[m]:.3f}"
            for m in methods
        ]
        return _md_table(["reference", *methods], [["greedy", *cells]])
    if fmt == "csv":  # csv.writer writes None as an empty cell
        return _csv_rows([["method", "spearman_rho"], *matrix.entries.items()])
    return _json_doc({"reference": "greedy", "entries": matrix.entries})


def render_pareto(point: ParetoPoint, fmt: str = "markdown") -> str:
    return _emit_record(
        fmt,
        asdict(point),
        node_fraction=f"{point.node_fraction * 100:.1f}%",
        coverage=pct_whole(point.coverage),
    )
