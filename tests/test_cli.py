import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import netcover
from netcover import DirectedGraph, gen_preferential, graph, to_csv
from netcover.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def two_node(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("a,b\n")
    return str(p)


@pytest.fixture
def star_graph(tmp_path):
    p = tmp_path / "star.csv"
    p.write_text("".join(f"l{i},hub\n" for i in range(1, 5)))
    return str(p)


@pytest.fixture
def edgeless10(tmp_path):
    p = tmp_path / "edgeless.json"
    p.write_text(json.dumps({"nodes": [f"v{i}" for i in range(10)], "edges": []}))
    return str(p)


# --- stats ---


def test_stats_two_node(two_node, capsys):
    code, out, err = run(["stats", two_node], capsys)
    assert code == 0
    assert out == "n=2 m=1 density=50.0% avg_degree=1.00\n"


def test_stats_missing_file(capsys):
    code, out, err = run(["stats", "/no/such/file.csv"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_ingest_drops_warn_on_stderr_only(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    clean.write_text("a,b\nb,c\n")
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("a,b\nb,c\na,b\nc,c\n")  # one duplicate, one self-loop
    code, clean_out, clean_err = run(["stats", str(clean)], capsys)
    assert (code, clean_err) == (0, "")
    code, out, err = run(["stats", str(dirty)], capsys)
    assert code == 0
    assert out == clean_out
    assert err == "warning: ingest dropped 1 duplicate edge(s) and 1 self-loop(s)\n"


def test_stats_json_format(two_node, capsys):
    code, out, _ = run(["stats", two_node, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["density"] == 0.5


def test_stats_parse_error_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\nc\n")
    code, _, err = run(["stats", str(p)], capsys)
    assert code == 2
    assert "line 2" in err


def test_stats_oversized_csv_field_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "big.csv"
    p.write_text("a,b\na," + "x" * 200_000 + "\n")
    code, out, err = run(["stats", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2:")


def test_stats_malformed_row_mid_stream_names_its_line(tmp_path, capsys):
    # rows are checked as the parser streams them into the graph builder
    p = tmp_path / "bad.csv"
    p.write_text("".join(f"a{i},b{i}\n" for i in range(100)) + "x,y,z,w\nc,d\n")
    code, out, err = run(["stats", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 101: expected 2 or 3 columns, got 4\n"


def test_line_endings_and_quoting_do_not_change_output(tmp_path, monkeypatch, capsys):
    # LF and CRLF copies are split by the str.split tokenizer (which takes
    # \r\n as a line end), the all-quoted copy is read by csv.reader: the
    # output must not tell them apart
    handed = []  # characters each run leaves to csv.reader

    def reader_pairs(text, line, first_data_row):
        handed.append(len(text))
        return csv_reader_pairs(text, line, first_data_row)

    csv_reader_pairs = graph._csv_reader_pairs
    monkeypatch.setattr(graph, "_csv_reader_pairs", reader_pairs)
    lf = to_csv(gen_preferential(2000, 3, 5))
    copies = {
        "lf.csv": lf,
        "crlf.csv": lf.replace("\n", "\r\n"),
        "quoted.csv": "".join('"' + r.replace(",", '","') + '"\n' for r in lf.split()),
    }
    outputs = []
    for name, text in copies.items():
        p = tmp_path / name
        p.write_bytes(text.encode())
        for argv in (["stats"], ["select", "--method", "greedy", "--target", "0.8"]):
            code, out, err = run([argv[0], str(p), *argv[1:]], capsys)
            assert (code, err) == (0, "")
            outputs.append(out)
    assert outputs[0::2] == [outputs[0]] * 3 and outputs[1::2] == [outputs[1]] * 3
    assert handed[:4] == [0] * 4 and min(handed[4:]) > len(lf)


def test_quoted_carriage_return_survives_the_cli(tmp_path, capsys):
    # the file's text reaches the parser untranslated: with universal
    # newlines the quoted label came back as "cr\nx"
    g = DirectedGraph.from_edges([("cr\rx", "hub"), ("a", "hub"), ("hub", "cr\rx")])
    p = tmp_path / "cr.csv"
    p.write_bytes(to_csv(g).encode())
    code, out, err = run(
        ["select", str(p), "--method", "in_degree", "--k", "3", "--format", "json"], capsys
    )
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["picks"]) == sorted(g.nodes) == ["a", "cr\rx", "hub"]


# --- select ---


@pytest.mark.parametrize(
    "argv",
    [
        ["stats"],
        ["select", "--method", "greedy", "--target", "0.8"],
        ["select", "--method", "in_degree", "--k", "3"],
    ],
    ids=["stats", "greedy", "in_degree"],
)
def test_analysis_never_builds_label_pairs(argv, star_graph, monkeypatch, capsys):
    def built(g):
        raise AssertionError("DirectedGraph.edges was built")

    monkeypatch.setattr(DirectedGraph, "edges", property(built))
    code, out, err = run([argv[0], star_graph, *argv[1:]], capsys)
    assert (code, err) == (0, "")


def test_select_markdown_escapes_pipes_in_labels(tmp_path, capsys):
    p = tmp_path / "pipe.csv"
    p.write_text("x,a|b\ny,a|b\n")
    code, out, _ = run(["select", str(p), "--method", "greedy", "--target", "1.0"], capsys)
    assert code == 0
    assert out.splitlines()[2] == "| 1    | a\\|b | 100%     |"
    # every row has the header's four cell borders once escapes are skipped
    assert {ln.replace("\\|", "").count("|") for ln in out.splitlines()} == {4}
    # a line feed or carriage return inside a label would split its row
    p = tmp_path / "lines.json"
    p.write_text(json.dumps({"nodes": [], "edges": [["x", "a\nb"], ["y", "c\rd"]]}))
    code, out, _ = run(["select", str(p), "--method", "in_degree", "--k", "3"], capsys)
    assert code == 0
    assert out.split("\n")[2:4] == ["| 1    | a\\nb | 50%      |", "| 2    | c\\rd | 100%     |"]
    assert len(out.split("\n")) == 6  # header, rule, three rows, the empty tail
    # a backslash is doubled, so a label's own backslash-n and a line feed differ
    p = tmp_path / "backslash.json"
    p.write_text(json.dumps({"nodes": [], "edges": [["x", "a\\nb"], ["y", "a\nb"]]}))
    code, out, _ = run(["select", str(p), "--method", "in_degree", "--k", "2"], capsys)
    assert code == 0
    assert out.split("\n")[2:4] == ["| 1    | a\\nb  | 50%      |", "| 2    | a\\\\nb | 100%     |"]


def test_select_greedy_star(star_graph, capsys):
    code, out, _ = run(
        ["select", star_graph, "--method", "greedy", "--target", "0.8"], capsys
    )
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln]
    assert len(body) == 1
    assert "hub" in body[0]
    assert "100%" in body[0]


def test_select_in_degree_k5(star_graph, capsys):
    code, out, _ = run(
        ["select", star_graph, "--method", "in_degree", "--k", "5"], capsys
    )
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln]
    assert len(body) == 5
    pcts = [int(ln.split("|")[3].strip().rstrip("%")) for ln in body]
    assert pcts == sorted(pcts)


def test_select_greedy_k_on_edgeless(edgeless10, capsys):
    code, out, _ = run(
        ["select", edgeless10, "--method", "greedy", "--k", "3"], capsys
    )
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln]
    assert [ln.split("|")[3].strip() for ln in body] == ["10%", "20%", "30%"]


def test_select_centrality_target_minimal_k(edgeless10, capsys):
    code, out, _ = run(
        ["select", edgeless10, "--method", "in_degree", "--target", "0.5"], capsys
    )
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln]
    assert len(body) == 5  # 5 of 10 nodes reach 50%


def test_select_flag_conflicts(star_graph, capsys):
    code, _, _ = run(
        ["select", star_graph, "--method", "greedy", "--target", "0.8", "--k", "2"],
        capsys,
    )
    assert code == 2
    code, _, _ = run(["select", star_graph, "--method", "greedy"], capsys)
    assert code == 2


def test_select_unknown_method(star_graph, capsys):
    code, _, _ = run(
        ["select", star_graph, "--method", "pagerank", "--k", "1"], capsys
    )
    assert code == 2


def test_select_k_out_of_range(star_graph, capsys):
    code, _, err = run(
        ["select", star_graph, "--method", "greedy", "--k", "99"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_select_target_out_of_range(star_graph, capsys):
    code, _, _ = run(
        ["select", star_graph, "--method", "greedy", "--target", "1.5"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "betweenness", "--target", "1.5"],
        ["--method", "closeness", "--k", "0"],
        ["--method", "betweenness", "--k", "6"],  # n + 1 on the star
    ],
    ids=["target-1.5", "k-0", "k-n+1"],
)
def test_select_bad_request_does_no_work(argv, star_graph, monkeypatch, capsys):
    # the request is checked before the betweenness/closeness sweep runs
    import netcover.centrality as centrality_mod

    def no_sweep(_):
        raise RuntimeError("swept before checking the request")

    monkeypatch.setattr(centrality_mod, "_path_sweep", no_sweep)
    code, out, err = run(["select", star_graph, *argv], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


# --- evaluate ---


def test_evaluate_star_single_row(star_graph, capsys):
    code, out, _ = run(["evaluate", star_graph, "--ks", "1"], capsys)
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln]
    assert len(body) == 1
    # the hub is a sink, so the outgoing-distance closeness rank puts it
    # last and k=1 covers a single leaf; every other measure tops the hub
    assert body[0].count("100%") == 4
    assert "20%" in body[0]


def test_evaluate_ks_beyond_n(star_graph, capsys):
    code, _, err = run(["evaluate", star_graph, "--ks", "1,99"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_evaluate_bad_ks_string(star_graph, capsys):
    code, _, _ = run(["evaluate", star_graph, "--ks", "1,x"], capsys)
    assert code == 2


def test_evaluate_csv_full_precision(edgeless10, capsys):
    code, out, _ = run(["evaluate", edgeless10, "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,in_degree,betweenness,closeness,eigenvector,greedy"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[5]) == 0.1


# --- correlate ---


def test_correlate_two_node_markdown(two_node, capsys):
    code, out, _ = run(["correlate", two_node], capsys)
    assert code == 0
    lines = out.splitlines()
    header = [c.strip() for c in lines[0].split("|")[1:-1]]
    row = [c.strip() for c in lines[2].split("|")[1:-1]]
    cells = dict(zip(header, row))
    assert cells["reference"] == "greedy"
    assert cells["in_degree"] == "1.000"
    assert cells["eigenvector"] == "1.000"
    assert cells["closeness"] == "-1.000"
    assert cells["betweenness"] == "n/a"


def test_correlate_json_schema(two_node, capsys):
    code, out, _ = run(["correlate", two_node, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["entries"]) == {
        "in_degree",
        "betweenness",
        "closeness",
        "eigenvector",
    }
    assert doc["entries"]["betweenness"] is None
    assert doc["reference"] == "greedy"


# --- eigenvector warnings ---

FALLBACK_WARNING = (
    "warning: acyclic graph: power iteration collapses to zero; "
    "scores proportional to in-degree\n"
)
EDGELESS_WARNING = "warning: edgeless graph: eigenvector undefined, scores zeroed\n"

WARNING_COMMANDS = {
    "select": ["select", "--method", "eigenvector", "--k", "3"],
    "evaluate": ["evaluate"],
    "correlate": ["correlate"],
}


@pytest.mark.parametrize("command", sorted(WARNING_COMMANDS))
def test_eigenvector_fallback_warns_on_stderr_once(command, capsys):
    argv = WARNING_COMMANDS[command]
    code, _, err = run([argv[0], str(GOLDEN / "gen_pa.json"), *argv[1:]], capsys)
    assert (code, err) == (0, FALLBACK_WARNING)


@pytest.mark.parametrize("command", sorted(WARNING_COMMANDS))
def test_edgeless_input_warns_eigenvector_zeroed(command, edgeless10, capsys):
    argv = WARNING_COMMANDS[command]
    code, _, err = run([argv[0], edgeless10, *argv[1:]], capsys)
    assert (code, err) == (0, EDGELESS_WARNING)


@pytest.mark.parametrize("command", sorted(WARNING_COMMANDS))
def test_cyclic_input_gives_empty_stderr(command, tmp_path, capsys):
    p = tmp_path / "cyclic.csv"
    p.write_text("a,b\nb,c\nc,a\na,c\nd,a\n")
    argv = WARNING_COMMANDS[command]
    code, _, err = run([argv[0], str(p), *argv[1:]], capsys)
    assert (code, err) == (0, "")


# --- gen ---


def test_gen_determinism(capsys):
    argv = ["gen", "--model", "pa", "--n", "30", "--epn", "2", "--seed", "7"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_er_near_profile(capsys):
    argv = [
        "gen", "--model", "er", "--n", "215", "--p", "0.0484", "--seed", "1",
        "--format", "csv",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    m = len(out.splitlines()) - 1  # header
    assert abs(m - 2226.9) <= 3 * 46.04


def test_gen_invalid_p(capsys):
    code, _, err = run(
        ["gen", "--model", "er", "--n", "10", "--p", "1.5", "--seed", "1"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "model", [["--model", "pa", "--epn", "2"], ["--model", "er", "--p", "0.2"]]
)
def test_gen_negative_seed_names_the_seed(model, capsys):
    code, out, err = run(["gen", *model, "--n", "10", "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_gen_wrong_parameter_for_model(capsys):
    code, _, _ = run(
        ["gen", "--model", "pa", "--n", "10", "--p", "0.5", "--seed", "1"], capsys
    )
    assert code == 2
    code, _, _ = run(
        ["gen", "--model", "er", "--n", "10", "--epn", "2", "--seed", "1"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "model, name",
    [
        (["er", "--p", "0.1", "--epn", "3"], "erdos_renyi"),
        (["pa", "--epn", "3", "--p", "0.1"], "preferential_attachment"),
    ],
)
def test_gen_parameter_of_the_other_model(model, name, capsys):
    # both parameters given: the one the model does not take is named
    argv = ["gen", "--model", *model, "--n", "10", "--seed", "1"]
    err = f"error: {model[3]} does not apply to the {name} model\n"
    assert run(argv, capsys) == (2, "", err)


@pytest.mark.parametrize(
    "model", [["erdos_renyi", "--p", "0.1"], ["preferential_attachment", "--epn", "2"]]
)
def test_gen_model_is_er_or_pa(model, capsys):
    code, out, err = run(["gen", "--model", *model, "--n", "10", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert f"argument --model: invalid choice: '{model[0]}'" in err


def test_gen_out_file(tmp_path, capsys):
    dest = tmp_path / "g.json"
    code, out, _ = run(
        [
            "gen", "--model", "er", "--n", "8", "--p", "0.3", "--seed", "4",
            "--out", str(dest),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert len(doc["nodes"]) == 8


@pytest.mark.parametrize("name", ["gen_pa.json", "gen_er.csv"])
def test_gen_out_writes_the_stdout_bytes(name, tmp_path, capsys):
    dest = tmp_path / name
    argv = GOLDEN_COMMANDS[name]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert run([*argv, "--out", str(dest)], capsys) == (0, "", "")
    assert dest.read_bytes() == out.encode() == (GOLDEN / name).read_bytes()


# --- plumbing ---


def test_input_format_override(tmp_path, capsys):
    # a JSON document under a non-.json name parses only with the override
    p = tmp_path / "graph.txt"
    p.write_text('{"edges": [["a", "b"], ["b", "c"]]}')
    code, _, _ = run(["stats", str(p)], capsys)
    assert code == 2  # read as csv by default
    code, out, _ = run(["stats", str(p), "--input-format", "json"], capsys)
    assert code == 0
    assert out.startswith("n=3")


def test_json_extension_detection_ignores_case(tmp_path, capsys):
    lower, upper = tmp_path / "g.json", tmp_path / "g.JSON"
    for p in (lower, upper):
        p.write_text('{"edges": [["a", "b"], ["b", "c"]]}')
    code, want, _ = run(["stats", str(lower)], capsys)
    assert code == 0 and want.startswith("n=3 m=2 ")
    assert run(["stats", str(upper)], capsys) == (0, want, "")


@pytest.mark.parametrize(
    "ext, text, argv",
    [
        ("csv", "source,target\na,b\nc,b\n", ["stats"]),
        ("csv", "source,target\na,b\nc,b\n", ["select", "--method", "in_degree", "--k", "3"]),
        ("json", '{"edges": [["a", "b"], ["c", "b"]]}', ["stats"]),
    ],
    ids=["csv-stats", "csv-select", "json-stats"],
)
def test_utf8_byte_order_mark_is_dropped(ext, text, argv, tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with a BOM; it must not become
    # part of the first label (and hide the header) or break JSON decoding
    plain, bom = tmp_path / f"plain.{ext}", tmp_path / f"bom.{ext}"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, want, _ = run([argv[0], str(plain), *argv[1:]], capsys)
    assert code == 0
    if argv == ["stats"]:
        assert want.startswith("n=3 m=2 ")
    assert run([argv[0], str(bom), *argv[1:]], capsys) == (0, want, "")


@pytest.mark.parametrize("error", [RuntimeError, KeyError, IndexError])
def test_internal_error_exit_3(error, monkeypatch, two_node, capsys):
    # exit 2 is for input errors only: a program's own lookup slip is exit 3
    import netcover.cli as cli_mod

    def boom(_):
        raise error("invariant violated")

    monkeypatch.setattr(cli_mod, "graph_stats", boom)
    code, _, err = run(["stats", two_node], capsys)
    assert code == 3
    assert err.startswith("internal error:")


def test_module_entry_point(two_node):
    proc = subprocess.run(
        [sys.executable, "-m", "netcover", "stats", two_node],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n=2")


def test_package_exports_match_its_imports():
    # __all__ names nothing missing, and every public name __init__ imports
    tree = ast.parse(Path(netcover.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(netcover.__all__)) == len(netcover.__all__)
    assert all(hasattr(netcover, name) for name in netcover.__all__)
    assert {name for name in imported if not name.startswith("_")} <= set(netcover.__all__)


# --- goldens ---

GOLDEN_COMMANDS = {
    "gen_pa.json": ["gen", "--model", "pa", "--n", "60", "--epn", "3", "--seed", "7"],
    "gen_er.csv": [
        "gen", "--model", "er", "--n", "20", "--p", "0.2", "--seed", "3",
        "--format", "csv",
    ],
    "stats.md": ["stats", str(GOLDEN / "gen_pa.json")],
    "select_greedy.md": [
        "select", str(GOLDEN / "gen_pa.json"), "--method", "greedy",
        "--target", "0.8",
    ],
    "select_rank.json": [
        "select", str(GOLDEN / "gen_pa.json"), "--method", "betweenness",
        "--target", "1.0", "--format", "json",
    ],
    "evaluate.csv": [
        "evaluate", str(GOLDEN / "gen_pa.json"), "--format", "csv",
    ],
    "correlate.json": [
        "correlate", str(GOLDEN / "gen_pa.json"), "--format", "json",
    ],
    # gen_er.csv has cycles, so its sweep runs BFS levels in both directions
    "evaluate_er.csv": [
        "evaluate", str(GOLDEN / "gen_er.csv"), "--format", "csv",
    ],
    "select_closeness_er.json": [
        "select", str(GOLDEN / "gen_er.csv"), "--method", "closeness",
        "--target", "1.0", "--format", "json",
    ],
    # a budget cuts a rank curve and a full-coverage greedy run alike
    "select_k_in_degree.csv": [
        "select", str(GOLDEN / "gen_pa.json"), "--method", "in_degree",
        "--k", "5", "--format", "csv",
    ],
    "select_k_greedy.json": [
        "select", str(GOLDEN / "gen_er.csv"), "--method", "greedy",
        "--k", "3", "--format", "json",
    ],
    # the JSON "methods" key and the markdown "reference" cell
    "evaluate.json": [
        "evaluate", str(GOLDEN / "gen_pa.json"), "--format", "json",
    ],
    "correlate.md": ["correlate", str(GOLDEN / "gen_pa.json")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name):
    argv = GOLDEN_COMMANDS[name]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "netcover", *argv], capture_output=True
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout  # byte-identical reruns
    assert runs[0].stdout == (GOLDEN / name).read_bytes()


# --- remaining render formats ---


def test_select_csv_and_json_formats(star_graph, capsys):
    code, out, _ = run(
        ["select", star_graph, "--method", "greedy", "--target", "0.8",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "rank,node,coverage\n1,hub,1.0\n"
    code, out, _ = run(
        ["select", star_graph, "--method", "greedy", "--target", "0.8",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["picks"] == ["hub"]
    assert doc["cumulative"] == [1.0]
    assert doc["target"] == 0.8


def test_stats_csv_format(star_graph, capsys):
    code, out, _ = run(["stats", star_graph, "--format", "csv"], capsys)
    assert code == 0
    assert out == "n,m,density,avg_degree\n5,4,0.2,1.6\n"


# --- scale ---


def test_fifty_thousand_node_input_exits_zero(tmp_path, capsys):
    """A ~200k-edge cyclic input runs in edge-list memory, not O(n^2)."""
    n = 50_000
    rng = np.random.default_rng(5)
    tails = np.repeat(np.arange(n), 4)
    offsets = rng.integers(1, n, size=(n, 4))
    offsets[:, 0] = 1  # ring edge i -> i+1 makes the graph cyclic
    heads = (tails + offsets.ravel()) % n
    p = tmp_path / "big.csv"
    rows = zip(tails.tolist(), heads.tolist())
    p.write_text("".join(f"v{s},v{t}\n" for s, t in rows))

    start = time.perf_counter()
    code, out, err = run(["stats", str(p)], capsys)
    assert code == 0, err
    assert out.startswith(f"n={n} ")
    argv = ["select", str(p), "--method", "eigenvector", "--k", "10"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "internal error" not in out + err
    assert len(out.strip().splitlines()) > 10
    # flat degrees: greedy must not rescan every node each round
    argv = ["select", str(p), "--method", "greedy", "--target", "0.8"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "internal error" not in out + err
    assert time.perf_counter() - start < 60
