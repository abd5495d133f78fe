import hashlib
from functools import cache
from pathlib import Path

import pytest

from netcover import (
    centrality_rank,
    centrality_rank_select,
    coverage_table,
    default_ks,
    graph_stats,
    greedy_select,
    pareto_point,
    parse_edge_list,
    rank_correlation_report,
    render,
)

GOLDEN = Path(__file__).parent / "golden"


@cache
def _inputs():
    g = parse_edge_list((GOLDEN / "gen_pa.json").read_text(), fmt="json")
    return {
        "render_stats": graph_stats(g),
        "render_selection": greedy_select(g, 0.8),
        "render_table": coverage_table(g, default_ks(g.n)),
        "render_matrix": rank_correlation_report(g),
        "render_pareto": pareto_point(g, "greedy", 0.8),
        # a rank prefix: no target, and coverage that repeats between picks
        "render_selection/in_degree": centrality_rank_select(
            g, centrality_rank(g, "in_degree")
        ),
    }


# sha256 of every renderer's output on tests/golden/gen_pa.json, in every
# format, recorded before the renderers shared their emitters
_RECORDED = {
    "render_matrix": {
        "markdown": "f4e7d5d790411bcf57223e1b5c5fc53a4b39f752ef9f83de5f65468e7ad6689d",
        "csv": "38898e78e3a18c1c3530b12bdf58acdabbae5c543dd4462bc6b0885a72d43670",
        "json": "7a06e4901538ab2c3bebdea0618d3e4f4751de6084f115ba3db6ffccf0665889",
    },
    "render_pareto": {
        "markdown": "df58f6517d6259805055c34917ff60501fec3aaaaa11e638aa0d93e6c77a1d22",
        "csv": "ab51b705f8172f28fe55d3e3d41b1a9e04f8078fb92b5e52f3efcc001a0e8eae",
        "json": "a603492452870be8fdc32ba4494d5c64e9a8cce54e82ca54a5a6c121a1343f61",
    },
    "render_selection": {
        "markdown": "58ebbb5c5fb69d37abb1c1a7a1ea82034c68e6dd6e3e8d7ae2b036a385ed5544",
        "csv": "c5b3f108b9213e4804d6f7be194d6e20ccf072e315c329180f2bb26353fbbd89",
        "json": "050b71bc981ef8e4f44480eb1a41523b3d3840b76c4b6c05a8240206651f8c27",
    },
    "render_selection/in_degree": {
        "markdown": "09acad7da94a50298b2b99e8d7d479755e4c179cd7775c07e20ab4d9371ca9ae",
        "csv": "ff21dbb52496962448dd6c0de49eea8a2c6d63f966aabe837c0175af83a4217d",
        "json": "7c3a80beb87c1ec4d5007f9f076ca540a9c70c60cbb100e560a741462e3d837e",
    },
    "render_stats": {
        "markdown": "8a9ab44446b2dc688d34515a7b6cce6be254c540bbac51f1f275414a2bc6eb3a",
        "csv": "6875f3b14a59e0c77d2e7f18ea7e413bd947242504b8c398f669369b73ea579d",
        "json": "c29b95b539d7241337fd20ff7d2ed98cf3ad534576cb1d4427aa99895cb55879",
    },
    "render_table": {
        "markdown": "4d8dd20b90c56749427dd93eba3eb7d12ef29f375133ac54a6e97c730242d0e0",
        "csv": "8244dc8d2743ee663e9902042a6297d15c80f75c92f60e6e639195f82da26383",
        "json": "345ade9064d4e42e5bf52309f1ccf6158d51f679004f4f06ae94544d412cce33",
    },
}


@pytest.mark.parametrize("fmt", render.FORMATS)
@pytest.mark.parametrize("case", sorted(_RECORDED))
def test_render_outputs_are_pinned(case, fmt):
    value = _inputs()[case]
    out = getattr(render, case.split("/")[0])(value, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == _RECORDED[case][fmt]


@pytest.mark.parametrize("case", sorted(_RECORDED))
def test_render_unknown_format(case):
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        getattr(render, case.split("/")[0])(_inputs()[case], "xml")
