"""
Picking change agents: greedy coverage versus centrality prefixes
=================================================================

"""

from netcover import (
    DirectedGraph,
    centrality_rank,
    centrality_rank_select,
    gen_preferential,
    greedy_select,
    node_coverage,
    set_coverage,
)

# a node covers itself plus everyone who names it
g = DirectedGraph.from_edges(
    [("a", "h1"), ("b", "h1"), ("b", "h2"), ("c", "h2")], nodes=["z"]
)
print("coverage of h1:", sorted(node_coverage(g, "h1")))
cov = set_coverage(g, {"h1", "h2"})
print("coverage of {h1,h2}:", sorted(cov.covered), cov.fraction)

# greedy picks the best marginal contributor each round; a heap of stale
# gains (upper bounds, since gains only shrink) spares most re-evaluations,
# and the result equals exhaustive greedy
res = greedy_select(g, target_coverage=0.8)
print("greedy picks:", res.picks, "cumulative:", res.cumulative)

# the same budget spent on an in-degree prefix can cover less: overlapping
# in-neighborhoods pay twice for the same people
big = gen_preferential(100, 4, seed=9)
# (each selector returns its whole curve; truncated cuts it at a budget)
greedy = greedy_select(big, 1.0)
by_rank = centrality_rank_select(big, centrality_rank(big, "in_degree"))
for k in (1, 3, 5, 10):
    print(
        f"k={k:2d}  greedy={greedy.truncated(k).cumulative[-1]:.2f}"
        f"  in_degree={by_rank.truncated(k).cumulative[-1]:.2f}"
    )
