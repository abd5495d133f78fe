"""
Four centrality baselines and their deterministic ranks
=======================================================

"""

from netcover import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    gen_preferential,
    to_rank,
)

# a small heavy-tailed graph: later arrivals point at popular early nodes
g = gen_preferential(12, 2, seed=5)
print("edges:", g.edges)

# in-degree counts the members naming each node; scores are a read-only
# array by node position (g.nodes is sorted), and the label dict and the
# rank's labels are built from it
ind = degree_centrality(g)
print("in_degree top:", to_rank(ind).order[:5])
print("in-degree values:", ind.values[:4], "scores:", list(ind.scores.items())[:2])

# betweenness counts interior positions on shortest directed paths
bt = betweenness_centrality(g)
print("betweenness top:", to_rank(bt).order[:5])

# closeness averages outgoing distances, scaled by how much is reachable
cl = closeness_centrality(g)
print("closeness top:", to_rank(cl).order[:5])

# eigenvector weighs a node by the scores of those naming it; on an acyclic
# graph the power iteration would collapse, so it falls back to in-degree
# and says so
ev = eigenvector_centrality(g)
print("eigenvector top:", to_rank(ev).order[:5])
print("eigenvector warning:", ev.warning)

# ranks break score ties lexicographically, so reruns never reshuffle
assert to_rank(bt).order == to_rank(betweenness_centrality(g)).order
