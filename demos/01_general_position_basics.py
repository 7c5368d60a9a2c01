"""Walk through the core objects: graphs, distances, geodesic intervals,
and the two independent general-position tests.

Run:  python3 demos/01_general_position_basics.py
"""

from gpmop import (
    all_pairs_distances,
    build_graph,
    fan,
    interval,
    is_gp_characterized,
    is_gp_naive,
    lies_on_geodesic,
)

# A 5-cycle: the interval between vertices two steps apart is the unique
# shortest path connecting them.
c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
dist = all_pairs_distances(c5)
print("distances from 0 on C5:", list(dist[0]))
print("interval(0, 2) on C5:  ", sorted(interval(c5, dist, 0, 2)))
print("1 between 0 and 2?     ", lies_on_geodesic(dist, 0, 1, 2))

# A fan: one center joined to every vertex of a path.  Taking two out of
# every three consecutive path vertices gives a large general position set.
inst = fan(9)
g, roles = inst.graph, inst.role_map
dist = all_pairs_distances(g)
picks = [roles[f"p{i}"] for i in (1, 2, 4, 5, 7, 8)]
print("\nfan(9) picks:", picks)

naive = is_gp_naive(g, dist, picks)
characterized = is_gp_characterized(g, dist, picks)
print("definitional test:      ", naive.is_gp)
print("clique-partition test:  ", characterized.is_gp)
print("blocks:                 ", characterized.clique_partition)

# Adding any third consecutive path vertex breaks the property, and the
# failing triple is reported with its middle vertex second.
spoiled = picks + [roles["p3"]]
chk = is_gp_naive(g, dist, spoiled)
print("\nwith p3 added:", chk.is_gp, "violating triple:", chk.witness_violation)
