"""Recognize maximal outerplanar graphs, read their structure, and compare
them up to isomorphism through canonical keys.

Run:  python3 demos/02_recognition_and_structure.py
"""

from gpmop import (
    build_graph,
    canonical_form,
    fan,
    generalized_sunflower,
    maximal_fan,
    mop_stats,
    recognize,
    straight_linear_2tree,
)
from gpmop.graph import GraphError

# Recognition returns the unique Hamiltonian cycle plus the chord set.
inst = generalized_sunflower(8)
cert = recognize(inst.graph)
print("gsf(8) hull cycle:", cert.cycle)
print("gsf(8) chords:    ", sorted(cert.chords))

stats = mop_stats(inst.graph, cert)
print("internal triangles:", stats.internal_triangles,
      "| 2-vertices:", stats.two_vertices, "| striped:", stats.striped)

# The closed neighborhood of any vertex spans a maximal fan.
g = straight_linear_2tree(8).graph
print("\nlinear 2-tree fan at vertex 3:", maximal_fan(g, 3))

# Rejections carry evidence: K4 has one edge too many.
k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
try:
    recognize(k4)
except GraphError as exc:
    print("\nK4 rejected:", exc)

# Canonical keys decide isomorphism: every pentagon triangulation is a fan.
print("\nfan(5) == linear 2-tree(5)?",
      canonical_form(recognize(fan(5).graph))
      == canonical_form(recognize(straight_linear_2tree(5).graph)))
print("fan(6) key:", canonical_form(recognize(fan(6).graph)).hex())
print("slt(6) key:", canonical_form(recognize(straight_linear_2tree(6).graph)).hex())
