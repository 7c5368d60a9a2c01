"""Generate the named families and confirm their predicted values against
the exact solver, along with the constructive degree bound.

Run:  python3 demos/03_families_and_bounds.py
"""

from gpmop import (
    double_fan,
    fan,
    generalized_sunflower,
    gp_number,
    mop_greedy_lower_bound,
    quasi_fan,
    recognize,
    straight_linear_2tree,
)

print("family                     predicted   solved   witness")
for inst in (
    fan(9),
    fan(12),
    quasi_fan(3, 10),
    double_fan(2, 2, 10, 2),
    straight_linear_2tree(9),
    generalized_sunflower(7),
    generalized_sunflower(12),
):
    result = gp_number(inst.graph)
    print(f"{inst.label:<26} {str(inst.predicted_gp):>9}   {result.value:>6}   {result.witness}")

# The constructive bound walks the widest fan and keeps 2 of every 3
# consecutive path vertices; it is exact on fans.
for inst in (fan(11), generalized_sunflower(11)):
    g = inst.graph
    bound, witness = mop_greedy_lower_bound(g, recognize(g))
    exact = gp_number(g).value
    print(f"\n{inst.label}: max degree {g.max_degree} gives bound {bound} "
          f"(witness {witness}); exact value {exact}")
