"""Seeded input generators.

Each generator draws from a ``random.Random`` it is handed, so a workload
seed fixes every input.  Both return the edge list the benchmark keeps for
its own oracle; the program sees only the text made by ``format_edge_list``.
"""

from __future__ import annotations

import random


def random_mop_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A triangulated n-gon: split every sub-polygon at a random apex, then
    relabel the vertices by a random permutation so that ``recognize`` has to
    find the hull cycle itself."""
    chords = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        apex = rng.randrange(lo + 1, hi)
        if apex - lo >= 2:
            chords.append((lo, apex))
        if hi - apex >= 2:
            chords.append((apex, hi))
        stack.append((lo, apex))
        stack.append((apex, hi))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(i, (i + 1) % n) for i in range(n)] + chords
    return [(perm[a], perm[b]) for a, b in edges]


def random_connected_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random spanning tree (each vertex, in random order, attaches to an
    earlier one) plus every other pair independently with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def edge_list_text(gpmop, n: int, edges: list[tuple[int, int]]) -> str:
    return gpmop.format_edge_list(gpmop.build_graph(n, edges))
