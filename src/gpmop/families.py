"""Deterministic generators for the named graph families.

Each constructor returns the graph together with a role map (which vertex
plays center, petal, path position, ...) and, where a closed-form value is
known, the predicted general position number.  The fan, quasi-fan, glued
fans, straight linear 2-tree and generalized sunflower are maximal
outerplanar and pass recognition; the sunflower, complete graph, path and
cycle are not, except the complete graph and cycle of order 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import UNREACHABLE, Graph, GraphError, build_graph
from .mop import MopCertificate, graph_from_chords, hull_triangles


class BadParam(GraphError):
    pass


@dataclass(frozen=True, eq=False)
class FamilyInstance:
    label: str
    graph: Graph
    predicted_gp: int | None
    role_map: Mapping[str, int]


def _check_order(family: str, n: int, least: int) -> None:
    # Checked before any edge is built, so a hostile order fails at once.
    if not least <= n <= UNREACHABLE:
        raise BadParam(f"{family} needs {least} <= n <= {UNREACHABLE}, got {n}")


def fan(n: int) -> FamilyInstance:
    """Join of one center with a path on n-1 vertices.

    Path vertices take ids 0..n-2 in order; the center is n-1.
    """
    _check_order("fan", n, 3)
    center = n - 1
    edges = [(i, i + 1) for i in range(n - 2)]
    edges += [(center, i) for i in range(n - 1)]
    roles = {"v": center} | {f"p{i + 1}": i for i in range(n - 1)}
    if n >= 5:
        predicted = (2 * n) // 3
    elif n == 3:
        predicted = 3  # a triangle, like every complete graph, attains its order
    else:
        predicted = None
    return FamilyInstance(f"fan({n})", build_graph(n, edges), predicted, roles)


def quasi_fan(i: int, n: int) -> FamilyInstance:
    """Fan of order n-1 plus one extra vertex glued onto path edge (p_i, p_i+1)."""
    _check_order("quasi-fan", n, 6)
    if not 1 <= i <= n - 3:
        raise BadParam(f"quasi-fan index must be in 1..{n - 3}, got {i}")
    center, extra = n - 2, n - 1
    edges = [(k, k + 1) for k in range(n - 3)]
    edges += [(center, k) for k in range(n - 2)]
    edges += [(extra, i - 1), (extra, i)]
    roles = {"v": center, "u": extra} | {f"p{k + 1}": k for k in range(n - 2)}
    predicted = (2 * n) // 3 if n % 3 == 1 else None
    return FamilyInstance(f"quasi_fan({i};{n})", build_graph(n, edges), predicted, roles)


def double_fan(j: int, t: int, n: int, variant: int) -> FamilyInstance:
    """Two fans glued at one vertex plus a single seam edge.

    The first fan has center v over path p_1..p_3t; the second fan's center
    u is identified with p_{3j-1} and spans path u_1..u_{n-3t-1}.  Variant 1
    adds the seam edge p_{3j-2} u_1; variant 2 adds p_{3j} u_{n-3t-1}.
    """
    _check_order("double fan", n, 6)
    if not 1 <= t <= n // 3 - 1:
        raise BadParam(f"t must be in 1..{n // 3 - 1}, got {t}")
    if not 1 <= j <= t:
        raise BadParam(f"j must be in 1..{t}, got {j}")
    if variant not in (1, 2):
        raise BadParam(f"variant must be 1 or 2, got {variant}")
    m = n - 3 * t - 1
    center = 3 * t
    glued = 3 * j - 2
    second = list(range(3 * t + 1, n))
    edges = [(k, k + 1) for k in range(3 * t - 1)]
    edges += [(center, k) for k in range(3 * t)]
    edges += [(glued, w) for w in second]
    edges += [(second[k], second[k + 1]) for k in range(m - 1)]
    if variant == 1:
        edges.append((3 * j - 3, second[0]))
    else:
        edges.append((3 * j - 1, second[-1]))
    roles = {"v": center, "u": glued}
    roles |= {f"p{k + 1}": k for k in range(3 * t)}
    roles |= {f"u{k + 1}": second[k] for k in range(m)}
    predicted = (2 * n) // 3 if n % 3 == 1 else None
    return FamilyInstance(f"g{variant}({j};{t};{n})", build_graph(n, edges), predicted, roles)


def straight_linear_2tree(n: int) -> FamilyInstance:
    """Vertices 1..n with edges exactly between indices at distance 1 or 2."""
    _check_order("straight linear 2-tree", n, 3)
    edges = [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]
    roles = {f"v{i + 1}": i for i in range(n)}
    # The unique minimum among striped triangulations from order 5 on.
    predicted = 3 if n >= 5 else None
    return FamilyInstance(f"straight_linear_2tree({n})", build_graph(n, edges), predicted, roles)


def sunflower(m: int) -> FamilyInstance:
    """Wheel with hub v and an m-cycle rim, plus one petal per rim edge.

    Order 2m+1.  Not outerplanar for m >= 3, so it never goes through
    recognition; it exists as the motivating shape for the generalized
    form below.
    """
    if m < 3 or 2 * m + 1 > UNREACHABLE:
        raise BadParam(f"sunflower needs m >= 3 and order 2m+1 <= {UNREACHABLE}, got m={m}")
    hub = 0
    rim = list(range(1, m + 1))
    petals = list(range(m + 1, 2 * m + 1))
    edges = [(hub, r) for r in rim]
    edges += [(rim[i], rim[(i + 1) % m]) for i in range(m)]
    edges += [(petals[i], rim[i]) for i in range(m)]
    edges += [(petals[i], rim[(i + 1) % m]) for i in range(m)]
    roles = {"v": hub}
    roles |= {f"v{i}": rim[i] for i in range(m)}
    roles |= {f"u{i}": petals[i] for i in range(m)}
    return FamilyInstance(f"sunflower({m})", build_graph(2 * m + 1, edges), None, roles)


def generalized_sunflower(n: int, base_chords=None) -> FamilyInstance:
    """Triangulated polygon core with a degree-2 petal on (almost) every side.

    The core has m = ceil(n/2) vertices h_0..h_{m-1}; petal v_i attaches to
    h_i and h_{i+1 mod m}.  Even orders place a petal on every side, odd
    orders leave exactly one side bare.  The core triangulation defaults to
    a fan from h_0 and may be overridden by base_chords.  The ear cut along
    0..m-1 proves the core, and BadParam names the evidence of the build or
    the cut.
    """
    _check_order("generalized sunflower", n, 5)
    m = (n + 1) // 2
    x = m if n % 2 == 0 else m - 1
    try:
        core = graph_from_chords(m, [(0, k) for k in range(2, m - 1)] if base_chords is None else base_chords)
        hull_triangles(core, range(m))
    except GraphError as exc:
        raise BadParam(f"base chords do not triangulate the {m}-gon: {exc}") from None
    edges = list(core.edges)
    petals = list(range(m, m + x))
    for i in range(x):
        edges.append((petals[i], i))
        edges.append((petals[i], (i + 1) % m))
    roles = {f"h{i}": i for i in range(m)}
    roles |= {f"v{i}": petals[i] for i in range(x)}
    # From order 8 on, gp is internal triangles + 2, that is n // 2; the
    # order-7 generalized sunflower exceeds internal triangles + 2 by one.
    if n >= 8:
        predicted = n // 2
    elif n == 7:
        predicted = 4
    else:
        predicted = None
    return FamilyInstance(f"gsf({n})", build_graph(n, edges), predicted, roles)


def complete(n: int) -> FamilyInstance:
    _check_order("complete graph", n, 1)
    # Every other family stays within 2 * UNREACHABLE edges (the largest,
    # sunflower at order 65535, has 131,068), so K_n is held to that too.
    if n * (n - 1) // 2 > 2 * UNREACHABLE:
        raise BadParam(f"complete graph of order {n} exceeds {2 * UNREACHABLE} edges")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roles = {f"v{i}": i for i in range(n)}
    return FamilyInstance(f"complete({n})", build_graph(n, edges), n, roles)


def path(n: int) -> FamilyInstance:
    _check_order("path", n, 2)
    edges = [(i, i + 1) for i in range(n - 1)]
    roles = {f"p{i + 1}": i for i in range(n)}
    # Of any three path vertices, one lies between the other two.
    return FamilyInstance(f"path({n})", build_graph(n, edges), 2, roles)


def cycle(n: int) -> FamilyInstance:
    _check_order("cycle", n, 3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    roles = {f"v{i}": i for i in range(n)}
    return FamilyInstance(f"cycle({n})", build_graph(n, edges), None, roles)


def is_generalized_sunflower(g: Graph, cert: MopCertificate | None = None) -> bool:
    """Structural petal test, independent of the core triangulation: order
    at least 5 and exactly floor(n/2) vertices of degree 2.

    ``g`` must be maximal outerplanar; ``cert``, its certificate, is
    accepted but not read.  Then
    that count is the whole definition: in a MOP of order >= 5 a degree-2
    vertex is an ear, whose two hull neighbours are adjacent, so it closes a
    triangle with them; no two ears are adjacent, since two adjacent ears
    and their common neighbour would be the whole graph; and deleting an ear
    leaves a MOP in which the other ears stay ears.  So floor(n/2) degree-2
    vertices alternate around the hull, each closing a triangle, and
    deleting them all leaves a triangulated polygon.
    """
    n = g.order
    return n >= 5 and sum(g.degree(v) == 2 for v in range(n)) == n // 2


def generators_at(n: int) -> list[tuple[str, FamilyInstance]]:
    """Every maximal outerplanar generator instance at one order, paired
    with the short label the census uses for family tagging."""
    out: list[tuple[str, FamilyInstance]] = [("fan", fan(n))]
    if n >= 6:
        for i in range(1, n - 2):
            out.append((f"quasi_fan({i})", quasi_fan(i, n)))
        for t in range(1, n // 3):
            for j in range(1, t + 1):
                for variant in (1, 2):
                    out.append((f"g{variant}({j},{t})", double_fan(j, t, n, variant)))
    out.append(("straight_linear_2tree", straight_linear_2tree(n)))
    return out
