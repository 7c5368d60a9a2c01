"""Maximal outerplanar graph recognition, certificates, and canonical keys.

Recognition avoids generic planarity testing.  A graph is accepted exactly
when it has 2n-3 edges, the edges lying in exactly one triangle close into
a single spanning cycle, the hull, and the ear cut of the degrees minus one
along the hull, the one proof that ``recognize`` and ``check_certificate``
share, yields n-2 triangles whose sides are exactly the edges: the n-3
edges off the hull are then non-crossing chords, and the graph is
connected.  Each graph object is proved once, from its own hull: the proof
is kept on it, so a later ``recognize``, ``check_certificate`` or
``mop_stats`` compares rather than cuts again, and only a failed proof runs
the connectivity test that decides between ``Disconnected`` and the
structural rejection.  A certificate is an output: one given back is
compared with the proof, never cut along.  The package has no other
crossing test: ``hull_triangles`` along the polygon order 0..n-1 also
judges the generalized sunflower's base chords and the census's segment
claim.  ``graph_from_chords`` is the one polygon builder, ``chord_text`` the
one chord-list formatter.  Every rejection names its evidence.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .graph import (
    Disconnected,
    Graph,
    GraphError,
    _check_vertices,
    build_graph,
    is_connected,
)


class NotAnMop(GraphError):
    """Base class for recognition rejections."""


class WrongEdgeCount(NotAnMop):
    pass


class EdgeInTooManyTriangles(NotAnMop):
    pass


class HullNotHamiltonian(NotAnMop):
    pass


class StructureViolation(NotAnMop):
    """A certificate is inconsistent with its graph."""


@dataclass(frozen=True)
class MopCertificate:
    """Hamiltonian cycle plus the non-crossing chord set of a triangulation.

    The cycle starts at vertex 0 and its second entry is the smaller of the
    two cycle neighbors of 0, so equal graphs yield equal certificates.
    """

    order: int
    cycle: tuple[int, ...]
    chords: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class MopStats:
    internal_triangles: int
    two_vertices: int
    max_degree: int
    striped: bool


def _walk(adj, start: int, behind: int | None) -> list[int]:
    """Follow adj from start, not back to behind, until the walk ends or
    would return to start, which is certain when every degree is at most 2."""
    walk = [start]
    prev, cur = behind, start
    while True:
        for ahead in adj[cur]:
            if ahead != prev:
                break
        else:
            return walk
        if ahead == start:
            return walk
        prev, cur = cur, ahead
        walk.append(cur)


def recognize(g: Graph) -> MopCertificate:
    """Accept a maximal outerplanar graph, returning its certificate.

    Raises Disconnected for graphs that are not connected, before any
    structural error; else WrongEdgeCount, EdgeInTooManyTriangles or
    HullNotHamiltonian with the offending evidence, and StructureViolation
    should the ear cut along the hull fail.  The proof is kept on g, so a
    second call on the same object, or a ``check_certificate`` of the
    certificate, cuts nothing.
    """
    return _proof(g)[0]


def check_certificate(g: Graph, cert: MopCertificate) -> list[tuple[int, int, int]]:
    """Return the triangles of g's own proof, raising StructureViolation
    unless cert equals recognize(g), in time linear in the order.

    A certificate carries nothing that g lacks, since a MOP has one
    Hamiltonian cycle, its hull: g is proved from the hull found from g, as
    ``recognize`` proves it, and cert is compared with that proof, never
    cut along.  A graph that is no MOP raises recognize's own error.  The
    list returned is a fresh copy.
    """
    proved, triangles = _proof(g)
    if cert != proved:
        raise StructureViolation("certificate does not match the hull and chord set of g")
    return list(triangles)


def _proof(g: Graph) -> tuple[MopCertificate, tuple[tuple[int, int, int], ...]]:
    # The one proof of maximal outerplanarity: ``hull_triangles`` along the
    # normalized hull found from g's triangles, and the certificate on it,
    # the sides (a, b) of all but the root its chords.  It is kept on g, and
    # it implies that g is connected, so the BFS runs only when it fails.
    kept = g._mop_proof
    if kept is not None:
        return kept
    try:
        cycle = _hull(g)
        triangles = hull_triangles(g, cycle)
    except NotAnMop:
        _require_connected(g)
        raise
    sides = ((cycle[a], cycle[b]) for a, _, b in triangles[:-1])
    chords = frozenset((u, v) if u < v else (v, u) for u, v in sides)
    proof = MopCertificate(g.order, tuple(cycle), chords), tuple(triangles)
    object.__setattr__(g, "_mop_proof", proof)
    return proof


def _hull(g: Graph) -> list[int]:
    # The normalized cycle of the edges in exactly one triangle, checked to
    # span g, after the order, the edge count and the triangles per edge,
    # counted in two sets of g's rows: O(m) memory, where neighbour masks
    # take O(n^2) bits.  The sorted rows give the edges in sorted order.
    n = g.order
    if n < 3:
        raise WrongEdgeCount(f"order {n} is below the minimum of 3")
    expected = 2 * n - 3
    if len(g.edges) != expected:
        raise WrongEdgeCount(f"expected {expected} edges for order {n}, found {len(g.edges)}")
    adj_sets = [set(a) for a in g.adjacency]
    hull_adj: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(g.adjacency):
        su = adj_sets[u]
        for v in row:
            if v > u:
                t = len(su & adj_sets[v])
                if t > 2:
                    raise EdgeInTooManyTriangles(f"edge ({u},{v}) lies in {t} triangles")
                if t == 1:
                    hull_adj[u].append(v)
                    hull_adj[v].append(u)
    bad = [v for v in range(n) if len(hull_adj[v]) != 2]
    if bad:
        raise HullNotHamiltonian(
            f"single-triangle edges give vertex {bad[0]} hull degree {len(hull_adj[bad[0]])}"
        )
    # Leaving 0 towards its smaller neighbor gives the normalized cycle.
    cycle = _walk(hull_adj, 0, max(hull_adj[0]))
    if len(cycle) < n:
        raise HullNotHamiltonian("single-triangle edges split into more than one cycle")
    return cycle


def _require_connected(g: Graph) -> None:
    # Disconnected unless g is connected, by one BFS from vertex 0.
    if not is_connected(g):
        raise Disconnected("graph is not connected") from None


def ear_cut(q) -> list[tuple[int, int, int]]:
    """The triangles (a, c, b), a < c < b, of the triangulated polygon 0..n-1
    whose quiddity sequence is q, the number of triangles at each position:
    each after the triangles on (a, c) and (c, b), the root on (0, n-1) last.

    One pass over the positions keeps on a stack those before the next
    position b that no cut has removed; with b..n-1 they bound the polygon
    left to cut.  A stack top c left in one triangle is an ear tip between
    the position below it, a, and b, so (a, c, b) is cut off, and a and b
    each lose a triangle.  For a quiddity sequence the counts are those of
    the polygon left, in which every position on the stack below the top
    lies in two triangles or more; as a triangulated polygon has two ear
    tips that are not neighbours, or three, the pass makes all n-2 cuts.
    Whatever q is, the cut triangles tile part of the polygon, and when
    there are n-2 of them every position but 0 and n-1 lies in q of them.
    Along a graph's hull, of its degrees minus one, the cut is the one proof
    that the graph is maximal outerplanar (``hull_triangles``).
    """
    counts, stack, triangles = list(q), [0], []
    for b in range(1, len(counts)):
        while len(stack) > 1 and counts[stack[-1]] == 1:
            c = stack.pop()
            a = stack[-1]
            triangles.append((a, c, b))
            counts[a] -= 1
            counts[b] -= 1
        stack.append(b)
    return triangles


def hull_triangles(g: Graph, cycle) -> list[tuple[int, int, int]]:
    """The n-2 triangles of g as hull positions (a, c, b), a < c < b, along
    cycle: the ``ear_cut`` of the degrees minus one along cycle.  cycle must
    be a permutation of g's vertices, which is not checked: the hull that
    ``_hull`` found from g, or the polygon order ``range(n)``.

    Raises StructureViolation unless the cut yields n-2 triangles whose
    sides, the hull edges and the (a, b) of every triangle but the root, are
    exactly the edges of g.  n-2 cut triangles always triangulate the
    polygon on cycle, so the sides equal the edges exactly when g is that
    MOP; and a MOP with hull cycle has its degrees minus one as quiddity
    sequence, so its cut yields n-2 triangles.  The 2n-3 sides of a
    triangulation are distinct pairs of positions, and so of vertices, as
    cycle is a permutation: they equal the edges when g has 2n-3 edges and
    each side is looked up among them.  Only a failure builds the set of
    sides, to name the least pair in it or in the edges but not in both.
    """
    n = g.order
    triangles = ear_cut([len(g.adjacency[v]) - 1 for v in cycle])
    if len(triangles) != n - 2:
        raise StructureViolation(f"expected {n - 2} inner faces, found {len(triangles)} along the cycle")
    edges = g.edges
    ends = [(cycle[p - 1], cycle[p]) for p in range(n)] + [(cycle[a], cycle[b]) for a, _, b in triangles[:-1]]
    if len(edges) == 2 * n - 3 and all(((u, v) if u < v else (v, u)) in edges for u, v in ends):
        return triangles
    sides = {(u, v) if u < v else (v, u) for u, v in ends}
    u, v = min(edges ^ sides)
    if (u, v) in edges:
        raise StructureViolation(f"edge ({u},{v}) is no side of the triangles along the cycle")
    raise StructureViolation(f"side ({u},{v}) of the triangles along the cycle is no edge")


def graph_from_chords(n: int, chords) -> Graph:
    """The polygon 0..n-1 with chords; ``build_graph`` names a bad chord."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend(chords)
    return build_graph(n, edges)


def chord_text(chords) -> str:
    """The chords (a, b) as ``a-b;c-d;...``, the form of the census CSV and the claim entries."""
    return ";".join(f"{a}-{b}" for a, b in chords)


def _stats(n: int, triangles, degrees) -> MopStats:
    # A triangle (a, c, b) of hull positions, a < c < b, is internal when no
    # side is a hull edge: c - a > 1, b - c > 1 and (a, b) is not (0, n-1).
    internal = sum(c - a > 1 and b - c > 1 and b - a < n - 1 for a, c, b in triangles)
    return MopStats(internal, degrees.count(2), max(degrees), internal == 0)


def mop_stats(g: Graph, cert: MopCertificate) -> MopStats:
    """Count the internal faces and gather the degree statistics the census
    consumes.

    Every triangle of a maximal outerplanar graph is an inner face, so the
    face list is the ear cut of g's own proof along its hull, which
    ``check_certificate`` returns once it has compared cert with that proof;
    a face is internal when none of its sides lies on the hull cycle.  A
    graph that is no MOP raises recognize's own error.
    """
    return _stats(g.order, check_certificate(g, cert), list(map(len, g.adjacency)))


def maximal_fan(g: Graph, v: int) -> tuple[int, ...]:
    """Order N(v) into the path of the largest fan centered at v.

    The neighborhood of any vertex of a maximal outerplanar graph induces a
    path; the fan on the closed neighborhood spans it entirely, so it
    cannot be enlarged.  It reads only g.  Raises StructureViolation when
    the neighborhood is not a path, which shows that g is not maximal
    outerplanar.
    """
    _check_vertices(g.order, (v,))
    nbrs = g.adjacency[v]
    ns = set(nbrs)
    inside = {u: [w for w in g.adjacency[u] if w in ns] for u in nbrs}
    ends = [u for u in nbrs if len(inside[u]) < 2]
    if ends and all(len(inside[u]) <= 2 for u in nbrs):
        path = _walk(inside, ends[0], None)
        if len(path) == len(nbrs):
            return tuple(path)
    raise StructureViolation(f"neighborhood of {v} does not induce a path")


def dihedral_images(n: int, chords, anchors=None):
    """Yield (image, m) for each dihedral relabelling m of the polygon
    0..n-1 that sends an anchor to 1: m[p] = p - t + 1 and m[p] = t + 1 - p
    (mod n) for each anchor t, so all 2n relabellings when anchors is None.

    The image is the chord set under m, as the sorted tuple of the codes
    a * n + b of its chords (a, b), a < b, so images order as their sorted
    chord lists do.
    """
    for t in range(n) if anchors is None else anchors:
        for flip in (1, -1):
            m = [(flip * (p - t) + 1) % n for p in range(n)]
            yield tuple(sorted(m[a] * n + m[b] if m[a] < m[b] else m[b] * n + m[a] for a, b in chords)), m


def image_key(n: int, image: tuple[int, ...]) -> bytes:
    """Pack each chord (a, b) of an image as big-endian unsigned shorts."""
    return b"".join(struct.pack(">HH", *divmod(c, n)) for c in image)


def canonical_form(cert: MopCertificate) -> bytes:
    """Canonical key: chord positions minimized over all 2n dihedral relabelings.

    Isomorphisms of maximal outerplanar graphs must map the unique
    Hamiltonian cycle onto itself, so two certificates describe isomorphic
    graphs exactly when their keys match (at equal order).
    """
    n = cert.order
    pos = {v: i for i, v in enumerate(cert.cycle)}
    return image_key(n, min(image for image, _ in dihedral_images(n, [(pos[u], pos[v]) for u, v in cert.chords])))


def certificate_to_text(cert: MopCertificate) -> str:
    cycle_line = "cycle: " + " ".join(str(v) for v in cert.cycle)
    chord_line = "chords: " + " ".join(f"({a},{b})" for a, b in sorted(cert.chords))
    return cycle_line + "\n" + chord_line.rstrip() + "\n"
