"""Immutable simple graphs, BFS distances, and geodesic predicates.

Vertices are dense integers 0..order-1.  Distances are a tuple of BFS
rows; pairs in different components hold the UNREACHABLE sentinel, and the
order is capped at UNREACHABLE so that no real distance can equal it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

UNREACHABLE = 0xFFFF


class GraphError(Exception):
    """Base class for every error this package raises on purpose."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class VertexOutOfRange(GraphError):
    pass


class Disconnected(GraphError):
    pass


class EdgeListError(GraphError):
    """Malformed edge-list text."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; edges are normalized to (min, max) pairs.

    ``build_graph`` sorts every adjacency row, so the rows give the edges in
    sorted order, the order in which the proof of maximal outerplanarity
    reads them.  ``neighbour_masks`` holds n ints of up to n bits, O(n^2)
    bits in all, so only the witness check and the claims build them; the
    proof keeps to O(m) memory.
    """

    order: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...]
    # The ear-cut proof that g is maximal outerplanar, its certificate and
    # triangles, kept by ``mop._proof`` once it succeeds; not part of the
    # graph's value.
    _mop_proof: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit w of entry v is set when w is adjacent to v."""
        masks = [0] * self.order
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Rejects an order outside 1..UNREACHABLE before allocating anything,
    then self-loops, duplicate edges, and endpoints outside 0..order-1,
    naming the offending pair in the error.
    """
    if not 1 <= order <= UNREACHABLE:
        raise VertexOutOfRange(f"order must be in 1..{UNREACHABLE}, got {order}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self-loop ({u},{v})")
        if not (0 <= u < order and 0 <= v < order):
            raise VertexOutOfRange(f"edge ({u},{v}) has an endpoint outside 0..{order - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({u},{v})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(order, frozenset(seen), tuple(tuple(sorted(a)) for a in nbrs))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from one source; UNREACHABLE where BFS never arrives."""
    dist = [UNREACHABLE] * g.order
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """One BFS row per source: row u, entry v is the hop count d(u,v)."""
    return _source_rows(g, range(g.order))


def _source_rows(g: Graph, sources: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    # BFS rows of the given sources and () elsewhere: all of them for
    # all_pairs_distances, the given ids' for gpmop verify.
    wanted = set(sources)
    return tuple(tuple(bfs_distances(g, s)) if s in wanted else () for s in range(g.order))


def is_connected(g: Graph) -> bool:
    return UNREACHABLE not in bfs_distances(g, 0)


def _check_vertices(order: int, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not 0 <= v < order:
            raise VertexOutOfRange(f"vertex {v} outside 0..{order - 1}")


def interval(g: Graph, dist: tuple[tuple[int, ...], ...], u: int, v: int) -> frozenset[int]:
    """All vertices lying on at least one shortest u,v-path.

    A vertex w qualifies exactly when d(u,w) + d(w,v) == d(u,v).
    """
    _check_vertices(g.order, (u, v))
    du, dv = dist[u], dist[v]
    duv = du[v]
    if duv == UNREACHABLE:
        raise Disconnected(f"vertices {u} and {v} are in different components")
    return frozenset(w for w in range(g.order) if du[w] + dv[w] == duv)


def lies_on_geodesic(dist: tuple[tuple[int, ...], ...], a: int, b: int, c: int) -> bool:
    """True when b sits on some shortest a,c-path."""
    _check_vertices(len(dist), (a, b, c))
    dab, dbc, dac = dist[a][b], dist[b][c], dist[a][c]
    if UNREACHABLE in (dab, dbc, dac):
        raise Disconnected(f"vertices {a}, {b}, {c} are not pairwise connected")
    return dac == dab + dbc


def _decimal(token: str) -> int:
    # int(token) for ASCII digits with an optional leading '-', else ValueError.
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first non-comment line is the vertex count; each following line is
    "u v" with 0-based integer endpoints.  A count or endpoint is plain
    decimal: ASCII digits with an optional leading '-'.  Lines starting with
    '#' are comments and blank lines are ignored.  Duplicate or out-of-range
    entries are hard errors.
    """
    # int() also reads '_' separators, a '+' sign and non-ASCII digits; text
    # with none of them needs no check per token.
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _decimal
    order: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if order is None:
            line = raw.strip()
            try:
                order = to_int(line)
            except ValueError:
                raise EdgeListError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if order < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be >= 1, got {order}")
            continue
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        u, v = parts
        try:
            edges.append((to_int(u), to_int(v)))
        except ValueError:
            raise EdgeListError(f"line {lineno}: endpoints must be integers, got {raw.strip()!r}") from None
    if order is None:
        raise EdgeListError("no vertex count line found")
    return build_graph(order, edges)


def format_edge_list(g: Graph, header: Iterable[str] = ()) -> str:
    """Serialize a graph back to edge-list text; each line of each header
    (split as the parser splits) becomes a '#' comment."""
    lines = [f"# {line}" for h in header for line in h.splitlines() or [""]]
    lines.append(str(g.order))
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
