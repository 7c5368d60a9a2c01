"""Three general-position tests: two independent ones that must agree, and
the one that the solver and the census call.

``is_gp_naive`` applies the definition: no member may lie on a geodesic
between two other members.  ``is_gp_characterized`` decides through the
clique-partition route: the components induced by the set must be complete
subgraphs whose blocks are pairwise distance-constant, with no block
sitting metrically between two others.  The naive form serves as the test
oracle for the characterized one.  Both read only the members' BFS rows
and share nothing but ``_prepare``'s input checks; only ``gpmop verify``
and the tests call them.

``is_gp_levels`` applies the definition with no distance table: one walk
down the BFS levels of each member, as bitmasks, marks every vertex that
lies beyond another member on a geodesic from it.  It takes O(kn)
big-integer operations for k members and holds a few n-bit masks at a
time, so it serves orders at which a row per member would not fit.  It
checks every solver witness, the degree claim's fan pattern and
``mop_greedy_lower_bound``'s.
``is_gp_naive`` is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import UNREACHABLE, Disconnected, Graph, _check_vertices


@dataclass(frozen=True)
class GpSetCheck:
    """Outcome of a general-position test.

    ``witness_violation`` comes only from the naive test: the
    lexicographically smallest ordered triple (a, b, c) with b on an
    a,c-geodesic, present exactly when the set fails.
    ``clique_partition`` comes only from a passing clique-partition test:
    the blocks of the induced subgraph, sorted.
    """

    members: tuple[int, ...]
    is_gp: bool
    witness_violation: tuple[int, int, int] | None
    clique_partition: tuple[tuple[int, ...], ...] | None


def _prepare(g: Graph, dist: tuple[tuple[int, ...], ...], s: Iterable[int]) -> tuple[int, ...]:
    members = tuple(sorted(set(s)))
    _check_vertices(g.order, members)
    # Any BFS row of a disconnected graph holds UNREACHABLE; read the first one given.
    if UNREACHABLE in next(filter(None, dist), ()):
        raise Disconnected("general position tests require a connected graph")
    return members


def _first_violation(
    d: tuple[tuple[int, ...], ...], members: tuple[int, ...]
) -> tuple[int, int, int] | None:
    # Ordered scan keeps the reported triple lexicographically smallest,
    # with the middle vertex second.
    for a in members:
        for b in members:
            if b == a:
                continue
            for c in members:
                if c == a or c == b:
                    continue
                if d[a][c] == d[a][b] + d[b][c]:
                    return (a, b, c)
    return None


def is_gp_naive(g: Graph, dist: tuple[tuple[int, ...], ...], s: Iterable[int]) -> GpSetCheck:
    """Definitional test over every ordered triple of distinct members."""
    members = _prepare(g, dist, s)
    violation = _first_violation(dist, members)
    return GpSetCheck(members, violation is None, violation, None)


def is_gp_levels(g: Graph, s: Iterable[int]) -> bool:
    """Definitional test that reads no distances.

    Walking the BFS levels of a member a, a vertex is marked when a
    neighbour one level up is a member other than a or is marked, so c is
    marked exactly when some member b other than a and c has d(a, c) =
    d(a, b) + d(b, c).  Each triple is sought from its smaller endpoint, so
    the set fails once a mark meets a member above a, the last member walks
    nowhere, and a walk stops once it has seen every member above a.  A walk
    reads each vertex's neighbour mask at most once.  The first walk runs to
    the end and raises ``Disconnected`` if it misses a vertex; the empty set
    walks from vertex 0 for that.
    """
    members = tuple(sorted(set(s)))
    _check_vertices(g.order, members)
    nbr = g.neighbour_masks
    want = sum(1 << v for v in members)
    for i, a in enumerate(members[:-1] or members or (0,)):
        others = want & ~(1 << a)
        later = want >> a + 1 << a + 1
        seen = level = 1 << a
        bad = carry = 0
        while level:
            # carry holds the level's marks and members other than a: their
            # neighbours make near, and the rest of the level adds to reach.
            rest = level ^ carry
            near = 0
            while carry:
                # Clearing the top bit first keeps the int shrinking.
                v = carry.bit_length() - 1
                near |= nbr[v]
                carry ^= 1 << v
            reach = near
            while rest:
                v = rest.bit_length() - 1
                reach |= nbr[v]
                rest ^= 1 << v
            level = reach & ~seen
            marks = level & near
            bad |= marks & later
            carry = marks | level & others
            seen |= level
            if i and (bad or not later & ~seen):
                break
        if not i and seen != (1 << g.order) - 1:
            raise Disconnected("general position tests require a connected graph")
        if bad:
            return False
    return True


def _clique_partition(
    dist: tuple[tuple[int, ...], ...], members: tuple[int, ...]
) -> tuple[tuple[int, ...], ...] | None:
    # (a) each member's block is its closed neighbourhood in the set.  The
    # induced components are all complete exactly when every member has
    # the same block as each of its neighbours, and then the blocks are the
    # components.
    nbhd = {a: tuple(b for b in members if dist[a][b] <= 1) for a in members}
    if any(nbhd[b] != block for block in nbhd.values() for b in block):
        return None
    blocks = tuple(sorted(set(nbhd.values())))
    # (b) every pair of blocks is distance-constant.
    k = len(blocks)
    block_dist = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            val = dist[blocks[i][0]][blocks[j][0]]
            for a in blocks[i]:
                for b in blocks[j]:
                    if dist[a][b] != val:
                        return None
            block_dist[i][j] = block_dist[j][i] = val
    # (c) no block j lies metrically between blocks i and m.
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            for m in range(i + 1, k):
                if m != j and block_dist[i][m] == block_dist[i][j] + block_dist[j][m]:
                    return None
    return blocks


def is_gp_characterized(
    g: Graph, dist: tuple[tuple[int, ...], ...], s: Iterable[int]
) -> GpSetCheck:
    """Clique-partition test.

    Passes exactly when (a) every component of the induced subgraph is
    complete, (b) the blocks are pairwise distance-constant, and (c) no
    block distance equals the sum of the distances through a third block.
    It reads only the members' rows, names no violating triple, and on a
    pass returns the blocks as ``clique_partition``.
    """
    members = _prepare(g, dist, s)
    blocks = _clique_partition(dist, members)
    return GpSetCheck(members, blocks is not None, None, blocks)
