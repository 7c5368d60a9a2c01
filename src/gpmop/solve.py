"""Exact maximum general position sets: a dual-tree dynamic program for
maximal outerplanar graphs, and a suffix-bound search for every other graph.

A maximal outerplanar graph (MOP) goes through ``_mop_verified`` to
``dual.mop_gp_lanes``, which takes its triangles as hull positions and needs
no distances.  ``mop.ear_cut`` finds them, for ``gp_number`` in the one proof
of maximal outerplanarity, the cut of the degrees minus one along the hull,
and for the census from a class's quiddity sequence.  Every other graph
goes to a branch and bound over its conflicts, which are 3-uniform: a subset
is in general position exactly when it contains no geodesic triple.  Every
subset of a general position set is one, so the suffix bound of Östergård's
maximum clique algorithm ("A fast algorithm for the maximum clique problem",
2002) carries over.  With c[v] the gp of the vertex set {v, ..., n-1}, filled for
v = n-1 down to 0, a search for a set of size c[v+1] + 1 that starts at v
prunes a branch once chosen + c[min(candidates)] falls short of the target.
Candidates are filtered through a per-pair conflict index of bitmasks,
built from each vertex's level walk; the search reads no distance table.

The search runs on the mirrored graph, which names vertex v by n-1-v: bit p
of every mask, and row p of the index, which holds only the positions below
p, stand for vertex n-1-p.  Branching in ascending label order then reads
the top bit by ``int.bit_length()`` and clears it by one XOR, with no
``x & -x``, a negated copy of the whole mask, per step.

Each node also covers its candidates greedily by cliques of their pair
conflicts, in the spirit of the colouring bound of Tomita and Seki (2003):
two candidates w and x conflict when {a, w, x} is a geodesic triple for some
chosen a, so at most one member of a clique can join.  Only the cover reads
bits by ``x & -x``: each clique starts at the lowest position left, the
largest label, and absorbs the lowest first, so a clique meets the
positions {0, ..., p} only if it starts there.  Fewer cliques than the
members still needed prune the node, and its branching returns once p falls
below the start of the need-th clique, since fewer than need cliques then
reach what is left; this implies the bound of |candidates| against need.
Both follow from the definition of general position alone.  A node's
conflict rows are its parent's with the new vertex's masks ORed in; the
cover forms each row as it reads it, and only a node that survives its
cover builds its rows, one list in one pass, before it branches.

A final search in ascending label order for a set of size c[0] reports the
lexicographically smallest maximum set as the witness, which the dynamic
program yields through its weights.  No lower bound steers either route, so
the result depends on the graph and its labels only, and every witness is
checked by ``verify.is_gp_levels``, which walks BFS levels of its own,
before it is returned.  That check, not the dual tree, bounds the order a
MOP solve can serve, hence ``MOP_SEARCH_CAP``; the search keeps
``DEFAULT_SEARCH_CAP``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from operator import or_
from typing import Sequence

from .dual import mop_gp_lanes
from .graph import Graph, GraphError, _bfs_levels
from .mop import MopCertificate, NotAnMop, _proof, _require_connected, check_certificate, maximal_fan
from .verify import is_gp_levels

DEFAULT_SEARCH_CAP = 40
# A random 2000-gon takes about 0.35 s of process time on a 2-core x86
# machine, nearly all of it the witness check.
MOP_SEARCH_CAP = 2000


class SearchCapExceeded(GraphError):
    pass


@dataclass(frozen=True)
class GpResult:
    """Exact general position number with its witness.

    ``witness`` is the lexicographically smallest maximum set under the
    vertex order.  ``nodes_explored`` is for diagnostics: on a maximal
    outerplanar graph it counts the pairs of child slots that the joins of
    the dual-tree program merge, and on any other graph the search nodes of
    all n + 1 target searches.
    """

    value: int
    witness: tuple[int, ...]
    nodes_explored: int


def _pair_block_masks(g: Graph) -> list[list[int]]:
    # The mirrored graph's masks: for positions a < b, bit c of blocks[b][a]
    # is set when one of a, b, c lies on a geodesic between the other two.
    # With lev[a][k] the positions at distance k from a and d the level of
    # b's walk that holds a, c lies between a and b when it is in
    # lev[a][k] & lev[b][d - k] for some 0 < k < d, and b between a and c
    # when it is in lev[a][d + k] & lev[b][k] for some k > 0; a between b and
    # c likewise.  g is connected, and ecc(a) <= d + ecc(b), so every k with
    # d + k a level of a is one of b.  Counted loops beat range objects here.
    n = g.order
    nbr = [sum(1 << n - 1 - w for w in g.adjacency[n - 1 - p]) for p in range(n)]
    levels = [list(_bfs_levels(nbr, p)) for p in range(n)]
    blocks = []
    for b, lb in enumerate(levels):
        eb = len(lb) - 1
        below = (1 << b) - 1
        row = [0] * b
        for d in range(1, eb + 1):
            t = lb[d] & below
            while t:
                a = t.bit_length() - 1
                t ^= 1 << a
                la = levels[a]
                mask = 0
                k = d - 1
                while k > 0:
                    mask |= la[k] & lb[d - k]
                    k -= 1
                k = len(la) - 1 - d
                while k > 0:
                    mask |= la[d + k] & lb[k]
                    k -= 1
                k = eb - d
                while k > 0:
                    mask |= lb[d + k] & la[k]
                    k -= 1
                row[a] = mask
        blocks.append(row)
    return blocks


def _search(n: int, blocks: list[list[int]]) -> tuple[int, tuple[int, ...], int]:
    # blocks are the mirrored graph's masks: row p and bit p stand for vertex
    # n-1-p, and chosen holds positions.  c[p] is the gp of the positions
    # {0, ..., p}, the vertices {n-1-p, ..., n-1}.
    c = [0] * n
    c[0] = 1  # one vertex is in general position
    found: tuple[int, ...] = ()
    nodes = 0
    zero = [0] * n
    top = n - 1

    def rec(chosen: list[int], cand: int, need: int, pconf: list[int], bv: list[int]) -> bool:
        # Look for need >= 1 more members that extend chosen within cand;
        # for p in cand, bit x of pconf[p] | bv[p] is set when p and x cannot
        # both join chosen: pconf holds the parent's rows and bv the masks of
        # the last chosen position.
        nonlocal found, nodes
        nodes += 1
        if need == 1:
            # Any candidate completes the set; the loop would take the top bit.
            if not cand:
                return False
            found = (*[top - p for p in chosen], n - cand.bit_length())
            return True
        # Greedy cover of cand by cliques of the conflict rows, lowest
        # position first: fewer than need cliques prune, and s is where the
        # need-th clique starts.
        rest = cand
        cliques = 1
        while rest:
            bit = rest & -rest
            if cliques == need:
                s = bit.bit_length() - 1
                break
            cliques += 1
            rest ^= bit
            i = bit.bit_length() - 1
            q = rest & (pconf[i] | bv[i])
            while q:
                bit = q & -q
                rest ^= bit
                i = bit.bit_length() - 1
                q &= pconf[i] | bv[i]
        else:
            return False
        # The cover did not prune, so the node builds its rows and branches.
        conf = list(map(or_, pconf, bv))
        k = cand
        while True:
            p = k.bit_length() - 1
            # The rest of the set lies in k, inside the positions {0, ..., p},
            # so it has at most c[p] members, and once p < s fewer than need
            # cliques reach it; c is non-decreasing, and s is in cand, so this
            # returns before k runs out and no later p does better.
            if p < s or c[p] < need:
                return False
            k ^= 1 << p
            chosen.append(p)
            if rec(chosen, k & ~conf[p], need - 1, conf, blocks[p]):
                return True
            chosen.pop()

    for p in range(1, n):
        # Dropping p from a set in {0, ..., p} leaves one in {0, ..., p-1},
        # so c[p] is c[p-1] or c[p-1] + 1.  The rows of {p} are blocks[p].
        c[p] = c[p - 1] + rec([p], (1 << p) - 1, c[p - 1], zero, blocks[p])
    # The last increase of c yields the maximum set whose least label is
    # largest; one search from the top bit finds the lexicographically
    # smallest.
    rec([], (1 << n) - 1, c[top], zero, zero)
    return c[top], found, nodes


def _fan_pattern(g: Graph) -> tuple[int, tuple[int, ...]]:
    delta = g.max_degree
    center = min(v for v in range(g.order) if g.degree(v) == delta)
    path = maximal_fan(g, center)
    k = delta + 1
    j, r = divmod(k, 3)
    picks: list[int] = []
    for i in range(1, j + 1):
        picks.append(path[3 * i - 3])
        picks.append(path[3 * i - 2])
    if r == 2:
        picks.append(path[k - 2])
    # 2j picks, plus one when r == 2, are floor(2k/3) distinct path vertices.
    return (2 * k) // 3, tuple(sorted(picks))


def mop_greedy_lower_bound(g: Graph, cert: MopCertificate) -> tuple[int, tuple[int, ...]]:
    """Constructive lower bound floor(2*(max_degree+1)/3).

    Walks the widest maximal fan and keeps two out of every three consecutive
    path vertices (plus the final path vertex when the fan order is 2 mod 3).
    cert must equal ``recognize(g)``, which ``check_certificate`` compares
    with g's own proof, and the witness is checked by
    ``verify.is_gp_levels``, building no BFS row.
    An order above ``MOP_SEARCH_CAP`` raises ``SearchCapExceeded`` first.
    """
    if g.order > MOP_SEARCH_CAP:
        raise SearchCapExceeded(f"order {g.order} exceeds the MOP cap {MOP_SEARCH_CAP}")
    check_certificate(g, cert)
    bound, witness = _fan_pattern(g)
    if not is_gp_levels(g, witness):
        raise RuntimeError("internal: fan pattern is not in general position")
    return bound, witness


def _verified(g: Graph, value: int, witness: tuple[int, ...], nodes: int) -> GpResult:
    if len(witness) != value:
        raise RuntimeError(f"internal: solver returned {len(witness)} vertices for gp {value}")
    if not is_gp_levels(g, witness):
        raise RuntimeError("internal: solver returned a set that fails verification")
    return GpResult(value, witness, nodes)


def _mop_verified(
    g: Graph, triangles: Sequence[tuple[int, int, int]], labellings: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    # mop_gp_lanes on g's triangles as hull positions, labellings[i][p]
    # labelling position p in lane i and labellings[0][p] naming g's vertex
    # there: every lane must have lane 0's value, and each distinct witness
    # in g's vertices passes _verified once.  Lane 0's witness is one as it
    # stands; another lane's goes from its labels to positions to vertices.
    results, nodes = mop_gp_lanes(g.order, triangles, labellings)
    value, witness = results[0]
    ids = labellings[0]
    witnesses = {witness: None}
    for i in range(1, len(results)):
        labels, (lane_value, lane_witness) = labellings[i], results[i]
        if lane_value != value:
            raise RuntimeError(f"internal: labelling {i} has gp {lane_value}, its class {value}")
        witnesses[tuple(sorted([ids[labels.index(v)] for v in lane_witness]))] = None
    for s in witnesses:
        _verified(g, value, s, nodes)
    return results, nodes


def gp_number(g: Graph, cert: MopCertificate | None = None, *, force: bool = False) -> GpResult:
    """Exact general position number with a deterministic witness.

    The witness is the lexicographically smallest maximum set.  A MOP, known
    by a given certificate or else by ``recognize``'s proof on a graph with
    2n-3 edges, is solved over its dual tree; both give one result.  Either
    way g is proved by one ear cut along the hull found from g, kept on g,
    and the dual tree takes its triangles; a given certificate is only
    compared with that proof (``check_certificate``).  Any other graph is
    searched in label order.  Connectivity comes first, but a proof implies
    it, so one BFS runs only when there is none: after a failed proof, with
    or without a certificate, which then raises Disconnected before its own
    error, and on a graph without a certificate whose edge count rules out
    a MOP.  All these tests are linear, and only after them does the order
    meet its cap, ``MOP_SEARCH_CAP`` for a MOP and ``DEFAULT_SEARCH_CAP``
    else.
    """
    n = g.order
    if cert is not None:
        triangles = check_certificate(g, cert)
    elif len(g.edges) == 2 * n - 3:
        with suppress(NotAnMop):
            cert, triangles = _proof(g)
    else:
        _require_connected(g)
    cap = DEFAULT_SEARCH_CAP if cert is None else MOP_SEARCH_CAP
    if n > cap and not force:
        raise SearchCapExceeded(
            f"order {n} exceeds the search cap {cap}; pass force=True (gpmop gp --force) to override"
        )
    if cert is not None:
        results, nodes = _mop_verified(g, triangles, [cert.cycle])
        return GpResult(*results[0], nodes)
    return _verified(g, *_search(n, _pair_block_masks(g)))
