"""Exact maximum general position sets via a suffix-bound search.

Conflicts are 3-uniform: a subset is in general position exactly when it
contains no geodesic triple.  Every subset of a general position set is one,
so the suffix bound of Östergård's maximum clique algorithm ("A fast
algorithm for the maximum clique problem", 2002) carries over.  With c[v] the
gp of the vertex set {v, ..., n-1}, filled for v = n-1 down to 0, a search
for a set of size c[v+1] + 1 that starts at v prunes a branch once chosen +
c[min(candidates)] or chosen + |candidates| falls short of the target.
Candidates are filtered through a per-pair conflict index held as bitmasks.

Each node also covers its candidates greedily by cliques of their pair
conflicts, in the spirit of the colouring bound of Tomita and Seki (2003):
two candidates w and x conflict when {a, w, x} is a geodesic triple for some
chosen a, so at most one member of a clique can join and a cover by fewer
cliques than the members still needed prunes the node.  The bound follows
from the definition of general position alone.  A candidate's conflict row
is the OR of its pair masks with the chosen vertices; a child's rows are its
parent's with the new vertex's masks ORed in, written only for the child's
candidates into one list per depth.

On a maximal outerplanar graph (MOP) the c loop runs along the hull cycle,
where each suffix is an arc.  A final search in ascending label order for a
set of size c[0] reports the lexicographically smallest maximum set as the
witness.  No lower bound steers the search, so the result depends on the
graph and its labels only.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

from .graph import (
    UNREACHABLE,
    Disconnected,
    Graph,
    GraphError,
    all_pairs_distances,
)
from .mop import MopCertificate, NotAnMop, check_certificate, maximal_fan, recognize
from .verify import is_gp_characterized

DEFAULT_SEARCH_CAP = 40


class SearchCapExceeded(GraphError):
    pass


@dataclass(frozen=True)
class GpResult:
    """Exact general position number with its witness.

    ``witness`` is the lexicographically smallest maximum set under the
    vertex order, and ``nodes_explored`` counts the search nodes of all
    n + 1 target searches for diagnostics.
    """

    value: int
    witness: tuple[int, ...]
    nodes_explored: int


def _pair_block_masks(dist: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    # Bit c of blocks[a][b] is set when one of a, b, c lies on a geodesic
    # between the other two.  Each triple a < b < c is tested once and
    # marked in the rows of all three of its pairs.
    blocks = [[0] * n for _ in range(n)]
    for a in range(n):
        da = dist[a]
        ba = blocks[a]
        bit_a = 1 << a
        for b in range(a + 1, n):
            db = dist[b]
            bb = blocks[b]
            dab = da[b]
            bit_b = 1 << b
            mask = 0
            for c in range(b + 1, n):
                dac, dbc = da[c], db[c]
                if dac == dab + dbc or dab == dac + dbc or dbc == dab + dac:
                    mask |= 1 << c
                    ba[c] |= bit_b
                    bb[c] |= bit_a
            ba[b] |= mask
    for a in range(n):
        ba = blocks[a]
        for b in range(a + 1, n):
            blocks[b][a] = ba[b]
    return blocks


def _search(n: int, blocks: list[list[int]], loop_blocks: list[list[int]]) -> tuple[int, tuple[int, ...], int]:
    # c[v] is the gp of the vertex set {v, ..., n-1} under the labels of
    # loop_blocks, which the c loop reads; c[n] = 0.
    table = loop_blocks
    c = [0] * (n + 1)
    c[n - 1] = 1  # one vertex is in general position
    found: tuple[int, ...] = ()
    nodes = 0
    # rows[d] holds the conflict rows of the children of a node with d
    # chosen vertices; siblings overwrite them in turn.
    rows = [[0] * n for _ in range(n)]

    def rec(chosen: list[int], cand: int, need: int, conf: list[int]) -> bool:
        # Look for need >= 1 more members that extend chosen within cand;
        # for w in cand, bit x of conf[w] is set when w and x cannot both
        # join chosen.
        nonlocal found, nodes
        nodes += 1
        if need == 1:
            # Any candidate completes the set; the loop would take the least.
            if not cand:
                return False
            found = (*chosen, (cand & -cand).bit_length() - 1)
            return True
        # Greedy cover of cand by cliques of the conflict rows: each clique
        # adds at most one member, so fewer than need cliques prune.
        rest = cand
        cliques = 0
        while rest:
            cliques += 1
            if cliques == need:
                break
            q = rest & -rest
            rest ^= q
            q = rest & conf[q.bit_length() - 1]
            while q:
                x = q & -q
                rest ^= x
                q &= conf[x.bit_length() - 1]
        else:
            return False
        child = rows[len(chosen)]
        k = cand
        # need >= 2 here, so the |k| bound below returns before k runs out.
        while True:
            v = (k & -k).bit_length() - 1
            # The rest of the set lies in k, inside {v, ..., n-1}, so it has
            # at most |k| and at most c[v] members; c is non-increasing, so
            # no later v does better.
            if c[v] < need or k.bit_count() < need:
                return False
            k &= k - 1
            sub = k & ~conf[v]
            bv = table[v]
            t = sub
            while t:
                w = (t & -t).bit_length() - 1
                child[w] = conf[w] | bv[w]
                t &= t - 1
            chosen.append(v)
            if rec(chosen, sub, need - 1, child):
                return True
            chosen.pop()

    full = (1 << n) - 1
    for v in range(n - 2, -1, -1):
        # Dropping v from a set in {v, ..., n-1} leaves one in {v+1, ...},
        # so c[v] is c[v+1] or c[v+1] + 1.  The rows of {v} are table[v].
        c[v] = c[v + 1] + rec([v], full >> (v + 1) << (v + 1), c[v + 1], table[v])
    # The last increase of c yields the maximum set whose smallest vertex is
    # largest; one ascending search finds the lexicographically smallest.
    # Under other labels than the loop's, only c[0] bounds every suffix.
    if loop_blocks is not blocks:
        table = blocks
        c = [c[0]] * n + [0]
    rec([], full, c[0], [0] * n)
    return c[0], found, nodes


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
    bound = (2 * k) // 3
    witness = tuple(sorted(picks))
    if len(witness) != bound:
        raise RuntimeError("internal: fan pattern size mismatch")
    return bound, witness


def mop_greedy_lower_bound(g: Graph, cert: MopCertificate) -> tuple[int, tuple[int, ...]]:
    """Constructive lower bound floor(2*(max_degree+1)/3).

    Walks the widest maximal fan and keeps two out of every three
    consecutive path vertices (plus the final path vertex when the fan
    order is 2 mod 3); the returned witness always verifies as a general
    position set.
    """
    check_certificate(g, cert)
    bound, witness = _fan_pattern(g)
    if not is_gp_characterized(g, all_pairs_distances(g), witness).is_gp:
        raise RuntimeError("internal: fan pattern is not in general position")
    return bound, witness


@lru_cache(maxsize=None)
def _label_cycle(n: int) -> frozenset[tuple[int, int]]:
    # A MOP has one Hamiltonian cycle, so one that holds these edges, as every
    # census graph does, is in hull order already.
    return frozenset([*zip(range(n), range(1, n)), (0, n - 1)])


def gp_number(g: Graph, cert: MopCertificate | None = None, *, force: bool = False) -> GpResult:
    """Exact general position number with a deterministic witness.

    The witness is the lexicographically smallest maximum set.  A MOP's
    hull order, for the c loop, comes from a given certificate, checked
    against ``g``, or else from ``recognize``; both give one result.
    """
    n = g.order
    if n > DEFAULT_SEARCH_CAP and not force:
        raise SearchCapExceeded(
            f"order {n} exceeds the search cap {DEFAULT_SEARCH_CAP}; "
            "pass force=True (gpmop gp --force) to override"
        )
    dist = all_pairs_distances(g)
    if UNREACHABLE in dist[0]:
        raise Disconnected("graph is not connected")
    if cert is not None:
        check_certificate(g, cert)
    blocks = loop_blocks = _pair_block_masks(dist, n)
    if len(g.edges) == 2 * n - 3 and not g.edges >= _label_cycle(n):
        # A checked certificate names the hull; a non-MOP keeps label order.
        with suppress(NotAnMop):
            hull = (cert or recognize(g)).cycle
            loop_blocks = _pair_block_masks(tuple(tuple(dist[u][w] for w in hull) for u in hull), n)
    value, witness, nodes = _search(n, blocks, loop_blocks)
    if not is_gp_characterized(g, dist, witness).is_gp:
        raise RuntimeError("internal: search returned a set that fails verification")
    return GpResult(value, witness, nodes)
