"""Exact maximum general position sets via depth-first branch and bound.

Conflicts are 3-uniform: a subset is in general position exactly when it
contains no geodesic triple.  The solver walks vertices in ascending order,
filters candidates through a per-pair conflict index held as bitmasks, and
prunes a branch once chosen + remaining can no longer beat the incumbent
size.  Because subsets are visited in lexicographic order and the incumbent
only seeds the bound, the reported witness is always the lexicographically
smallest maximum set, independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import (
    Disconnected,
    Graph,
    GraphError,
    all_pairs_distances,
)
from .mop import MopCertificate, check_certificate, maximal_fan
from .verify import is_gp_characterized

DEFAULT_SEARCH_CAP = 40
GREEDY_PASSES = 32


class SearchCapExceeded(GraphError):
    pass


@dataclass(frozen=True)
class GpResult:
    """Exact general position number with its witness.

    ``witness`` is the lexicographically smallest maximum set under the
    vertex order, and ``nodes_explored`` counts branch-and-bound nodes for
    diagnostics.
    """

    value: int
    witness: tuple[int, ...]
    nodes_explored: int


def _pair_block_masks(dist: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    # Bit c of blocks[a][b] is set when one of a, b, c lies on a geodesic
    # between the other two.
    blocks = [[0] * n for _ in range(n)]
    for a in range(n):
        da = dist[a]
        ba = blocks[a]
        for b in range(a + 1, n):
            db = dist[b]
            dab = da[b]
            mask = 0
            for c in range(n):
                if c == a or c == b:
                    continue
                dac, dbc = da[c], db[c]
                if dac == dab + dbc or dab == dac + dbc or dbc == dab + dac:
                    mask |= 1 << c
            ba[b] = mask
            blocks[b][a] = mask
    return blocks


def _greedy_bound(n: int, blocks: list[list[int]], rng: random.Random) -> int:
    """Best of several randomized greedy passes; only used to seed pruning."""
    best = 0
    order = list(range(n))
    for _ in range(GREEDY_PASSES):
        rng.shuffle(order)
        blocked = 0
        members: list[int] = []
        for v in order:
            if (blocked >> v) & 1:
                continue
            bv = blocks[v]
            gained = 0
            for a in members:
                gained |= bv[a]
            members.append(v)
            blocked |= gained
        if len(members) > best:
            best = len(members)
    return best


def _search(n: int, blocks: list[list[int]], threshold: int) -> tuple[int, tuple[int, ...], int]:
    best: tuple[int, ...] | None = None
    best_size = threshold
    nodes = 0

    def rec(chosen: list[int], cand: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = tuple(chosen)
        k = cand
        depth = len(chosen)
        while k:
            if depth + k.bit_count() <= best_size:
                return
            v = (k & -k).bit_length() - 1
            k &= k - 1
            bv = blocks[v]
            blocked = 0
            for a in chosen:
                blocked |= bv[a]
            chosen.append(v)
            rec(chosen, k & ~blocked)
            chosen.pop()

    rec([], (1 << n) - 1)
    if best is None:
        raise RuntimeError("internal: search threshold exceeded the true maximum")
    return best_size, best, nodes


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
    dm = all_pairs_distances(g)
    chk = is_gp_characterized(g, dm, witness)
    if not chk.is_gp:
        raise RuntimeError("internal: fan pattern is not in general position")
    return bound, witness


def gp_number(
    g: Graph,
    cert: MopCertificate | None = None,
    *,
    seed: int = 0,
    max_order: int = DEFAULT_SEARCH_CAP,
    force: bool = False,
) -> GpResult:
    """Exact general position number with a deterministic witness.

    A valid certificate seeds the search with the constructive fan bound;
    otherwise randomized greedy passes do.  Either way the incumbent only
    tightens pruning, so the result and witness never depend on the seed.
    """
    n = g.order
    if n > max_order and not force:
        raise SearchCapExceeded(
            f"order {n} exceeds the search cap {max_order}; pass force=True to override"
        )
    dm = all_pairs_distances(g)
    if not dm.connected:
        raise Disconnected("graph is not connected")
    if n <= 2:
        return GpResult(n, tuple(range(n)), 1)
    blocks = _pair_block_masks(dm.dist, n)
    if cert is not None:
        check_certificate(g, cert)
        # An overstated seed leaves _search with nothing above the
        # threshold, and it raises, so the seed needs no check of its own.
        threshold = _fan_pattern(g)[0] - 1
    else:
        threshold = _greedy_bound(n, blocks, random.Random(seed)) - 1
    value, witness, nodes = _search(n, blocks, threshold)
    if not is_gp_characterized(g, dm, witness).is_gp:
        raise RuntimeError("internal: search returned a set that fails verification")
    return GpResult(value, witness, nodes)
