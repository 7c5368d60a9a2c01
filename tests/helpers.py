"""Shared test helpers: independent oracles and random graph builders.

The oracles deliberately avoid the package's own code paths: distances
come from Floyd-Warshall instead of BFS, maximum sets from full bitmask
enumeration, a plain incumbent branch and bound or the suffix-bound search
without its clique cover, node counts from the suffix-bound search with
every child's conflict rows written before it is visited, conflict masks
from a separate test of each triple at each of its three pairs, and
isomorphism from raw permutation search instead of canonical keys,
the components of an induced subgraph from a BFS over adjacency lists,
the dual-tree state of a set from its definition over distances,
chord crossings from a scan of every pair of spans with no early exit, and
a certificate's validity from its definition, a normalized Hamiltonian
cycle of g whose other edges are chords that this pair scan finds
non-crossing, with no ear cut.
The proof of maximal outerplanarity, the certificate check and the solve
have oracles that keep nothing on the graph (``proof_oracle``,
``check_certificate_oracle``, ``gp_number_oracle``): every call cuts
again along the hull found from the graph by sorting its edges, compares
the set of the cut's sides with the edges (``hull_triangles_oracle``),
tests connectivity by BFS before anything else, and only compares a given
certificate with the proof.
The labelled census is rebuilt one triangulation at a time, each record
from its own graph alone, and the generator catalog is keyed by each
member's least chord image (``canonical_form``) instead of the least
quiddity image the census keys it by.
"""

from __future__ import annotations

import random
from contextlib import suppress
from functools import lru_cache
from itertools import permutations

from gpmop import (
    CensusRecord,
    Disconnected,
    EdgeInTooManyTriangles,
    GpResult,
    Graph,
    HullNotHamiltonian,
    MopCertificate,
    NotAnMop,
    SearchCapExceeded,
    StructureViolation,
    WrongEdgeCount,
    build_graph,
    canonical_form,
    enumerate_triangulations,
    generators_at,
    gp_number,
    is_connected,
    is_generalized_sunflower,
    mop_stats,
    recognize,
)
from gpmop.dual import _state
from gpmop.mop import _walk, ear_cut
from gpmop.solve import DEFAULT_SEARCH_CAP, MOP_SEARCH_CAP, _mop_verified, _pair_block_masks, _search, _verified

BIG = 10**6


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus Bernoulli extra edges; always connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def _glued_ears(rng: random.Random, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    # A triangle with ears glued onto random hull edges: the hull cycle and
    # the edges of a maximal outerplanar graph of order n >= 3.
    hull = [0, 1, 2]
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        i = rng.randrange(len(hull))
        edges += [(hull[i], v), (hull[(i + 1) % len(hull)], v)]
        hull.insert(i + 1, v)
    return hull, edges


def random_mop(rng: random.Random, n: int) -> Graph:
    """Random maximal outerplanar graph of order n >= 3: glue ears onto
    random hull edges of a triangle, then relabel the vertices at random."""
    _, edges = _glued_ears(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabeled(build_graph(n, edges), perm)


def random_moved_chord(rng: random.Random, n: int) -> Graph:
    """A random maximal outerplanar graph of order n >= 5 with one chord
    moved across the polygon, then relabelled at random: connected, with
    2n-3 edges, and not outerplanar.  The moved chord joins the two sides of
    a chord that stays, so the hull cycle with these two crossing chords is
    a subdivision of K_4; no chord of the original crossed that chord, so
    the moved one is a new edge."""
    hull, edges = _glued_ears(rng, n)
    ring = {(min(u, v), max(u, v)) for u, v in zip(hull, hull[1:] + hull[:1])}
    chords = [e for e in edges if (min(e), max(e)) not in ring]
    edges.remove(chords.pop(rng.randrange(len(chords))))
    u, w = sorted(map(hull.index, rng.choice(chords)))
    inside = hull[rng.randrange(u + 1, w)]
    outside = hull[rng.choice([*range(u), *range(w + 1, n)])]
    edges.append((inside, outside))
    perm = list(range(n))
    rng.shuffle(perm)
    return relabeled(build_graph(n, edges), perm)


def polygon_certificate(n: int, chords) -> MopCertificate:
    """The certificate of the polygon 0..n-1 triangulated by chords."""
    return MopCertificate(n, tuple(range(n)), frozenset(chords))


def first_crossing_pair(cycle, chords) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The first two chords that cross on cycle, or None: chord spans sorted
    by first endpoint, each tested against every later span."""
    pos = {v: i for i, v in enumerate(cycle)}
    spans = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), (u, v)) for u, v in chords)
    for i, (a, b, e1) in enumerate(spans):
        for c, d, e2 in spans[i + 1 :]:
            if a < c < b < d:
                return e1, e2
    return None


def recognized_certificate(g: Graph, cert) -> bool:
    """Whether cert is g's certificate by the definition ``check_certificate``
    must meet: g has order cert.order >= 3 and 2n-3 edges, cert.cycle is a
    tuple of the vertices that starts at 0 and runs towards the smaller of
    0's cycle neighbours, each two consecutive vertices are an edge, the
    chords are g's other edges, and no two chords cross."""
    n, cycle = g.order, cert.cycle
    if n < 3 or cert.order != n or len(g.edges) != 2 * n - 3:
        return False
    if not isinstance(cycle, tuple) or sorted(cycle) != list(range(n)) or cycle[0] != 0 or cycle[1] > cycle[-1]:
        return False
    hull = {(min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    return hull <= g.edges and cert.chords == g.edges - hull and first_crossing_pair(cycle, cert.chords) is None


def hull_triangles_oracle(g: Graph, cycle) -> list[tuple[int, int, int]]:
    """``hull_triangles`` by building the set of the cut's sides and
    comparing it with g's edges, with the least pair in one set but not
    both named on a mismatch, rather than looking each side up."""
    n = g.order
    triangles = ear_cut([len(g.adjacency[v]) - 1 for v in cycle])
    if len(triangles) != n - 2:
        raise StructureViolation(f"expected {n - 2} inner faces, found {len(triangles)} along the cycle")
    ends = [(cycle[p - 1], cycle[p]) for p in range(n)] + [(cycle[a], cycle[b]) for a, _, b in triangles[:-1]]
    sides = {(u, v) if u < v else (v, u) for u, v in ends}
    if g.edges != sides:
        u, v = min(g.edges ^ sides)
        if (u, v) in g.edges:
            raise StructureViolation(f"edge ({u},{v}) is no side of the triangles along the cycle")
        raise StructureViolation(f"side ({u},{v}) of the triangles along the cycle is no edge")
    return triangles


def proof_oracle(g: Graph) -> tuple[MopCertificate, list[tuple[int, int, int]]]:
    """The ear-cut proof that g is maximal outerplanar, cut afresh on every
    call and kept nowhere: ``hull_triangles_oracle`` along the hull found
    from g, by sorting g's edges, after a BFS for connectivity, the order,
    the edge count and the triangles per edge are checked.  Returns the
    certificate and the cut's triangles."""
    n = g.order
    if not is_connected(g):
        raise Disconnected("graph is not connected")
    if n < 3:
        raise WrongEdgeCount(f"order {n} is below the minimum of 3")
    expected = 2 * n - 3
    if len(g.edges) != expected:
        raise WrongEdgeCount(f"expected {expected} edges for order {n}, found {len(g.edges)}")
    adj_sets = [set(a) for a in g.adjacency]
    hull_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        t = len(adj_sets[u] & adj_sets[v])
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
    cycle = _walk(hull_adj, 0, max(hull_adj[0]))
    if len(cycle) < n:
        raise HullNotHamiltonian("single-triangle edges split into more than one cycle")
    triangles = hull_triangles_oracle(g, cycle)
    sides = ((cycle[a], cycle[b]) for a, _, b in triangles[:-1])
    chords = frozenset((u, v) if u < v else (v, u) for u, v in sides)
    return MopCertificate(n, tuple(cycle), chords), triangles


def check_certificate_oracle(g: Graph, cert) -> list[tuple[int, int, int]]:
    """The triangles of ``proof_oracle(g)``, after the test that cert is
    its certificate."""
    proved, triangles = proof_oracle(g)
    if cert != proved:
        raise StructureViolation("certificate does not match the hull and chord set of g")
    return triangles


def gp_number_oracle(g: Graph, cert=None, *, force: bool = False) -> GpResult:
    """``gp_number`` with connectivity first: a given certificate is checked
    by ``check_certificate_oracle``, whose proof runs a BFS first; with no
    certificate the proof runs on 2n-3 edges and a BFS on any other count."""
    n = g.order
    if cert is not None:
        triangles = check_certificate_oracle(g, cert)
    elif n >= 3 and len(g.edges) == 2 * n - 3:
        with suppress(NotAnMop):
            cert, triangles = proof_oracle(g)
    elif not is_connected(g):
        raise Disconnected("graph is not connected")
    cap = DEFAULT_SEARCH_CAP if cert is None else MOP_SEARCH_CAP
    if n > cap and not force:
        raise SearchCapExceeded(
            f"order {n} exceeds the search cap {cap}; pass force=True (gpmop gp --force) to override"
        )
    if cert is not None:
        results, nodes = _mop_verified(g, triangles, [cert.cycle])
        return GpResult(*results[0], nodes)
    return _verified(g, *_search(n, _pair_block_masks(g)))


def floyd_warshall(g: Graph) -> list[list[int]]:
    n = g.order
    d = [[BIG] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = 0
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik >= BIG:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def induced_components(g: Graph, members) -> tuple[tuple[int, ...], ...]:
    """Components of the subgraph induced by members, each sorted, in order
    of their least vertices, by a BFS over g.adjacency."""
    member_set = set(members)
    seen: set[int] = set()
    comps = []
    for start in sorted(member_set):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for u in comp:
            for w in g.adjacency[u]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def exhaustive_interval(g: Graph, u: int, v: int) -> frozenset[int]:
    """Vertices on at least one shortest u,v-path, by enumerating every
    simple path between them."""
    best_len: int | None = None
    on_shortest: set[int] = set()

    def walk(node: int, visited: list[int]) -> None:
        nonlocal best_len, on_shortest
        if node == v:
            length = len(visited) - 1
            if best_len is None or length < best_len:
                best_len = length
                on_shortest = set(visited)
            elif length == best_len:
                on_shortest |= set(visited)
            return
        for w in g.adjacency[node]:
            if w not in visited:
                visited.append(w)
                walk(w, visited)
                visited.pop()

    walk(u, [u])
    return frozenset(on_shortest)


def geodesic_triples(g: Graph) -> list[int]:
    """Bitmasks of every unordered triple with one member between the others,
    computed from Floyd-Warshall distances."""
    d = floyd_warshall(g)
    out = []
    n = g.order
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                dab, dac, dbc = d[a][b], d[a][c], d[b][c]
                if dac == dab + dbc or dab == dac + dbc or dbc == dab + dac:
                    out.append((1 << a) | (1 << b) | (1 << c))
    return out


def in_general_position(d, members) -> bool:
    """No member of members lies on a geodesic between two others, by the distances d."""
    return not any(
        d[x][y] + d[y][z] == d[x][z] for x in members for y in members for z in members if x != y != z != x
    )


def arc_state(d, a: int, b: int, members) -> int:
    """The state of members on the edge (a, b), as the separator lemma of
    ``gpmop.dual`` defines it, for a graph with distances d whose vertices
    other than a and b all lie on one side of ab: alpha and beta say whether
    a and b are members, T holds the types d(x,b) - d(x,a) of the other
    members, and F each type e for which two members y, z, not a and b
    together, have g_e(y) + d(y,z) = g_e(z), where g_e(y) = min(d(a,y),
    e + d(b,y)).  ``dual._state`` only packs the four parts."""
    inner = [x for x in members if x not in (a, b)]
    far = {
        e
        for e in (-1, 0, 1)
        for y in members
        for z in members
        if y != z and {y, z} != {a, b} and min(d[a][y], e + d[b][y]) + d[y][z] == min(d[a][z], e + d[b][z])
    }
    return _state(int(a in members), int(b in members), {d[x][b] - d[x][a] for x in inner}, far)


def brute_force_gp(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum general position set by full 2^n enumeration; ties resolved
    toward the lexicographically smallest sorted vertex list."""
    conflicts = geodesic_triples(g)
    n = g.order
    best_size = -1
    best: tuple[int, ...] = ()
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < best_size:
            continue
        if any(mask & t == t for t in conflicts):
            continue
        members = tuple(v for v in range(n) if (mask >> v) & 1)
        if size > best_size or (size == best_size and members < best):
            best_size = size
            best = members
    return best_size, best


def incumbent_search(n: int, blocks: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Maximum set by plain depth-first branch and bound over the pair
    conflict masks: ascending branching, pruning only by chosen plus
    remaining against the incumbent, which starts empty.  The first set of
    each new size is the lexicographically smallest of that size."""
    best: tuple[int, ...] = ()

    def rec(chosen: list[int], cand: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        k = cand
        depth = len(chosen)
        while k:
            if depth + k.bit_count() <= len(best):
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
    return len(best), best


def per_pair_block_masks(dist, n: int) -> list[list[int]]:
    """Pair conflict masks with every triple tested once from each of its
    three pairs: bit c of blocks[a][b] is set when one of a, b, c lies on a
    geodesic between the other two."""
    blocks = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            dab = dist[a][b]
            mask = 0
            for c in range(n):
                if c == a or c == b:
                    continue
                dac, dbc = dist[a][c], dist[b][c]
                if dac == dab + dbc or dab == dac + dbc or dbc == dab + dac:
                    mask |= 1 << c
            blocks[a][b] = blocks[b][a] = mask
    return blocks


def mirrored(dist):
    """The distance table of the graph that names vertex v by n-1-v, entry
    by entry: ``solve._search`` reads the pair masks of this graph."""
    n = len(dist)
    return tuple(tuple(dist[n - 1 - u][n - 1 - v] for v in range(n)) for u in range(n))


def suffix_search(n: int, blocks: list[list[int]]) -> tuple[int, tuple[int, ...], int]:
    """Suffix-bound search with no node-level cover: c[v], the gp of
    {v, ..., n-1}, is filled from v = n-1 down, a branch is pruned only by
    chosen + c[min(cand)] or chosen + |cand| against the target, and one
    ascending search for c[0] gives the lexicographically smallest maximum
    set.  Returns the value, that set and the number of nodes visited."""
    c = [0] * (n + 1)
    found: tuple[int, ...] = ()
    nodes = 0

    def rec(chosen: list[int], cand: int, need: int) -> bool:
        nonlocal found, nodes
        nodes += 1
        if not need:
            found = tuple(chosen)
            return True
        k = cand
        while k:
            v = (k & -k).bit_length() - 1
            if c[v] < need or k.bit_count() < need:
                return False
            k &= k - 1
            blocked = 0
            for a in chosen:
                blocked |= blocks[v][a]
            chosen.append(v)
            if rec(chosen, k & ~blocked, need - 1):
                return True
            chosen.pop()
        return False

    full = (1 << n) - 1
    for v in range(n - 1, -1, -1):
        c[v] = c[v + 1] + rec([v], full >> (v + 1) << (v + 1), c[v + 1])
    rec([], full, c[0])
    return c[0], found, nodes


def eager_row_search(n: int, blocks: list[list[int]]) -> tuple[int, tuple[int, ...], int]:
    """The suffix-bound search with its clique cover, writing every child's
    conflict rows before the child is visited: a parent ORs the new vertex's
    masks into the row of each of the child's candidates, and the child's
    cover reads them.  Each clique starts at the largest vertex left and
    absorbs the largest first, and a node stops branching past the start of
    its need-th clique.  The witness is the set of the last search that
    raised c, unless a search for the rest of a maximum set above a smaller
    vertex finds one first.  Returns the value, the lexicographically
    smallest maximum set and the number of nodes visited, which must equal
    ``solve._search``'s."""
    # c[v] is the gp of the vertex set {v, ..., n-1}; c[n] = 0.
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
        # Greedy cover of cand by cliques of the conflict rows, from the
        # largest vertex down: each clique adds at most one member, so fewer
        # than need cliques prune.  The need-th clique starts at last.
        starts = []
        rest = cand
        while rest and len(starts) < need:
            x = rest.bit_length() - 1
            starts.append(x)
            rest ^= 1 << x
            q = rest & conf[x]
            while q:
                x = q.bit_length() - 1
                rest ^= 1 << x
                q &= conf[x]
        if len(starts) < need:
            return False
        last = starts[-1]
        child = rows[len(chosen)]
        k = cand
        while True:
            v = (k & -k).bit_length() - 1
            # The rest of the set lies in k, inside {v, ..., n-1}, so it has
            # at most c[v] members; c is non-increasing, so no later v does
            # better.  Only the cliques that start at v or above meet k, and
            # past last there are fewer than need of them.
            if v > last or c[v] < need:
                return False
            k &= k - 1
            sub = k & ~conf[v]
            bv = blocks[v]
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
    # last is the set of the last search that raised c, at vertex rise.
    last, rise = (n - 1,), n - 1
    for v in range(n - 2, -1, -1):
        # Dropping v from a set in {v, ..., n-1} leaves one in {v+1, ...},
        # so c[v] is c[v+1] or c[v+1] + 1.  The rows of {v} are blocks[v].
        c[v] = c[v + 1] + rec([v], full >> (v + 1) << (v + 1), c[v + 1], blocks[v])
        if c[v] > c[v + 1]:
            last, rise = found, v
    # last is the maximum set whose smallest vertex is largest.  A set with
    # a smaller least vertex v < rise comes from the search for c[0] - 1 more
    # members above v; the search at rise itself would repeat the one that
    # found last.
    for v in range(rise):
        if rec([v], full >> (v + 1) << (v + 1), c[0] - 1, blocks[v]):
            return c[0], found, nodes
    return c[0], last, nodes


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation search; fine for the tiny orders the tests use."""
    if g1.order != g2.order or len(g1.edges) != len(g2.edges):
        return False
    deg1 = sorted(len(a) for a in g1.adjacency)
    deg2 = sorted(len(a) for a in g2.adjacency)
    if deg1 != deg2:
        return False
    for perm in permutations(range(g1.order)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in g2.edges
            for u, v in g1.edges
        ):
            return True
    return False


def relabeled(g: Graph, perm: list[int]) -> Graph:
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


@lru_cache(maxsize=None)
def catalog_by_key(n: int) -> tuple[tuple[str, bytes], ...]:
    """Each ``generators_at`` label of order n with its member's canonical
    key, ``canonical_form(recognize(g))``."""
    return tuple((label, canonical_form(recognize(inst.graph))) for label, inst in generators_at(n))


def catalog_key(n: int, label: str) -> bytes:
    return next(key for lab, key in catalog_by_key(n) if lab == label)


def catalog_keys(n: int, prefixes: tuple[str, ...]) -> set[bytes]:
    return {key for label, key in catalog_by_key(n) if label.startswith(prefixes)}


def expected_extremal_keys(n: int) -> set[bytes]:
    """Keys of the catalog classes attaining floor(2n/3): the fan alone away
    from orders 1 mod 3, otherwise the fan plus every quasi-fan and glued fan."""
    return catalog_keys(n, ("fan", "quasi_fan(", "g1(", "g2(") if n % 3 == 1 else ("fan",))


def striped_catalog_keys(n: int) -> set[bytes]:
    """Keys of the catalog members named as striped cap-attainers: the fan,
    the first quasi-fan, every left-seam glued fan with j=1, and every
    right-seam glued fan with j=t."""
    right_seam = tuple(f"g2({t},{t})" for t in range(1, n))
    return catalog_keys(n, ("fan", "quasi_fan(1)", "g1(1,") + right_seam)


def census_by_member(n: int) -> list[CensusRecord]:
    """The labelled census of order n built member by member: each
    triangulation's key from ``canonical_form(recognize(g))``, its gp and
    witness from ``gp_number``, its statistics from ``mop_stats`` and its
    labels from the generator catalog, with no fact shared between members.
    Sorted by (canonical key, chords), as ``run_census`` returns them."""
    catalog = catalog_by_key(n)
    records = []
    for chords in enumerate_triangulations(n):
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))
        cert = recognize(g)
        key = canonical_form(cert)
        stats = mop_stats(g, cert)
        result = gp_number(g)
        labels = tuple(label for label, k in catalog if k == key)
        labels += ("gsf",) if is_generalized_sunflower(g, cert) else ()
        records.append(
            CensusRecord(
                n=n,
                canonical_key=key,
                chords=chords,
                gp=result.value,
                gp_witness=result.witness,
                max_degree=stats.max_degree,
                internal_triangles=stats.internal_triangles,
                two_vertices=stats.two_vertices,
                striped=stats.striped,
                family_labels=labels,
            )
        )
    return sorted(records, key=lambda r: (r.canonical_key, r.chords))
