"""Correctness checks that use none of the program's verification code.

A witness passes when it is a strictly increasing vertex tuple of the stated
size and no member lies on a shortest path between two others, with
distances recomputed here by breadth-first search over the benchmark's own
edge list.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from itertools import combinations


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def witness_ok(n: int, edges, gp: int, witness: tuple[int, ...]) -> bool:
    """True when ``witness`` is a general position set of size ``gp``."""
    if len(witness) != gp or list(witness) != sorted(set(witness)):
        return False
    if witness and not 0 <= witness[0] <= witness[-1] < n:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {w: _bfs(adj, w) for w in witness}
    if any(d < 0 for row in dist.values() for d in row):
        return False
    for a, b, c in combinations(witness, 3):
        dab, dac, dbc = dist[a][b], dist[a][c], dist[b][c]
        if dac == dab + dbc or dab == dac + dbc or dbc == dab + dac:
            return False
    return True


def polygon_edges(n: int, chords) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)] + list(chords)


def census_digest(rows) -> str:
    """SHA-256 of the sorted ``(chords, gp, witness)`` rows; the canonical
    key is left out so that a change of key format keeps the digest."""
    lines = sorted(
        ";".join(f"{a}-{b}" for a, b in chords) + "|" + str(gp) + "|" + " ".join(map(str, w))
        for chords, gp, w in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def gp_string(rows) -> str:
    """The gp values as one digit string, rows sorted by chords (gp < 10
    for the orders the census workload uses)."""
    return "".join(str(gp) for _, gp, _ in sorted(rows))


def gp_histogram(gps) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(gps).items())}
