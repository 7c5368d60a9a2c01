"""Exact general position numbers of maximal outerplanar graphs by a dynamic
program over the dual tree.

Separator lemma.  Let ab be an edge of a graph whose vertex set, with a and
b removed, falls apart into sides A and B with no edge between them.  For w
in A put e = d(w,b) - d(w,a), which is -1, 0 or 1 since ab is an edge, and
for y in B + {a, b} put g_e(y) = min(d(a,y), e + d(b,y)).  Then for distinct
y, z in B + {a, b}, {w, y, z} is a geodesic triple exactly when
g_e(y) + d(y,z) = g_e(z) or g_e(z) + d(y,z) = g_e(y); the answer depends on
w only through e, its type.

Proof.  Every w,y-path meets a or b, so d(w,y) = min(d(w,a) + d(a,y),
d(w,b) + d(b,y)) = d(w,a) + g_e(y), also for y in {a, b}.  Hence y lies on a
w,z-geodesic, d(w,z) = d(w,y) + d(y,z), exactly when g_e(z) = g_e(y) +
d(y,z), and likewise with y and z swapped.  It remains that w lies on no
y,z-geodesic.  A shortest y,w-path enters A at a separator vertex s and a
shortest w,z-path leaves it at s', so d(y,w) + d(w,z) = d(y,s) + d(s,w) +
d(w,s') + d(s',z).  As w is neither a nor b, d(s,w) + d(w,s') >= 2 >
d(s,s'), and the sum exceeds d(y,s) + d(s,s') + d(s',z) >= d(y,z).  QED.

Corollary: around a triangle (a, c, b) of a maximal outerplanar graph (MOP),
three vertices beyond ab, beyond ac and beyond cb never form a geodesic
triple, because by the last step of the proof, applied to each side of the
triangle, none of them lies between the other two.

The program.  Hull positions 0..n-1 run along the Hamiltonian cycle.  Every
edge (a, b), a < b, bounds the arc a..b; the open arc holds the positions
strictly between, and a vertex x there has the type d(x,b) - d(x,a).  For a
chord, or the root edge (0, n-1), the triangle (a, c, b) on the arc's side
splits the open arc into the open arcs of ac and cb and the apex c.  A set S
in the open arc of ab, with a and b chosen or not, is summarised by the
state (alpha, beta, T, F): alpha and beta say whether a and b are chosen, T
is the set of the types of S, and F holds the type e of every vertex beyond
ab that forms a geodesic triple with two chosen vertices of the closed arc
other than a and b together (by the lemma, no vertex whose type is not in F
forms one).  A hull edge has the four states (alpha, beta, {}, {}).

The lemma's distance formula turns types across a triangle (a, c, b), where
a vertex under an edge lies in its open arc.  Put L(t) = min(0, t) + 1 and
R(t) = max(0, t) - 1.  A vertex of type t beyond ab has type L(t) towards ac
and R(t) towards cb.  A member of type t under ac has type L(t) under ab and
L(-t) seen from beyond cb; a member of type t under cb has type R(t) under ab
and R(-t) seen from beyond ac; b seen from beyond ac, and a seen from beyond
cb, have type 0.

Merging a state (alpha, gamma, T1, F1) of ac with a state (gamma, beta, T2,
F2) of cb checks every triple with chosen vertices on both sides of c: two
of them lie on one side, the apex c counted on both, and the third beyond
it, so the pair is rejected when F1 meets the types of the cb side seen from
beyond ac, or F2 those of the ac side seen from beyond cb.  A triple {w, y,
z} with w beyond ab and y, z chosen in the closed arc puts e in F when

- y, z lie in the closed arc a..c, other than a and c together, and L(e)
  is in F1; or the mirror case in c..b with R(e) and F2;
- {y, z} = {a, c} and L(e) != 0, so e >= 0; or {y, z} = {c, b} and
  R(e) != 0, so e <= 0;
- y = a and z lies under cb: by the lemma a lies between w and z, since z
  lies on no w,a-geodesic, exactly when e >= -t for z's type t under ab;
  or y = b, z under ac and e <= -t.

A pair with one member under ac and one under cb forms no triple with w,
by the corollary.  The value of a state is the best weight of its chosen
vertices other than a, where hull position p weighs 2^n +
2^(n-1-label(p)), so that the values of ac and cb add up to a value of ab.
The high part of a weight counts members, and among sets of one size the
larger low part belongs to the set with the smallest differing label, so
the best weight over the root states, with position 0 added when chosen,
yields both gp and the lexicographically smallest maximum set.

Quotient.  From the hull states the merge reaches 41 states, which fall into
22 classes: the coarsest partition that keeps alpha and beta and that the
merge preserves on either side, a rejected pair counting as a class of its
own (partition refinement, as in Hopcroft's minimization of a finite
automaton, 1971).  Members of one class pair with the same states across c,
merge with any state into one class or are both rejected, and agree on alpha,
all that the root reads, so the class of a set after every later join depends
only on its class now.  Hence ``_merge`` returns the least member of its
class, and each table holds a class at the max of its members' values: the
best root value, and with it gp and the witness, are unchanged.

Lanes.  One pass serves several labellings of the hull at once, each in its
own bit lane of one integer: lane i is bits i*w to i*w + w - 1, with w = n +
n.bit_length() + 1, and holds the value under labelling i.  A value is
count*2^n + low with count <= n and low < 2^n, below (n+1)*2^n <= 2^(w-1),
so the top bit of each lane, its guard, stays clear.  The two sides of a
join cover disjoint vertices, so their counts add to at most n and their low
parts to less than 2^n: adding packed values adds each lane with no carry
into the next.  With H the mask of the guards, G = ((v | H) - u) & H keeps
the guard of exactly the lanes where v >= u, since each lane of v | H minus
the same lane of u lies in 1..2^w - 1 and borrows from no other lane.  The
lane-wise max takes v when G = H, keeps u when G = 0, and otherwise takes
u ^ ((v ^ u) & (G - (G >> (w-1)))), whose mask fills the lanes G marks below
their guards.  When the larger of u and v is below 2^w, both lie in lane 0
alone and the plain comparison decides, as it always does with one lane.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .graph import Graph

_TYPES = (-1, 0, 1)


def _L(t: int) -> int:
    return min(0, t) + 1


def _R(t: int) -> int:
    return max(0, t) - 1


def _types(mask: int) -> set[int]:
    # Type t is bit t + 1 of a 3-bit field.
    return {t for t in _TYPES if mask >> (t + 1) & 1}


def _mask(types: set[int]) -> int:
    return sum(1 << (t + 1) for t in types)


def _state(alpha: int, beta: int, types: set[int], far: set[int]) -> int:
    # alpha in bit 0, beta in bit 1, T in bits 2-4, F in bits 5-7.
    return alpha | beta << 1 | _mask(types) << 2 | _mask(far) << 5


# Unbounded, but there are at most 256 x 256 pairs of states.
@lru_cache(maxsize=None)
def _merge(s1: int, s2: int) -> int:
    """The state of ab from a state s1 of ac and a state s2 of cb that agree
    on c, or -1 when the two sides form a geodesic triple."""
    alpha, gamma, beta = s1 & 1, s1 >> 1 & 1, s2 >> 1 & 1
    t1, f1 = _types(s1 >> 2 & 7), _types(s1 >> 5)
    t2, f2 = _types(s2 >> 2 & 7), _types(s2 >> 5)
    if f1 & ({_R(-t) for t in t2} | ({0} if beta else set())):
        return -1
    if f2 & ({_L(-t) for t in t1} | ({0} if alpha else set())):
        return -1
    up1, up2 = {_L(t) for t in t1}, {_R(t) for t in t2}
    far = {
        e
        for e in _TYPES
        if _L(e) in f1
        or _R(e) in f2
        or (alpha and gamma and e >= 0)
        or (gamma and beta and e <= 0)
        or (alpha and any(e >= -t for t in up2))
        or (beta and any(e <= -t for t in up1))
    }
    r = _state(alpha, beta, up1 | up2 | ({0} if gamma else set()), far)
    return _REP.get(r, r)


# Each of the 19 reachable states that is not the least of its class (see
# Quotient), sent to that least state.  A literal, so that no process pays to
# derive it; tests/test_dual.py derives it by partition refinement.
_REP = {
    28: 20, 122: 106, 124: 108, 205: 201, 220: 216, 232: 228, 236: 228, 238: 230, 240: 228, 241: 237,
    244: 228, 245: 237, 246: 230, 248: 228, 249: 237, 250: 230, 252: 228, 253: 237, 254: 230,
}

# The states of a hull edge, (alpha, beta) = (0, 0), (0, 1), (1, 0), (1, 1).
_HULL = bytes(_state(alpha, beta, set(), set()) for alpha in (0, 1) for beta in (0, 1))


class _Plan(NamedTuple):
    """How the tables of ac and cb make the table of ab, in bytes, since a
    state and an index into a table of states are below 256.  Pair k joins
    state left[k] of ac with state right[k] of cb.  The first len(states)
    pairs reach the states in order; each later pair reaches state
    extra[k - len(states)] again.  ``pairs`` counts the state pairs that
    agree on c."""

    states: bytes
    left: bytes
    right: bytes
    extra: bytes
    pairs: int


# The labelled census of order 14 needs 438 plans, and one random MOP of
# each order 10, 20, ..., 3,000 needs 576; the bound caps the memory of any
# other use.
@lru_cache(maxsize=8192)
def _plan(left: bytes, right: bytes) -> _Plan:
    reach: dict[int, list[tuple[int, int]]] = {}
    pairs = 0
    for gamma in (0, 1):
        lefts = [(i, s1) for i, s1 in enumerate(left) if s1 >> 1 & 1 == gamma]
        rights = [(j, s2) for j, s2 in enumerate(right) if s2 & 1 == gamma]
        pairs += len(lefts) * len(rights)
        for i, s1 in lefts:
            for j, s2 in rights:
                r = _merge(s1, s2)
                if r >= 0:
                    reach.setdefault(r, []).append((i, j))
    states = sorted(reach)
    flat = [reach[r][0] for r in states]
    extra = []
    for k, r in enumerate(states):
        flat += reach[r][1:]
        extra += [k] * (len(reach[r]) - 1)
    return _Plan(bytes(states), bytes(i for i, _ in flat), bytes(j for _, j in flat), bytes(extra), pairs)


def mop_gp_lanes(
    g: Graph, cycle: Sequence[int], labellings: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """gp of a MOP whose hull cycle lists its vertices in order, with the
    lexicographically smallest maximum set under each labelling, where
    ``labellings[i][p]`` labels hull position p in lane i and the set of lane
    i is given in its labels, and the number of state pairs merged.  The
    cycle is trusted, not checked."""
    n = g.order
    pos = [0] * n
    for p, v in enumerate(cycle):
        pos[v] = p
    # Neighbour positions of each position, ascending.
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for p, v in enumerate(cycle):
        for w in g.adjacency[v]:
            nbrs[pos[w]].append(p)
    # Triangles in pre-order from the root edge: the apex of (a, b) is a's
    # last neighbour before b.
    triangles = []
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        na = nbrs[a]
        c = na[bisect_left(na, b) - 1]
        triangles.append((a, c, b))
        if c - a > 1:
            stack.append((a, c))
        if b - c > 1:
            stack.append((c, b))
    # Lane i of a value is bits i*width .. i*width + top, bit top the guard (see Lanes).
    width = n + n.bit_length() + 1
    top = width - 1
    guard = sum(1 << (i * width + top) for i in range(len(labellings)))
    first = 1 << width
    # Position p weighs 2^n + 2^(n-1-v) in each lane i, where v = labellings[i][p]:
    # the count bits of all lanes plus one label bit per lane.
    count = sum(1 << (i * width + n) for i in range(len(labellings)))
    bits = [[1 << (i * width + n - 1 - v) for v in lab] for i, lab in enumerate(labellings)]
    weight = list(map(sum, zip(*bits), repeat(count)))

    def fold(values: list[int], into: Iterable[int], sums: Iterable[int]) -> None:
        # values[k] becomes the lane-wise max of itself and v, for k, v in zip(into, sums).
        for k, v in zip(into, sums):
            u = values[k]
            if v > u:
                if v < first:
                    values[k] = v
                    continue
            elif u < first:
                continue
            ge = ((v | guard) - u) & guard
            if ge == guard:
                values[k] = v
            elif ge:
                values[k] = u ^ ((v ^ u) & (ge - (ge >> top)))

    # The table of edge (a, b) holds its states and their values, in one order.
    tables: dict[tuple[int, int], tuple[bytes, list[int]]] = {}
    pairs = 0
    for a, c, b in reversed(triangles):
        ls, lv = tables.pop((a, c), None) or (_HULL, [0, weight[c], 0, weight[c]])
        rs, rv = tables.pop((c, b), None) or (_HULL, [0, weight[b], 0, weight[b]])
        plan = _plan(ls, rs)
        sums = [lv[i] + rv[j] for i, j in zip(plan.left, plan.right)]
        head = len(plan.states)
        values = sums[:head]
        fold(values, plan.extra, sums[head:])
        tables[a, b] = plan.states, values
        pairs += plan.pairs
    # Every lane of a root value is at least 0.
    best = [0]
    fold(best, repeat(0), [v + (weight[0] if s & 1 else 0) for s, v in zip(*tables[0, n - 1])])
    results = []
    for i in range(len(labellings)):
        lane = best[0] >> (i * width) & ((1 << width) - 1)
        low = lane & ((1 << n) - 1)
        results.append((lane >> n, tuple(v for v in range(n) if low >> (n - 1 - v) & 1)))
    return results, pairs

