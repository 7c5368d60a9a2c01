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

Since a state is a fact about a set, the program is exact at every order, by
induction over the dual tree, if the merge gives each agreeing pair of sides
the state of their union, or -1 exactly when it is not in general position:
``TestMergePairByPair`` checks all 1,021 agreeing pairs of the 41 raw states.

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
their guards.  With two lanes or more every weight has a count bit in lane
1, so every nonzero value is at least 2^w, and the lane-wise max of 0 and v
is v: the guard test alone decides every join.  With one lane every value is
below 2^w, so a one-lane pass, that of every ``gp_number`` call and of every
deduplicated census class, joins by the plain max and runs no guard test.
A lane's low part holds its witness, label v as bit n-1-v.  A one-lane pass
decodes it directly; a multi-lane pass reads it through ``_labels``, cached
on (n, low), so lanes with the same witness labels get one tuple, which the
labelled census's records then share, in process and, through pickle's
memo, within each chunk of results a pool worker returns.  Only the labelled
census runs passes of more than one lane, at orders n <= 14, so the cache
holds at most 2^n entries per order.

Joins.  A table holds a value for each of 22 slots, one per class, and a mask
of the slots present; slots 0..3 are the hull states, so a hull edge has mask
15.  ``_JOINS`` holds the 147 merging pairs of slots as triples (left, right,
merged slot) by left slot; a join runs over those whose slots are present
(``_plan``, one list per pair of masks), at the root all into slot 0, the
best root value.  A plan is the rows of the left slots present, each already
cut to the right mask with the mask of its merged slots (``_rows``, one row
set per right mask).  Joins reach 24 masks, so there are at most 24 row sets
and 24 x 24 plans.  A fact of the quotient, not of any graph, the list
is a literal like ``_REP`` that no process derives; tests derive it from
``_merge``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

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

# The 22 states by slot: hull states (alpha, beta) = (0, 0), (0, 1), (1, 0), (1, 1) first.
_SLOTS = (0, 2, 1, 3, 4, 8, 12, 16, 20, 24, 50, 56, 106, 108, 133, 140, 201, 216, 228, 230, 235, 237)

# Row i holds (i, j, k) for each slot j of cb that merges with slot i of ac
# into slot k of ab: the 147 merging pairs (see Joins), derived in tests/test_dual.py.
_JOINS = (
    ((0, 0, 0), (0, 1, 1), (0, 4, 4), (0, 5, 4), (0, 6, 4), (0, 7, 5), (0, 8, 6), (0, 9, 6), (0, 10, 12),
    (0, 11, 13), (0, 12, 19), (0, 13, 18), (0, 15, 4), (0, 17, 15), (0, 18, 18), (0, 19, 19)), ((1, 2, 5),
    (1, 3, 12), (1, 14, 6), (1, 16, 15), (1, 20, 19), (1, 21, 18)), ((2, 0, 2), (2, 1, 3), (2, 4, 14),
    (2, 5, 14), (2, 6, 14), (2, 7, 16), (2, 8, 16), (2, 9, 16), (2, 10, 20), (2, 11, 21), (2, 15, 14)),
    ((3, 2, 16), (3, 3, 20), (3, 14, 16)), ((4, 0, 5), (4, 1, 12), (4, 4, 6), (4, 5, 6), (4, 6, 6), (4, 7, 5),
    (4, 8, 6), (4, 9, 6), (4, 10, 12), (4, 11, 13), (4, 12, 19), (4, 13, 18)), ((5, 0, 7), (5, 1, 10),
    (5, 4, 8), (5, 5, 8), (5, 6, 8), (5, 7, 9), (5, 8, 8), (5, 9, 8), (5, 10, 12), (5, 11, 13), (5, 12, 19),
    (5, 13, 18)), ((6, 0, 9), (6, 1, 12), (6, 4, 8), (6, 5, 8), (6, 6, 8), (6, 7, 9), (6, 8, 8), (6, 9, 8),
    (6, 10, 12), (6, 11, 13), (6, 12, 19), (6, 13, 18)), ((7, 0, 7), (7, 1, 10), (7, 4, 8), (7, 5, 8),
    (7, 6, 8), (7, 7, 9), (7, 8, 8), (7, 9, 8), (7, 10, 12), (7, 11, 13), (7, 15, 8)), ((8, 0, 9), (8, 1, 12),
    (8, 4, 8), (8, 5, 8), (8, 6, 8), (8, 7, 9), (8, 8, 8), (8, 9, 8), (8, 10, 12), (8, 11, 13)), ((9, 0, 7),
    (9, 1, 10), (9, 4, 8), (9, 5, 8), (9, 6, 8), (9, 7, 9), (9, 8, 8), (9, 9, 8), (9, 10, 12), (9, 11, 13)),
    ((10, 2, 9), (10, 3, 12), (10, 14, 8)), ((11, 0, 7), (11, 1, 10), (11, 4, 8)), ((12, 2, 11),),
    ((13, 0, 11),), ((14, 0, 16), (14, 1, 20), (14, 4, 16), (14, 5, 16), (14, 6, 16), (14, 7, 16), (14, 8, 16),
    (14, 9, 16), (14, 10, 20), (14, 11, 21)), ((15, 0, 17), (15, 1, 19), (15, 4, 17), (15, 5, 17), (15, 6, 17),
    (15, 7, 17), (15, 8, 17), (15, 9, 17), (15, 10, 19), (15, 11, 18), (15, 12, 19), (15, 13, 18)),
    ((16, 0, 21), (16, 5, 21), (16, 7, 21), (16, 9, 21), (16, 11, 21)), ((17, 0, 18), (17, 5, 18), (17, 7, 18),
    (17, 9, 18), (17, 11, 18)), ((18, 0, 18),), ((19, 2, 18),), ((20, 2, 21),), ((21, 0, 21),),
)


# The three caches are unbounded: joins reach 24 presence masks (pinned in
# tests), so at most 24 row sets and 24 x 24 plans, and ``_labels`` holds at
# most 2^n entries per census order n <= 14 (see Lanes).
@lru_cache(maxsize=None)
def _rows(right: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], int], ...]:
    """For the presence mask of cb: each row of ``_JOINS`` cut to the triples
    whose slot j is present, with the mask of their merged slots."""
    cut = [tuple(t for t in row if right >> t[1] & 1) for row in _JOINS]
    return tuple((row, sum({1 << k for _, _, k in row})) for row in cut)


@lru_cache(maxsize=None)
def _plan(left: int, right: int) -> tuple[list[tuple[int, int, int]], int]:
    """The merging triples (i, j, k) of the slots present in the masks of ac and cb, and the mask of ab."""
    triples: list[tuple[int, int, int]] = []
    mask = 0
    for i, (row, merged) in enumerate(_rows(right)):
        if left >> i & 1:
            triples += row
            mask |= merged
    return triples, mask


@lru_cache(maxsize=None)
def _labels(n: int, low: int) -> tuple[int, ...]:
    # Label v is bit n-1-v of a lane's low part, so clearing the top bit reads the labels ascending.
    labels = []
    while low:
        b = low.bit_length()
        labels.append(n - b)
        low ^= 1 << b - 1
    return tuple(labels)


def mop_gp_lanes(
    n: int, triangles: Sequence[tuple[int, int, int]], labellings: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """gp of the MOP of order n whose triangles are the hull position
    triples (a, c, b), a < c < b, with the lexicographically smallest
    maximum set under each labelling, where ``labellings[i][p]`` labels hull
    position p in lane i and the set of lane i is given in its labels, and
    the number of slot pairs merged.  The triangles are trusted, not
    checked, in ``mop.ear_cut`` order: children first, root last."""
    # Lane i of a value is bits i*width .. i*width + top, bit top the guard (see Lanes).
    width = n + n.bit_length() + 1
    top = width - 1
    guard = sum(1 << (i * width + top) for i in range(len(labellings)))
    one_lane = len(labellings) == 1
    # Position p weighs 2^n + 2^(n-1-v) in each lane i, where v = labellings[i][p]:
    # the count bits of all lanes plus one label bit per lane.
    weight = [sum(1 << (i * width + n) for i in range(len(labellings)))] * n
    for i, lab in enumerate(labellings):
        shift = i * width + n - 1
        weight = [w + (1 << shift - v) for w, v in zip(weight, lab)]

    # Position 0's weight rides on alpha of hull edge (0, 1), so on every root value.
    tables = {(0, 1): (15, [0, weight[1], weight[0], weight[0] + weight[1]])}
    merges = 0
    # In ear-cut order an arc's children are joined before it.
    for a, c, b in triangles:
        lm, lv = tables.pop((a, c), None) or (15, [0, weight[c], 0, weight[c]])
        rm, rv = tables.pop((c, b), None) or (15, [0, weight[b], 0, weight[b]])
        plan, mask = _plan(lm, rm)
        merges += len(plan)
        if b - a == n - 1:  # slot 0 alone holds the root; nothing reads its mask
            plan = [(i, j, 0) for i, j, _ in plan]
        # Each slot starts at 0, below every v in every lane, and ends at the lane-wise max (Lanes) of its v.
        values = [0] * len(_SLOTS)
        if one_lane:
            for i, j, k in plan:
                v = lv[i] + rv[j]
                if v > values[k]:
                    values[k] = v
        else:
            for i, j, k in plan:
                v = lv[i] + rv[j]
                u = values[k]
                ge = ((v | guard) - u) & guard
                if ge == guard:
                    values[k] = v
                elif ge:
                    values[k] = u ^ ((v ^ u) & (ge - (ge >> top)))
        tables[a, b] = mask, values
    best = tables[0, n - 1][1][0]
    # Only multi-lane passes share their witness tuples through the cache (see Lanes).
    decode = _labels.__wrapped__ if one_lane else _labels
    results = []
    for i in range(len(labellings)):
        lane = best >> (i * width) & ((1 << width) - 1)
        results.append((lane >> n, decode(n, lane & ((1 << n) - 1))))
    return results, merges
