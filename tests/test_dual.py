"""The dual-tree program for maximal outerplanar graphs against independent
oracles: Floyd-Warshall distances for the separator lemma, full bitmask
enumeration and the suffix-bound search for values and witnesses."""

import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmop import (
    all_pairs_distances,
    build_graph,
    canonical_form,
    enumerate_triangulations,
    fan,
    gp_number,
    is_gp_characterized,
    recognize,
    run_census,
)
from gpmop import dual, solve
from gpmop.census import expected_extremal_keys, graph_from_chords
from gpmop.dual import mop_gp_lanes
from gpmop.mop import hull_triangles
from helpers import (
    arc_state,
    brute_force_gp,
    floyd_warshall,
    in_general_position,
    per_pair_block_masks,
    random_mop,
    relabeled,
    suffix_search,
)


def hull_lanes(g, cycle, labellings):
    # mop_gp_lanes on the triangles of g in positions along cycle.
    return mop_gp_lanes(g.order, hull_triangles(g, cycle), labellings)


def _sides(g, a, b) -> list[set[int]]:
    # Components of g with a and b removed.
    rest = set(range(g.order)) - {a, b}
    sides = []
    while rest:
        side, frontier = set(), [rest.pop()]
        while frontier:
            u = frontier.pop()
            side.add(u)
            for w in g.adjacency[u]:
                if w in rest:
                    rest.discard(w)
                    frontier.append(w)
        sides.append(side)
    return sides


class TestSeparatorLemma:
    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_triples_across_an_edge_depend_on_the_type(self, seed):
        # For every edge ab, w on one side of {a, b} and distinct y, z on the
        # other side or in {a, b}: {w, y, z} is a geodesic triple exactly
        # when g_e(y) + d(y,z) = g_e(z) or g_e(z) + d(y,z) = g_e(y).
        rng = random.Random(seed)
        g = random_mop(rng, rng.randint(6, 30))
        d = floyd_warshall(g)
        for a, b in g.edges:
            sides = _sides(g, a, b)
            for side in sides:
                far = sorted(set(range(g.order)) - side)
                for w in side:
                    e = d[w][b] - d[w][a]
                    assert e in (-1, 0, 1)
                    ge = {y: min(d[a][y], e + d[b][y]) for y in far}
                    for i, y in enumerate(far):
                        for z in far[i + 1 :]:
                            dyz = d[y][z]
                            triple = (
                                d[w][z] == d[w][y] + dyz
                                or d[w][y] == d[w][z] + dyz
                                or dyz == d[y][w] + d[w][z]
                            )
                            assert triple == (ge[y] + dyz == ge[z] or ge[z] + dyz == ge[y]), (a, b, w, y, z)


class TestMopGp:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_matches_full_enumeration_on_every_triangulation(self, n):
        # Census labels, with the hull 0..n-1, and a seeded relabelling
        # whose hull is handed over in its relabelled order; the lanes of one
        # pass carry the census labels and two seeded relabellings.
        rng = random.Random(n)
        for chords in enumerate_triangulations(n):
            g = graph_from_chords(n, chords)
            expected = brute_force_gp(g)
            assert hull_lanes(g, range(n), [range(n)])[0] == [expected]
            perms = [rng.sample(range(n), n) for _ in range(2)]
            h = relabeled(g, perms[0])
            hull = [perms[0][p] for p in range(n)]
            assert hull_lanes(h, hull, [hull])[0] == [brute_force_gp(h)]
            results, _ = hull_lanes(g, range(n), [range(n), *perms])
            assert results == [expected, *(brute_force_gp(relabeled(g, perm)) for perm in perms)]

    @pytest.mark.parametrize("n", range(10, 14))
    def test_every_class_matches_the_search(self, n):
        # Beyond full enumeration, the suffix-bound search of the test
        # helpers on the class graph's label-order conflict masks, both of
        # which share no code with the dual tree or the solver's search.
        for r in run_census(n, dedupe=True):
            g = graph_from_chords(n, r.chords)
            value, witness, _ = suffix_search(n, per_pair_block_masks(all_pairs_distances(g), n))
            assert (value, witness) == (r.gp, r.gp_witness)

    @staticmethod
    def lanes_match_one_pass_per_labelling(g, labellings):
        # Lane i equals the one-lane pass on the graph that names hull position
        # p by labellings[i][p], with its hull in that order; the merged pairs
        # depend on the frame only.
        cycle = recognize(g).cycle
        results, pairs = hull_lanes(g, cycle, labellings)
        assert len(results) == len(labellings)
        for lane, labels in zip(results, labellings):
            perm = [0] * g.order
            for p, v in enumerate(cycle):
                perm[v] = labels[p]
            one, lane_pairs = hull_lanes(relabeled(g, perm), labels, [labels])
            assert [lane] == one
            assert lane_pairs == pairs

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_lanes_match_one_pass_per_labelling(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 100)
        g = random_mop(rng, n)
        cycle = list(recognize(g).cycle)
        labellings = [cycle, *(rng.sample(range(n), n) for _ in range(rng.randint(1, 5)))]
        rng.shuffle(labellings)
        self.lanes_match_one_pass_per_labelling(g, labellings)

    @pytest.mark.parametrize("n", (48, 49, 64, 100))
    def test_lanes_hold_counts_beyond_the_label_bits(self, n):
        # From order 48 the fan's gp, floor(2n/3), reaches 32: a count of
        # 6 or 7 bits above the n label bits, which fills the lane up to
        # its guard bit.
        rng = random.Random(n)
        labellings = [rng.sample(range(n), n) for _ in range(3)]
        g = fan(n).graph
        self.lanes_match_one_pass_per_labelling(g, labellings)
        # The one-lane pass, on the fan's own labels, against the fan formula too.
        cycle = recognize(g).cycle
        [(value, witness)], _ = hull_lanes(g, cycle, [cycle])
        assert value == len(witness) == (2 * n) // 3
        assert is_gp_characterized(g, all_pairs_distances(g), witness).is_gp

    def test_one_lane_joins_as_the_guard_loop_does(self):
        # One lane joins by the plain max; with the mirrored labelling as a
        # second lane the same pass runs the guard-bit loop, whose lanes 0
        # and 1 must each agree with a one-lane pass on their own labelling,
        # with as many merges, at every order 3..80.
        rng = random.Random(80)
        for n in range(3, 81):
            for _ in range(2):
                g = random_mop(rng, n)
                cycle = list(recognize(g).cycle)
                one, merges = hull_lanes(g, cycle, [cycle])
                mirrored, _ = hull_lanes(g, cycle, [cycle[::-1]])
                two, both = hull_lanes(g, cycle, [cycle, cycle[::-1]])
                assert two == one + mirrored and merges == both

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_any_rotation_and_direction_of_the_hull(self, seed):
        # Positions along the hull are only a frame: every rotation and both
        # directions give the same value and witness.
        rng = random.Random(seed)
        g = random_mop(rng, rng.randint(4, 30))
        cycle = list(recognize(g).cycle)
        k = rng.randrange(g.order)
        turned = cycle[k:] + cycle[:k]
        if rng.random() < 0.5:
            turned.reverse()
        assert hull_lanes(g, turned, [turned])[0] == hull_lanes(g, cycle, [cycle])[0]

    def test_merged_pairs_are_nodes_explored(self):
        g = fan(9).graph
        res = gp_number(g)
        cycle = recognize(g).cycle
        assert ([(res.value, res.witness)], res.nodes_explored) == hull_lanes(g, cycle, [cycle])
        # The one triangle of K3 merges two pairs per choice of its apex.
        assert mop_gp_lanes(3, [(0, 1, 2)], [range(3)]) == ([(3, (0, 1, 2))], 8)

    def test_nodes_explored_sums_the_plans(self):
        # A MOP of order n has n - 2 joins, the root's last, and its
        # nodes_explored is the number of triples in their plans.
        plan = dual._plan
        lengths = []

        def recording(left, right):
            triples, mask = plan(left, right)
            lengths.append(len(triples))
            return triples, mask

        rng = random.Random(45)
        graphs = [fan(9).graph, *(random_mop(rng, n) for n in (3, 4, 5, 12, 40, 100))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dual, "_plan", recording)
            for g in graphs:
                lengths.clear()
                res = gp_number(g)
                assert len(lengths) == g.order - 2
                assert res.nodes_explored == sum(lengths)

    def test_no_conflict_masks_for_a_mop(self, monkeypatch):
        # A MOP, through gp_number or the census, never builds the pair
        # conflict masks of the branch and bound.
        def no_masks(g):
            raise AssertionError("conflict masks built")

        monkeypatch.setattr(solve, "_pair_block_masks", no_masks)
        rng = random.Random(7)
        for g in (fan(9).graph, random_mop(rng, 20), random_mop(rng, 40)):
            gp_number(g)
            gp_number(g, cert=recognize(g))
        assert len(run_census(8)) == 132
        with pytest.raises(AssertionError, match="conflict masks"):
            gp_number(build_graph(4, [(0, 1), (1, 2), (2, 3)]))


@contextmanager
def raw_merge():
    # The merge before the quotient: no state goes to its class's least
    # member.  Its cache is emptied on the way in and on the way out.
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dual, "_REP", {})
            dual._merge.cache_clear()
            yield mp
    finally:
        dual._merge.cache_clear()


# The states of a hull edge, (alpha, beta) = (0, 0), (0, 1), (1, 0), (1, 1).
HULL = tuple(dual._state(alpha, beta, set(), set()) for alpha in (0, 1) for beta in (0, 1))


def agreeing(states) -> set[tuple[int, int]]:
    # The pairs of a state of ac and a state of cb that agree on c.
    return {(s1, s2) for s1 in states for s2 in states if s1 >> 1 & 1 == s2 & 1}


def closure(merge) -> set[int]:
    # The states that merges reach from the hull states.
    states = set(HULL)
    while True:
        new = {r for s1, s2 in agreeing(states) if (r := merge(s1, s2)) >= 0} - states
        if not new:
            return states
        states |= new


def join_table(merge):
    # The slots, hull states first and then the others ascending, and for
    # each slot i of ac the triples (i, slot of cb, merged slot) that merge.
    slots = (*HULL, *sorted(closure(merge) - set(HULL)))
    index = {s: i for i, s in enumerate(slots)}
    joins = tuple(
        tuple((i, j, index[r]) for j, s2 in enumerate(slots) if s1 >> 1 & 1 == s2 & 1 and (r := merge(s1, s2)) >= 0)
        for i, s1 in enumerate(slots)
    )
    return slots, joins


def clear_plans():
    dual._plan.cache_clear()
    dual._rows.cache_clear()


@contextmanager
def raw_table():
    # mop_gp_lanes on the join table of the raw merge, with its plan and row
    # caches emptied on the way in and on the way out.
    with raw_merge() as mp:
        slots, joins = join_table(dual._merge)
        mp.setattr(dual, "_SLOTS", slots)
        mp.setattr(dual, "_JOINS", joins)
        clear_plans()
        try:
            yield len(slots)
        finally:
            clear_plans()


def filtered_plan(left, right):
    # The plan as the direct filter of the whole join list by both masks.
    triples = [t for i, row in enumerate(dual._JOINS) if left >> i & 1 for t in row if right >> t[1] & 1]
    return triples, sum({1 << k for _, _, k in triples})


def filtered_masks() -> set[int]:
    # The presence masks that joins reach from the hull mask, by the direct filter.
    masks = {0b1111}
    while True:
        new = {filtered_plan(left, right)[1] for left in masks for right in masks} - masks
        if not new:
            return masks
        masks |= new


class TestQuotient:
    def test_rep_is_the_coarsest_congruence(self):
        # Refine the partition by (alpha, beta) until each state's class
        # fixes the classes of its merges on either side, a rejected pair
        # being a class of its own; the least member of each class stands
        # for it.
        with raw_merge():
            states = sorted(closure(dual._merge))
            block = {s: s & 3 for s in states}

            def after(r):
                return block[r] if r >= 0 else -1

            while True:
                signatures = {
                    s: (
                        block[s],
                        tuple(after(dual._merge(s, z)) for z in states if s >> 1 & 1 == z & 1),
                        tuple(after(dual._merge(z, s)) for z in states if z >> 1 & 1 == s & 1),
                    )
                    for s in states
                }
                ids: dict[tuple, int] = {}
                refined = {s: ids.setdefault(signatures[s], len(ids)) for s in states}
                if len(ids) == len(set(block.values())):
                    break
                block = refined
        least: dict[int, int] = {}
        for s in states:
            least.setdefault(block[s], s)
        assert len(states) == 41
        assert len(least) == 22
        assert {s: least[block[s]] for s in states if s != least[block[s]]} == dual._REP
        assert all(s & 3 == r & 3 for s, r in dual._REP.items())

    def test_join_list_is_derived_from_merge(self):
        assert join_table(dual._merge) == (dual._SLOTS, dual._JOINS)
        assert sum(map(len, dual._JOINS)) == 147

    def test_joins_reach_24_presence_masks(self):
        # Any two reachable tables can meet at a triangle, so the masks that
        # joins reach from the hull mask close under _plan: 24 masks, hence
        # at most 576 plans, the root's among them.
        masks = {0b1111}
        while True:
            new = {dual._plan(left, right)[1] for left in masks for right in masks} - masks
            if not new:
                break
            masks |= new
        assert len(masks) == 24

    def test_plans_from_rows_equal_the_filtered_join_list(self):
        # Every plan of two reachable masks holds the direct filter's
        # triples in its order and its mask; one row set per right mask
        # serves them all.
        clear_plans()
        masks = filtered_masks()
        assert len(masks) == 24
        for left in masks:
            for right in masks:
                assert dual._plan(left, right) == filtered_plan(left, right)
        assert dual._rows.cache_info().currsize == 24
        assert dual._plan.cache_info().currsize == 24 * 24

    def test_no_run_calls_merge(self):
        # The join list is a literal: neither a MOP solve nor the census
        # derives it.
        dual._merge.cache_clear()
        gp_number(random_mop(random.Random(5), 40))
        assert len(run_census(8)) == 132
        info = dual._merge.cache_info()
        assert info.hits + info.misses == 0

    def test_import_leaves_the_caches_empty(self):
        # What importing the package pays for is the literal, not a derivation.
        src = str(Path(dual.__file__).resolve().parents[1])
        code = (
            "import gpmop\n"
            "from gpmop import dual\n"
            "print(*(f.cache_info().currsize for f in (dual._merge, dual._rows, dual._plan)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src, check=True)
        assert proc.stdout == "0 0 0\n"

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_quotient_dp_equals_raw_dp(self, seed):
        # The raw merge's 41 states run through the same joins.
        rng = random.Random(seed)
        n = rng.randint(4, 100)
        g = random_mop(rng, n)
        cycle = list(recognize(g).cycle)
        labellings = [rng.sample(range(n), n) for _ in range(rng.randint(1, 5))]
        results, pairs = hull_lanes(g, cycle, labellings)
        with raw_table() as slots:
            assert slots == 41
            raw, raw_pairs = hull_lanes(g, cycle, labellings)
        assert results == raw
        assert pairs <= raw_pairs

    def test_full_enumeration_reaches_every_quotient_pair(self):
        # The triangulations of orders 3..9, each checked against
        # brute_force_gp in TestMopGp, join tables whose present states
        # form all 292 pairs of the 22 states that agree on c; 147 of them
        # merge and the rest are rejected.
        plan = dual._plan
        seen = set()

        def recording(left, right):
            lefts, rights = ([s for i, s in enumerate(dual._SLOTS) if mask >> i & 1] for mask in (left, right))
            seen.update((s1, s2) for s1 in lefts for s2 in rights if s1 >> 1 & 1 == s2 & 1)
            return plan(left, right)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dual, "_plan", recording)
            for n in range(3, 10):
                for chords in enumerate_triangulations(n):
                    hull_lanes(graph_from_chords(n, chords), range(n), [range(n)])
        merge = dual._merge
        states = closure(merge)
        assert len(states) == 22
        assert seen == agreeing(states)
        assert len(seen) == 292
        assert sum(merge(s1, s2) >= 0 for s1, s2 in seen) == 147


def polygon(m, chords):
    # The polygon 0..m-1 with chords; order 2 is the edge (0, 1) alone.
    return build_graph(m, sorted({(i, i + 1) for i in range(m - 1)} | {(0, m - 1)} | set(chords)))


def realizations() -> dict[int, tuple[int, tuple, list[int]]]:
    # For each defined state on the base edge (0, m-1) of a triangulated
    # polygon of order m <= 7: the first general position set that has it,
    # by order, triangulation and bitmask, as (m, chords, members).
    found: dict[int, tuple[int, tuple, list[int]]] = {}
    for m in range(2, 8):
        for chords in enumerate_triangulations(m) if m > 2 else [()]:
            d = floyd_warshall(polygon(m, chords))
            for mask in range(1 << m):
                members = [v for v in range(m) if mask >> v & 1]
                if in_general_position(d, members):
                    found.setdefault(arc_state(d, 0, m - 1, members), (m, chords, members))
    return found


def glued(left, right) -> tuple[int, set, list[int]]:
    # Two realizations as the sides ac and cb of the root triangle (0, k, b)
    # of one polygon of order b + 1: the right one shifted by k.
    (m1, chords1, members1), (m2, chords2, members2) = left, right
    k = m1 - 1
    b = k + m2 - 1
    chords = {*chords1, (0, k), (k, b), *((u + k, v + k) for u, v in chords2)}
    return b + 1, chords, sorted({*members1, *(v + k for v in members2)})


class TestMergePairByPair:
    def test_merge_is_the_state_of_the_union(self):
        # The DP is exact at every order, by induction over the dual tree,
        # when _merge sends the defined states of any two sides that agree
        # on c to the defined state of their union, and returns -1 exactly
        # when the union is not in general position.  Every raw state is
        # realized on a polygon of order at most 7, and each pair of
        # realizations that agree on c is glued at a root triangle, so that
        # one union per raw pair is checked.  The realized states are all
        # that the merge reaches from the hull states, and the congruence
        # test of _REP carries the check over to the 22 slots.
        found = realizations()
        pairs = sorted(agreeing(found))
        mismatches, rejected, largest = [], 0, 0
        with raw_merge():
            for s1, s2 in pairs:
                m, chords, members = glued(found[s1], found[s2])
                largest = max(largest, m)
                d = floyd_warshall(polygon(m, chords))
                union = arc_state(d, 0, m - 1, members) if in_general_position(d, members) else -1
                rejected += union < 0
                if dual._merge(s1, s2) != union:
                    mismatches.append((s1, s2, union))
            states = closure(dual._merge)
        assert mismatches == []
        assert set(found) == states
        assert (len(found), len(pairs), rejected, largest) == (41, 1021, 801, 13)


class TestOrderSixteenCapClass:
    # Two degree-9 hubs, 7 and 15, whose fans share the triangles (3, 7, 15)
    # and (7, 11, 15).
    CHORDS = "1-15;2-15;3-7;3-15;4-7;5-7;7-9;7-10;7-11;7-15;11-15;12-15;13-15"

    def graph(self):
        chords = tuple(tuple(int(v) for v in c.split("-")) for c in self.CHORDS.split(";"))
        return graph_from_chords(16, chords)

    def test_attains_the_cap(self):
        g = self.graph()
        witness = (0, 1, 3, 5, 6, 8, 9, 11, 13, 14)
        assert brute_force_gp(g) == (10, witness)
        res = gp_number(g)
        assert (res.value, res.witness) == (10, witness)

    def test_is_not_in_the_extremal_catalog(self):
        # The catalog of floor(2n/3) attainers misses this class.
        assert canonical_form(recognize(self.graph())) not in expected_extremal_keys(16)
