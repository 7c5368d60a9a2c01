import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmop import (
    Disconnected,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    complete,
    cycle,
    fan,
    gp_number,
    is_gp_characterized,
    is_gp_levels,
    is_gp_naive,
    path,
    run_census,
    verify,
)
from gpmop.census import graph_from_chords
from gpmop.graph import _source_rows
from helpers import induced_components, random_connected_graph, random_mop


def prepared(g):
    return g, all_pairs_distances(g)


class TestNaive:
    def test_small_sets_always_pass(self):
        g, dist = prepared(path(6).graph)
        for s in ((), (2,), (0, 3)):
            assert is_gp_naive(g, dist, s).is_gp

    def test_two_of_three_path_vertices_plus_end(self):
        g, dist = prepared(path(4).graph)
        chk = is_gp_naive(g, dist, (0, 1, 3))
        assert not chk.is_gp
        assert chk.witness_violation == (0, 1, 3)

    def test_fan_pattern_set(self):
        inst = fan(9)
        g, dist = prepared(inst.graph)
        picks = [inst.role_map[f"p{i}"] for i in (1, 2, 4, 5, 7, 8)]
        assert is_gp_naive(g, dist, picks).is_gp

    def test_violation_is_lexicographically_smallest(self):
        g, dist = prepared(path(5).graph)
        chk = is_gp_naive(g, dist, (0, 1, 2, 3))
        assert chk.witness_violation == (0, 1, 2)

    def test_out_of_range(self):
        g, dist = prepared(path(3).graph)
        with pytest.raises(VertexOutOfRange):
            is_gp_naive(g, dist, (0, 9))


class TestCharacterized:
    def test_complete_graph_is_one_block(self):
        inst = complete(5)
        g, dist = prepared(inst.graph)
        chk = is_gp_characterized(g, dist, range(5))
        assert chk.is_gp
        assert chk.clique_partition == ((0, 1, 2, 3, 4),)

    def test_fan_pattern_blocks(self):
        inst = fan(9)
        g, dist = prepared(inst.graph)
        picks = [inst.role_map[f"p{i}"] for i in (1, 2, 4, 5, 7, 8)]
        chk = is_gp_characterized(g, dist, picks)
        assert chk.is_gp
        assert chk.clique_partition == ((0, 1), (3, 4), (6, 7))

    def test_induced_path_component_fails(self):
        g, dist = prepared(path(4).graph)
        chk = is_gp_characterized(g, dist, (0, 1, 2))
        assert not chk.is_gp
        assert chk.witness_violation is None
        assert chk.clique_partition is None

    def test_distance_constant_failure(self):
        # Two blocks at mixed distances: {0} vs {3,4} on a path of 5.
        g, dist = prepared(path(5).graph)
        chk = is_gp_characterized(g, dist, (0, 3, 4))
        assert not chk.is_gp

    def test_in_transitive_failure(self):
        # Three singleton blocks, pairwise distance-constant, but collinear.
        g, dist = prepared(path(5).graph)
        chk = is_gp_characterized(g, dist, (0, 2, 4))
        assert not chk.is_gp
        assert chk.witness_violation is None
        assert chk.clique_partition is None

    def test_names_no_triple_without_the_naive_scan(self, monkeypatch):
        # The clique-partition test decides on its own: the naive test's
        # triple scan is never reached, even when the set fails.
        def scan(*args):
            raise AssertionError("the naive scan ran")

        monkeypatch.setattr(verify, "_first_violation", scan)
        g, dist = prepared(path(4).graph)
        chk = is_gp_characterized(g, dist, (0, 1, 2))
        assert not chk.is_gp
        assert chk.witness_violation is None


class TestAgreement:
    @given(st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_both_tests_agree_on_random_subsets(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9))
        dist = all_pairs_distances(g)
        members = [v for v in range(g.order) if rng.random() < 0.5]
        a = is_gp_naive(g, dist, members)
        b = is_gp_characterized(g, dist, members)
        assert a.is_gp == b.is_gp

    @given(st.integers(0, 10**9), st.integers(5, 20))
    @settings(max_examples=40, deadline=None)
    def test_both_tests_agree_on_random_mops(self, seed, n):
        rng = random.Random(seed)
        g = random_mop(rng, n)
        dist = all_pairs_distances(g)
        members = rng.sample(range(n), rng.randint(0, min(n, 8)))
        assert is_gp_naive(g, dist, members).is_gp == is_gp_characterized(g, dist, members).is_gp

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_failures_carry_a_real_geodesic_triple(self, seed):
        from gpmop import lies_on_geodesic

        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(3, 8))
        dist = all_pairs_distances(g)
        members = [v for v in range(g.order) if rng.random() < 0.6]
        chk = is_gp_naive(g, dist, members)
        if chk.is_gp:
            assert chk.witness_violation is None
        else:
            a, b, c = chk.witness_violation
            assert lies_on_geodesic(dist, a, b, c)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_heredity(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(3, 8))
        dist = all_pairs_distances(g)
        members = tuple(v for v in range(g.order) if rng.random() < 0.6)
        if not is_gp_naive(g, dist, members).is_gp:
            return
        sub = tuple(v for v in members if rng.random() < 0.5)
        assert is_gp_naive(g, dist, sub).is_gp


class TestPartitionOracle:
    """On every passing set, the clique partition is the components of the
    induced subgraph, as a BFS over adjacency finds them, and each is a
    clique."""

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_partition_is_the_induced_components(self, seed, mop):
        rng = random.Random(seed)
        if mop:
            g = random_mop(rng, rng.randint(13, 60))
        else:
            g = random_connected_graph(rng, rng.randint(2, 12), rng.choice((0.1, 0.3, 0.6)))
        dist = all_pairs_distances(g)
        witness = gp_number(g).witness
        # The witness and a subset of it pass; a random set may pass or fail.
        sets = [witness, rng.sample(witness, rng.randint(0, len(witness)))]
        sets.append(rng.sample(range(g.order), rng.randint(0, min(g.order, 6))))
        for i, s in enumerate(sets):
            chk = is_gp_characterized(g, dist, s)
            assert chk.is_gp or i == 2
            if chk.is_gp:
                assert chk.clique_partition == induced_components(g, s)
                for block in chk.clique_partition:
                    assert all(g.has_edge(a, b) for a, b in combinations(block, 2))


class TestPartialRows:
    """Both tests on only the members' BFS rows, as their callers build them,
    answer as on the full table, connectivity included."""

    @staticmethod
    def outcome(test, g, dist, members):
        try:
            return test(g, dist, members)
        except Disconnected:
            return Disconnected

    @given(st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_members_rows_match_the_full_table(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        p = rng.choice((0.2, 0.4, 0.7))
        g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        # A non-empty set: with no row given there is no row to read.
        members = rng.sample(range(n), rng.randint(1, n))
        partial, full = _source_rows(g, members), all_pairs_distances(g)
        for test in (is_gp_naive, is_gp_characterized):
            got = self.outcome(test, g, partial, members)
            assert got == self.outcome(test, g, full, members)

    def test_a_row_other_than_zero_shows_the_disconnection(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        dist = _source_rows(g, (2,))
        for test in (is_gp_naive, is_gp_characterized):
            with pytest.raises(Disconnected):
                test(g, dist, (2,))


class TestLevels:
    """The level-walk test against the naive oracle on the full table."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_naive(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(1, 10), rng.choice((0.1, 0.3, 0.6)))
        dist = all_pairs_distances(g)
        # Empty, single and duplicated ids included.
        for size in (0, 1, rng.randint(2, g.order + 2)):
            members = [rng.randrange(g.order) for _ in range(size)]
            assert is_gp_levels(g, members) == is_gp_naive(g, dist, members).is_gp

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_agrees_with_naive_at_solved_orders(self, seed, mop):
        # The orders the solver and the benchmark reach: MOPs up to 60 and
        # other graphs up to 30, on random sets and the solver's witness,
        # each also with one vertex added.
        rng = random.Random(seed)
        if mop:
            g = random_mop(rng, rng.randint(13, 60))
        else:
            g = random_connected_graph(rng, rng.randint(11, 30), rng.choice((0.1, 0.3, 0.6)))
        n = g.order
        dist = all_pairs_distances(g)
        sets = [gp_number(g).witness, rng.sample(range(n), rng.randint(2, 6))]
        sets.append(rng.sample(range(n), rng.randint(2, n)))
        for s in sets[:]:
            missing = sorted(set(range(n)) - set(s))
            if missing:
                sets.append((*s, rng.choice(missing)))
        for s in sets:
            assert is_gp_levels(g, s) == is_gp_naive(g, dist, s).is_gp

    @pytest.mark.parametrize("case", ["c6", "mop40"])
    def test_each_walk_reads_a_mask_at_most_once(self, case):
        class CountingMasks(tuple):
            def __getitem__(self, v):
                reads[v] += 1
                return tuple.__getitem__(self, v)

        if case == "c6":
            g, s = cycle(6).graph, (0, 2, 4)
        else:
            g = random_mop(random.Random(40), 40)
            s = gp_number(g).witness
        reads: Counter[int] = Counter()
        vars(g)["neighbour_masks"] = CountingMasks(g.neighbour_masks)
        assert is_gp_levels(g, s)
        assert max(reads.values()) <= max(1, len(s) - 1)

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_witness_plus_one_vertex_fails(self, seed, mop):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        g = random_mop(rng, n) if mop else random_connected_graph(rng, n)
        witness = gp_number(g).witness
        assert is_gp_levels(g, witness)
        for v in set(range(n)) - set(witness):
            assert not is_gp_levels(g, (*witness, v))

    @pytest.mark.parametrize("members", [(0, 1), (0,), (2, 3), ()])
    def test_disconnected_even_within_one_component(self, members):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            is_gp_levels(g, members)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            is_gp_levels(path(3).graph, (0, 3))


class TestTriangulationWitnessStructure:
    """All general position sets of every small triangulation class obey the
    neighbor cap and triangle-freeness, checked exhaustively."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_all_gp_sets(self, n):
        for rec in run_census(n, dedupe=True):
            g = graph_from_chords(n, rec.chords)
            dist = all_pairs_distances(g)
            for size in range(3, n + 1):
                for members in combinations(range(n), size):
                    if not is_gp_naive(g, dist, members).is_gp:
                        continue
                    wset = set(members)
                    for x in members:
                        assert len(set(g.adjacency[x]) & wset) <= 2
                    if size >= 4:
                        for a, b, c in combinations(members, 3):
                            assert not (
                                g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                            )
