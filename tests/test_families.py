import random
from itertools import combinations

import pytest

from gpmop import (
    UNREACHABLE,
    BadParam,
    WrongEdgeCount,
    canonical_form,
    complete,
    cycle,
    double_fan,
    fan,
    generalized_sunflower,
    gp_number,
    is_generalized_sunflower,
    mop_stats,
    path,
    quasi_fan,
    recognize,
    straight_linear_2tree,
    sunflower,
)
from gpmop.census import enumerate_triangulations
from helpers import first_crossing_pair


def key_of(g):
    return canonical_form(recognize(g))


class TestConstruction:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_fans_are_triangulations(self, n):
        inst = fan(n)
        cert = recognize(inst.graph)
        assert len(cert.chords) == max(n - 3, 0)
        center = inst.role_map["v"]
        assert inst.graph.degree(center) == n - 1
        assert inst.graph.degree(inst.role_map["p1"]) == 2
        assert inst.graph.degree(inst.role_map[f"p{n - 1}"]) == 2

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_quasi_fans(self, n):
        for i in range(1, n - 2):
            inst = quasi_fan(i, n)
            recognize(inst.graph)
            assert inst.graph.degree(inst.role_map["u"]) == 2

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_double_fans(self, n):
        for t in range(1, n // 3):
            for j in range(1, t + 1):
                for variant in (1, 2):
                    inst = double_fan(j, t, n, variant)
                    assert inst.graph.order == n
                    recognize(inst.graph)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_linear_2trees(self, n):
        inst = straight_linear_2tree(n)
        recognize(inst.graph)

    def test_linear_2tree_degree_profile(self):
        g = straight_linear_2tree(7).graph
        degrees = sorted(g.degree(v) for v in range(7))
        assert degrees.count(2) == 2
        assert degrees.count(3) == 2
        assert degrees.count(4) == 7 - 4

    @pytest.mark.parametrize("n", range(5, 15))
    def test_generalized_sunflowers(self, n):
        inst = generalized_sunflower(n)
        cert = recognize(inst.graph)
        stats = mop_stats(inst.graph, cert)
        assert stats.internal_triangles == n // 2 - 2
        assert stats.two_vertices == stats.internal_triangles + 2
        petals = [r for r in inst.role_map if r.startswith("v")]
        assert len(petals) == n // 2
        for role in petals:
            assert inst.graph.degree(inst.role_map[role]) == 2

    def test_sunflower_orders(self):
        assert sunflower(4).graph.order == 9
        assert sunflower(3).graph.order == 7

    def test_sunflower_is_not_a_triangulation(self):
        with pytest.raises(WrongEdgeCount):
            recognize(sunflower(4).graph)

    def test_reference_graphs(self):
        assert complete(5).predicted_gp == 5
        assert path(6).predicted_gp == 2
        assert cycle(4).graph.degree(0) == 2


class TestBadParams:
    def test_ranges(self):
        with pytest.raises(BadParam):
            fan(2)
        with pytest.raises(BadParam):
            quasi_fan(5, 7)
        with pytest.raises(BadParam):
            quasi_fan(0, 8)
        with pytest.raises(BadParam):
            double_fan(2, 1, 9, 1)
        with pytest.raises(BadParam):
            double_fan(1, 3, 9, 1)
        with pytest.raises(BadParam):
            double_fan(1, 1, 9, 3)
        with pytest.raises(BadParam):
            straight_linear_2tree(2)
        with pytest.raises(BadParam):
            sunflower(2)
        with pytest.raises(BadParam):
            generalized_sunflower(4)
        with pytest.raises(BadParam):
            complete(0)
        with pytest.raises(BadParam):
            path(1)
        with pytest.raises(BadParam):
            cycle(2)

    def test_orders_above_the_cap(self):
        big = UNREACHABLE + 1
        for build in (fan, straight_linear_2tree, generalized_sunflower, complete, path, cycle):
            with pytest.raises(BadParam, match="65535"):
                build(big)
        with pytest.raises(BadParam, match="65535"):
            quasi_fan(1, big)
        with pytest.raises(BadParam, match="65535"):
            double_fan(1, 1, big, 1)
        # The sunflower's order is 2m+1.
        with pytest.raises(BadParam, match="65535"):
            sunflower(UNREACHABLE // 2 + 1)
        assert sunflower(UNREACHABLE // 2).graph.order == UNREACHABLE

    def test_complete_edge_bound(self):
        # K_n is held to 2 * UNREACHABLE = 131,070 edges, so n <= 512.
        assert len(complete(512).graph.edges) == 512 * 511 // 2
        with pytest.raises(BadParam, match="131070 edges"):
            complete(513)

    def test_gsf_base_validation(self):
        # The build of the core names a chord off the m-gon, a self-loop, a
        # side or a repeat; the ear cut along the m-gon names a wrong count or
        # a crossing set by a face count or an edge that is no side of its
        # triangles.
        def rejects(n, chords, evidence):
            with pytest.raises(BadParam, match=f"triangulate the {(n + 1) // 2}-gon: {evidence}"):
                generalized_sunflower(n, base_chords=chords)

        rejects(10, [(0, 2)], "expected 3 inner faces, found 2")
        rejects(10, [(0, 2), (0, 3), (1, 3)], "expected 3 inner faces, found 0")
        rejects(12, [(0, 2), (1, 3), (3, 5)], "expected 4 inner faces, found 1")
        rejects(12, [(0, 2), (1, 4), (2, 5)], r"edge \(0,2\) is no side of the triangles")
        rejects(10, [(0, 1), (0, 3)], r"duplicate edge \(0,1\)")
        rejects(10, [(0, 7), (0, 2)], r"edge \(0,7\) has an endpoint outside 0..4")
        rejects(10, [(0, 2), (2, 0)], r"duplicate edge \(2,0\)")
        rejects(10, [(2, 2), (0, 2)], r"self-loop \(2,2\)")

    def test_every_set_of_m_minus_3_diagonals(self):
        # generalized_sunflower(2m) accepts exactly the base chord sets that
        # the pair scan finds non-crossing, and then its core is the m-gon's
        # sides plus those chords: 16,601 sets at m = 4..8.  The scan is
        # run once per pair of diagonals, since a set crosses exactly when
        # one of its pairs does.
        accepted = 0
        for m in range(4, 9):
            sides = {(i, i + 1) for i in range(m - 1)} | {(0, m - 1)}
            diagonals = [e for e in combinations(range(m), 2) if e not in sides]
            crossing = {pair for pair in combinations(diagonals, 2) if first_crossing_pair(range(m), pair)}
            for chords in combinations(diagonals, m - 3):
                crosses = not crossing.isdisjoint(combinations(chords, 2))
                try:
                    g = generalized_sunflower(2 * m, base_chords=chords).graph
                except BadParam as exc:
                    assert crosses and f"triangulate the {m}-gon: " in str(exc)
                else:
                    assert not crosses
                    assert {(u, v) for u, v in g.edges if v < m} == sides | set(chords)
                    accepted += 1
        assert accepted == sum(len(list(enumerate_triangulations(m))) for m in range(4, 9))

    def test_seeded_malformed_base_chords(self):
        # A triangulation's chords with one fault: an endpoint off the m-gon,
        # a side, a repeated chord, a self-loop, one chord too few or one too
        # many, at n = 2m-1 and n = 2m.
        rng = random.Random(39)
        wrong_count = "inner faces|is no side|is no edge"
        for m in range(4, 9):
            sides = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
            diagonals = [e for e in combinations(range(m), 2) if e not in sides]
            triangulations = list(enumerate_triangulations(m))
            for _ in range(20):
                chords = list(rng.choice(triangulations))
                k = rng.randrange(len(chords))
                v = rng.randrange(m)
                off = rng.choice([-1, -m, m, m + 1, 3 * m])
                extra = rng.choice([e for e in diagonals if e not in chords])
                faults = [
                    ("has an endpoint outside", [*chords[:k], (v, off), *chords[k + 1 :]]),
                    ("duplicate edge", [*chords[:k], rng.choice(sides), *chords[k + 1 :]]),
                    ("duplicate edge", [*chords, chords[k][::-1]]),
                    ("self-loop", [*chords[:k], (v, v), *chords[k + 1 :]]),
                    (wrong_count, chords[:k] + chords[k + 1 :]),
                    (wrong_count, [*chords, extra]),
                ]
                for evidence, bad in faults:
                    bad = [e[::-1] if rng.random() < 0.5 else e for e in rng.sample(bad, len(bad))]
                    with pytest.raises(BadParam, match=f"triangulate the {m}-gon: .*({evidence})"):
                        generalized_sunflower(2 * m - rng.randrange(2), base_chords=bad)

    def test_gsf_reversed_base_chord(self):
        inst = generalized_sunflower(10, base_chords=[(3, 0), (0, 2)])
        assert inst.graph == generalized_sunflower(10).graph


class TestIsomorphisms:
    def test_small_coincidences(self):
        assert key_of(fan(5).graph) == key_of(straight_linear_2tree(5).graph)
        assert key_of(fan(5).graph) == key_of(generalized_sunflower(5).graph)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_glued_fans_with_one_part_collapse_to_fans(self, n):
        for variant in (1, 2):
            assert key_of(double_fan(1, 1, n, variant).graph) == key_of(fan(n).graph)


class TestPredictions:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_fan_values(self, n):
        inst = fan(n)
        assert gp_number(inst.graph).value == inst.predicted_gp == (2 * n) // 3

    @pytest.mark.parametrize("n", [7, 10, 13])
    def test_quasi_and_double_fans_attain_the_cap(self, n):
        for i in range(1, n - 2):
            inst = quasi_fan(i, n)
            assert gp_number(inst.graph).value == inst.predicted_gp == (2 * n) // 3
        for t in range(1, n // 3):
            for j in range(1, t + 1):
                for variant in (1, 2):
                    inst = double_fan(j, t, n, variant)
                    assert gp_number(inst.graph).value == inst.predicted_gp

    @pytest.mark.parametrize("n", range(5, 13))
    def test_linear_2tree_values(self, n):
        inst = straight_linear_2tree(n)
        assert gp_number(inst.graph).value == inst.predicted_gp == 3

    @pytest.mark.parametrize("n", range(7, 13))
    def test_generalized_sunflower_values(self, n):
        inst = generalized_sunflower(n)
        assert gp_number(inst.graph).value == inst.predicted_gp

    def test_complete_and_path(self):
        assert gp_number(complete(5).graph).value == 5
        assert gp_number(path(6).graph).value == 2
        assert gp_number(cycle(4).graph).value == 2


class TestStructuralSunflowerTest:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_accepts_every_base_triangulation(self, n):
        m = (n + 1) // 2
        bases = list(enumerate_triangulations(m)) if m >= 4 else [()]
        for base in bases[:4]:
            inst = generalized_sunflower(n, base_chords=base)
            assert is_generalized_sunflower(inst.graph, recognize(inst.graph))

    def test_rejects_other_families(self):
        for g in (fan(8).graph, straight_linear_2tree(8).graph, quasi_fan(2, 8).graph):
            assert not is_generalized_sunflower(g, recognize(g))
