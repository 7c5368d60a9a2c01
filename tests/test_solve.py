import random
from contextlib import suppress
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmop import (
    Disconnected,
    HullNotHamiltonian,
    MopCertificate,
    NotAnMop,
    SearchCapExceeded,
    StructureViolation,
    WrongEdgeCount,
    all_pairs_distances,
    build_graph,
    complete,
    cycle,
    fan,
    generalized_sunflower,
    gp_number,
    is_gp_characterized,
    is_gp_naive,
    mop_greedy_lower_bound,
    mop_stats,
    path,
    quasi_fan,
    recognize,
    run_census,
    straight_linear_2tree,
)
from gpmop import census, graph, mop, solve
from gpmop.census import graph_from_chords
from gpmop.mop import check_certificate
from helpers import (
    brute_force_gp,
    eager_row_search,
    exhaustive_interval,
    floyd_warshall,
    geodesic_triples,
    incumbent_search,
    mirrored,
    per_pair_block_masks,
    random_connected_graph,
    random_mop,
    random_moved_chord,
    relabeled,
    suffix_search,
)


def _block_masks(g):
    # Label-order masks, which the oracles read.
    return per_pair_block_masks(all_pairs_distances(g), g.order)


def _label_masks(g):
    # solve._pair_block_masks(g) read back in label order: entry [b][a],
    # a < b, of the mirrored graph's masks names the pair of vertices
    # n-1-a and n-1-b, and its bit c vertex n-1-c.
    n = g.order
    blocks = [[0] * n for _ in range(n)]
    for b, row in enumerate(solve._pair_block_masks(g)):
        for a, mask in enumerate(row):
            mask = sum(1 << n - 1 - c for c in range(n) if mask >> c & 1)
            blocks[n - 1 - a][n - 1 - b] = blocks[n - 1 - b][n - 1 - a] = mask
    return blocks


def _assert_kept_entries(g):
    # Row b of the search's masks has length b, and each entry is the
    # per-pair oracle's on the mirrored distance table.
    n = g.order
    blocks = solve._pair_block_masks(g)
    expected = per_pair_block_masks(mirrored(floyd_warshall(g)), n)
    assert [len(row) for row in blocks] == list(range(n))
    for b, row in enumerate(blocks):
        assert row == expected[b][:b], (n, b)


def _mask_triples(g) -> set[int]:
    # Every triple named by the search's pair masks, as a vertex bitmask.
    blocks = _label_masks(g)
    n = g.order
    return {
        (1 << a) | (1 << b) | (1 << c)
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(n)
        if (blocks[a][b] >> c) & 1
    }


class TestPairBlockMasks:
    def test_path_three(self):
        assert _mask_triples(path(3).graph) == {0b111}

    def test_complete_graph_has_none(self):
        assert not _mask_triples(complete(5).graph)

    def test_four_cycle(self):
        assert len(_mask_triples(cycle(4).graph)) == 4

    def test_masks_match_triples(self):
        # Each triple is named by all three of its pairs, and the triples are
        # the Floyd-Warshall oracle's.
        g = fan(7).graph
        blocks = _label_masks(g)
        for a, b, c in permutations(range(g.order), 3):
            assert (blocks[a][b] >> c) & 1 == (blocks[a][c] >> b) & 1 == (blocks[b][a] >> c) & 1
        assert _mask_triples(g) == set(geodesic_triples(g))

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_path_enumeration(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8))
        n = g.order
        blocks = _label_masks(g)
        between = {(u, v): exhaustive_interval(g, u, v) for u, v in permutations(range(n), 2)}
        for a, b, c in permutations(range(n), 3):
            expected = c in between[a, b] or a in between[b, c] or b in between[a, c]
            assert bool((blocks[a][b] >> c) & 1) == expected, (a, b, c)

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pair_masks(self, seed, mop):
        # The masks built from the level walk are those of testing each
        # triple from each of its three pairs, on every entry the search
        # reads.
        rng = random.Random(seed)
        n = rng.randint(9, 40)
        _assert_kept_entries(random_mop(rng, n) if mop else random_connected_graph(rng, n))

    @pytest.mark.parametrize(
        "family,orders",
        [
            ("complete", range(1, 9)),
            ("path", [*range(2, 41), *range(64, 71)]),
            ("cycle", range(3, 41)),
            ("star", range(2, 41)),
            ("sparse", range(64, 71)),
        ],
        ids=["complete", "path", "cycle", "star", "sparse"],
    )
    def test_level_sets_on_extreme_shapes(self, family, orders):
        # Shapes the random property rarely draws: every pair adjacent (K_n),
        # down to K_1, whose ball is full before the sweep's first round,
        # eccentricity n - 1 (P_n), which takes n - 1 rounds, also with masks
        # wider than 63 bits, odd and even cycles, one centre between every
        # two leaves (K_{1,n-1}), and sparse graphs whose masks are wider
        # than 63 bits.
        for n in orders:
            if family == "star":
                g = build_graph(n, [(0, v) for v in range(1, n)])
            elif family == "sparse":
                g = random_connected_graph(random.Random(n), n, 0.005)
            else:
                g = {"complete": complete, "path": path, "cycle": cycle}[family](n).graph
            _assert_kept_entries(g)

    def test_no_neighbour_masks(self):
        # The sweep reads the adjacency rows: the masks leave the graph's
        # neighbour masks unbuilt.
        g = random_connected_graph(random.Random(5), 30, 0.12)
        solve._pair_block_masks(g)
        assert "neighbour_masks" not in vars(g)


class TestGpNumber:
    @pytest.mark.parametrize(
        "graph_builder,expected",
        [
            (lambda: complete(5).graph, 5),
            (lambda: fan(9).graph, 6),
            (lambda: straight_linear_2tree(8).graph, 3),
            (lambda: generalized_sunflower(7).graph, 4),
            (lambda: path(6).graph, 2),
            (lambda: cycle(4).graph, 2),
            (lambda: quasi_fan(1, 7).graph, 4),
        ],
    )
    def test_known_values(self, graph_builder, expected):
        assert gp_number(graph_builder()).value == expected

    def test_witness_verifies_and_is_lexicographically_least(self):
        g = fan(9).graph
        res = gp_number(g)
        dist = all_pairs_distances(g)
        assert is_gp_characterized(g, dist, res.witness).is_gp
        assert is_gp_naive(g, dist, res.witness).is_gp
        assert res.witness == (0, 1, 3, 4, 6, 7)
        assert res.nodes_explored > 0

    def test_determinism_across_runs(self):
        rng = random.Random(11)
        g = random_connected_graph(rng, 9)
        results = {(r.value, r.witness, r.nodes_explored) for r in (gp_number(g) for _ in range(3))}
        assert len(results) == 1

    def test_certificate_seeding_changes_nothing(self):
        # A certificate names the hull order that gp_number recognizes on its
        # own, so the search and its answer stay the same.
        g = generalized_sunflower(10).graph
        with_cert = gp_number(g, cert=recognize(g))
        without = gp_number(g)
        assert with_cert == without

    def test_given_certificate_is_compared_not_cut(self, monkeypatch):
        # A certificate carries nothing the graph lacks: on a fresh graph a
        # right certificate and a wrong one each search the hull once and cut
        # once, along the hull found from the graph, and on a proved graph a
        # wrong certificate does neither.  The wrong ones are a turn of the
        # hull and the label-order polygon of the relabelled MOP.
        hulls, cuts = [], []

        def counted_hull(h):
            cycle = real_hull(h)
            hulls.append(tuple(cycle))
            return cycle

        def counted_cut(h, cycle):
            cuts.append(tuple(cycle))
            return real_cut(h, cycle)

        real_hull, real_cut = mop._hull, mop.hull_triangles
        g = random_mop(random.Random(5), 30)
        cert = recognize(g)
        assert cert.cycle != tuple(range(30))
        ring = {(p, p + 1) for p in range(29)} | {(0, 29)}
        wrong = [
            MopCertificate(30, cert.cycle[1:] + cert.cycle[:1], cert.chords),
            MopCertificate(30, tuple(range(30)), g.edges - ring),
        ]
        monkeypatch.setattr(mop, "_hull", counted_hull)
        monkeypatch.setattr(mop, "hull_triangles", counted_cut)
        for bad in wrong:
            h = build_graph(30, sorted(g.edges))
            for _ in range(2):
                with pytest.raises(StructureViolation, match="chord set"):
                    gp_number(h, cert=bad)
                assert hulls == cuts == [cert.cycle]
            hulls.clear()
            cuts.clear()
        assert gp_number(build_graph(30, sorted(g.edges)), cert=cert) == gp_number(g)
        assert hulls == cuts == [cert.cycle]

    def test_recognized_mop_is_not_proved_again(self, monkeypatch):
        # Each graph object runs one hull_triangles, along the hull found from
        # g or along the given certificate's cycle, and the dual tree takes
        # that cut's triangles; the proof is kept on g, so recognize and every
        # later solve of the same object cut nothing, and both routes give
        # one result.  An equal but distinct graph is proved again.
        calls = []

        def counted(g, cycle):
            calls.append(tuple(cycle))
            return real_hull(g, cycle)

        real_hull = mop.hull_triangles
        monkeypatch.setattr(mop, "hull_triangles", counted)
        # solve imports no hull_triangles; a name bound there would be counted too.
        monkeypatch.setattr(solve, "hull_triangles", counted, raising=False)
        rng = random.Random(68)
        for n in range(3, 201):
            g = random_mop(rng, n)
            res = gp_number(g)
            cert = recognize(g)
            assert calls == [cert.cycle], n
            calls.clear()
            assert gp_number(g, cert=cert) == res == gp_number(g), n
            assert calls == [], n
            assert gp_number(build_graph(n, sorted(g.edges)), cert=cert) == res, n
            assert calls == [cert.cycle], n
            calls.clear()

    def test_certificate_free_mop_is_cut_once(self, monkeypatch):
        # Without a certificate, the one ear cut that proves g maximal
        # outerplanar also hands the dual tree its triangles.
        cuts = []

        def counted(q):
            cuts.append(q)
            return real_cut(q)

        real_cut = mop.ear_cut
        monkeypatch.setattr(mop, "ear_cut", counted)
        # solve imports no ear_cut; a name bound there would be counted too.
        monkeypatch.setattr(solve, "ear_cut", counted, raising=False)
        rng = random.Random(35)
        for n in range(3, 101):
            g = random_mop(rng, n)
            gp_number(g)
            assert len(cuts) == 1, n
            cuts.clear()

    def test_non_mop_with_mop_edge_count_keeps_label_order(self):
        # K_{3,3} has 2n - 3 = 9 edges but is not maximal outerplanar.  These
        # parts are not swapped by v -> 5-v, so label-order masks handed to
        # the search would give another witness.
        g = build_graph(6, [(min(a, b), max(a, b)) for a in (0, 1, 4) for b in (2, 3, 5)])
        res = gp_number(g)
        assert (res.value, res.witness) == suffix_search(6, _block_masks(g))[:2]
        assert res.nodes_explored == solve._search(6, solve._pair_block_masks(g))[2]

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_moved_chord_fails_the_proof_then_searches(self, seed):
        # 2n-3 edges that are not maximal outerplanar: gp_number tries the
        # proof from the graph, which fails, and then searches in label order.
        rng = random.Random(seed)
        g = random_moved_chord(rng, rng.randint(5, 24))
        n = g.order
        assert len(g.edges) == 2 * n - 3
        with pytest.raises(NotAnMop):
            recognize(g)
        res = gp_number(g)
        value, witness, nodes = eager_row_search(n, _block_masks(g))
        assert (res.value, res.witness, res.nodes_explored) == (value, witness, nodes)
        assert (value, witness) == suffix_search(n, _block_masks(g))[:2]

    @pytest.mark.parametrize("graph", [fan(9).graph, cycle(7).graph], ids=["mop", "search"])
    def test_count_off_its_witness_is_an_internal_error(self, graph, monkeypatch):
        # A general position witness one short of the reported gp, from either route.
        def one_more(solver):
            def wrapped(*args):
                value, witness, nodes = solver(*args)
                return value + 1, witness, nodes

            return wrapped

        def lanes_one_more(n, triangles, labellings):
            results, pairs = real_lanes(n, triangles, labellings)
            return [(value + 1, witness) for value, witness in results], pairs

        real_lanes = solve.mop_gp_lanes
        monkeypatch.setattr(solve, "mop_gp_lanes", lanes_one_more)
        monkeypatch.setattr(solve, "_search", one_more(solve._search))
        with pytest.raises(RuntimeError, match="internal: solver returned .* vertices for gp"):
            gp_number(graph)

    def test_search_cap(self):
        g = path(41).graph
        with pytest.raises(SearchCapExceeded):
            gp_number(g)
        assert gp_number(g, force=True).value == 2

    def test_mop_search_cap(self, monkeypatch):
        # Just above the MOP cap: only the linear connectivity test and
        # recognize run before the cap refuses the solve.
        g = random_mop(random.Random(1), solve.MOP_SEARCH_CAP + 1)
        with pytest.raises(SearchCapExceeded, match=f"search cap {solve.MOP_SEARCH_CAP};"):
            gp_number(g)
        # Above the search cap of 40 a MOP is still solved; with a MOP cap of
        # 50, order 50 is solved and order 51 refused unless forced.
        h = random_mop(random.Random(2), 50)
        expected = gp_number(h)
        monkeypatch.setattr(solve, "MOP_SEARCH_CAP", 50)
        assert gp_number(h) == expected
        h = random_mop(random.Random(2), 51)
        with pytest.raises(SearchCapExceeded, match="search cap 50;"):
            gp_number(h)
        with pytest.raises(SearchCapExceeded, match="search cap 50;"):
            gp_number(h, cert=recognize(h))
        assert gp_number(h, force=True) == gp_number(h, cert=recognize(h), force=True)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            gp_number(build_graph(4, [(0, 1), (2, 3)]))

    def test_disconnected_order_two(self):
        # Connectivity is checked before the search.
        with pytest.raises(Disconnected):
            gp_number(build_graph(2, []))

    @pytest.mark.parametrize(
        "cert",
        [
            recognize(fan(6).graph),
            MopCertificate(6, (0, 1, 2, 3, 4, 5), frozenset({(0, 2)})),
            recognize(fan(5).graph),
        ],
        ids=["fan", "broken", "other_order"],
    )
    def test_disconnected_with_a_certificate(self, cert):
        # Connectivity is checked before the certificate, whatever it is.
        with pytest.raises(Disconnected):
            gp_number(build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), cert=cert)

    def test_disconnected_with_a_mop_edge_count(self):
        # K5 and a disjoint edge: 11 = 2n - 3 edges on 7 vertices.
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 6)]
        with pytest.raises(Disconnected):
            gp_number(build_graph(7, edges))

    def test_connected_non_mop_with_a_mop_edge_count(self):
        # K5 with a pendant path 4-5-6-7: 13 = 2n - 3 edges on 8 vertices.
        # recognize rejects it after its own connectivity test, and the
        # search takes over.
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(4, 5), (5, 6), (6, 7)]
        g = build_graph(8, edges)
        res = gp_number(g)
        assert (res.value, res.witness) == brute_force_gp(g)

    def test_mop_reads_only_the_rows_its_check_needs(self, monkeypatch):
        # On a MOP no full distance table, no conflict masks and no BFS at
        # all: a successful proof implies connectivity, on a recognized graph
        # and on a fresh one, with or without a certificate.
        # The witness check walks BFS levels as bitmasks and builds no row;
        # this witness lacks vertex 0, so a row for it would show.
        def forbidden(*args):
            raise AssertionError("distance table or conflict masks built")

        def counted(g, source):
            sources.append(source)
            return real_bfs(g, source)

        real_bfs, sources = graph.bfs_distances, []
        monkeypatch.setattr(graph, "bfs_distances", counted)
        monkeypatch.setattr(graph, "all_pairs_distances", forbidden)
        monkeypatch.setattr(solve, "_pair_block_masks", forbidden)
        g = random_mop(random.Random(7), 30)
        cert = recognize(g)
        for h, c in ((g, cert), (build_graph(30, sorted(g.edges)), cert), (build_graph(30, sorted(g.edges)), None)):
            res = gp_number(h, cert=c)
            assert 0 not in res.witness
            assert sources == []
        rng = random.Random(30)
        for n in range(3, 10):
            h = random_mop(rng, n)
            res = gp_number(h)
            assert (res.value, res.witness) == brute_force_gp(h)

    def test_mop_without_certificate_runs_no_bfs(self, monkeypatch):
        # The proof from g implies connectivity, so a MOP solve runs no BFS,
        # also when the witness holds vertex 0 and when labels run off the hull.
        def counted(g, source):
            sources.append(source)
            return real_bfs(g, source)

        real_bfs, sources = graph.bfs_distances, []
        monkeypatch.setattr(graph, "bfs_distances", counted)
        rng = random.Random(31)
        zero_in_witness = 0
        for n in (3, 12, 30, 60):
            for g in (random_mop(rng, n), relabeled(random_mop(rng, n), rng.sample(range(n), n))):
                zero_in_witness += 0 in gp_number(g).witness
                assert sources == []
        assert zero_in_witness

    def test_one_graph_is_proved_once(self, monkeypatch):
        # recognize, then the certified solve, mop_stats and the fan bound on
        # one graph cut once and run no BFS; an equal but distinct graph is
        # proved again, and a returned triangle list is the caller's own.
        cuts, sources = [], []

        def counted_cut(g, cycle):
            cuts.append(g)
            return real_hull(g, cycle)

        def counted_bfs(g, source):
            sources.append(source)
            return real_bfs(g, source)

        real_hull, real_bfs = mop.hull_triangles, graph.bfs_distances
        monkeypatch.setattr(mop, "hull_triangles", counted_cut)
        monkeypatch.setattr(graph, "bfs_distances", counted_bfs)
        rng = random.Random(42)
        for n in (3, 4, 9, 40):
            g = random_mop(rng, n)
            cert = recognize(g)
            res = gp_number(g, cert=cert)
            stats = mop_stats(g, cert)
            bound = mop_greedy_lower_bound(g, cert)
            assert cuts == [g] and sources == [], n
            twin = build_graph(n, sorted(g.edges))
            assert twin == g and twin is not g
            assert gp_number(twin, cert=cert) == res and recognize(twin) == cert
            assert len(cuts) == 2 and cuts[1] is twin and sources == [], n
            triangles = check_certificate(g, cert)
            triangles.reverse()
            triangles.append((0, 0, 0))
            assert check_certificate(g, cert) == triangles[-2::-1]
            assert gp_number(g, cert=cert) == gp_number(g) == res
            assert mop_stats(g, cert) == stats and mop_greedy_lower_bound(g, cert) == bound
            assert len(cuts) == 2 and sources == [], n
            cuts.clear()

    def test_bad_certificate(self):
        from gpmop import MopCertificate, StructureViolation

        g = fan(6).graph
        broken = MopCertificate(6, (0, 1, 2, 3, 4, 5), frozenset({(0, 2)}))
        with pytest.raises(StructureViolation):
            gp_number(g, cert=broken)

    def test_triangle_certificate_with_a_chord(self):
        from gpmop import MopCertificate, StructureViolation

        broken = MopCertificate(3, (0, 1, 2), frozenset({(0, 2)}))
        with pytest.raises(StructureViolation):
            gp_number(complete(3).graph, cert=broken)

    def test_certificate_with_crossing_chords(self):
        # C5 plus (0,2) and (1,3) is not maximal outerplanar: the proof from
        # its own hull finds that vertex 4's edges lie in no triangle.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        cert = MopCertificate(5, (0, 1, 2, 3, 4), frozenset({(0, 2), (1, 3)}))
        with pytest.raises(HullNotHamiltonian, match="single-triangle edges give vertex 4 hull degree 0"):
            gp_number(g, cert=cert)

    def test_certificate_below_order_three(self):
        # No order-2 graph is maximal outerplanar, so every certificate fails
        # with recognize's own error.
        g = build_graph(2, [(0, 1)])
        for cert in (MopCertificate(2, (0, 1), frozenset()), MopCertificate(5, (0,), frozenset())):
            with pytest.raises(WrongEdgeCount, match="order 2 is below the minimum of 3"):
                gp_number(g, cert=cert)

    def test_tiny_graphs(self):
        one = gp_number(build_graph(1, []))
        two = gp_number(build_graph(2, [(0, 1)]))
        assert (one.value, one.witness, one.nodes_explored) == (1, (0,), 0)
        assert (two.value, two.witness, two.nodes_explored) == (2, (0, 1), 1)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_exhaustive_enumeration_on_triangulations(self, n):
        for rec in run_census(n, dedupe=True):
            g = graph_from_chords(n, rec.chords)
            value, witness = brute_force_gp(g)
            assert rec.gp == value
            assert rec.gp_witness == witness

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8))
        res = gp_number(g)
        value, witness = brute_force_gp(g)
        assert res.value == value
        assert res.witness == witness

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_incumbent_search(self, seed, mop):
        # The suffix-bound search against a plain incumbent branch and bound
        # on orders past the reach of full enumeration.
        rng = random.Random(seed)
        if mop:
            g = random_mop(rng, rng.randint(10, 24))
        else:
            g = random_connected_graph(rng, rng.randint(9, 16))
        res = gp_number(g)
        assert (res.value, res.witness) == incumbent_search(g.order, _block_masks(g))

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_suffix_search(self, seed, mop):
        # The clique cover only cuts subtrees of the suffix-bound search, so
        # the value and witness stay and the node count cannot grow.  A MOP
        # goes to the dual-tree program, which must give the same answer.
        rng = random.Random(seed)
        if mop:
            g = random_mop(rng, rng.randint(25, 40))
        else:
            g = random_connected_graph(rng, rng.randint(17, 30))
        res = gp_number(g)
        value, witness, nodes = suffix_search(g.order, _block_masks(g))
        assert (res.value, res.witness) == (value, witness)
        if not mop:
            assert res.nodes_explored <= nodes

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_node_counts_match_eager_rows(self, seed):
        # Writing a node's rows only once its cover fails to prune visits the
        # same nodes in the same order as writing every child's rows first.
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(17, 30))
        assert solve._search(g.order, solve._pair_block_masks(g)) == eager_row_search(g.order, _block_masks(g))

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mirrored_search_matches_label_order(self, seed, wide):
        # The search reads vertex v as bit n-1-v and the oracle as bit v; both
        # must visit the same nodes and return the same set, also on sparse
        # graphs whose masks are wider than 63 bits.
        rng = random.Random(seed)
        if wide:
            g = random_connected_graph(rng, rng.randint(64, 70), 0.005)
        else:
            g = random_connected_graph(rng, rng.randint(1, 30), 0.12)
        res = gp_number(g, force=True)
        value, witness, nodes = eager_row_search(g.order, _block_masks(g))
        assert (res.value, res.witness) == (value, witness)
        with suppress(NotAnMop):
            recognize(g)
            return  # a MOP takes the dual-tree route, which counts other nodes
        assert res.nodes_explored == nodes

    @pytest.mark.parametrize("family", ["complete", "path", "cycle", "star"])
    def test_mirrored_search_on_extreme_shapes(self, family):
        # No conflicts (K_n), gp 2 (P_n), gp 3 from order 7 (C_n) and all
        # n-1 leaves in general position (K_{1,n-1}), up to the search cap.
        for n in range(3, solve.DEFAULT_SEARCH_CAP + 1):
            if family == "star":
                g = build_graph(n, [(0, v) for v in range(1, n)])
            else:
                g = {"complete": complete, "path": path, "cycle": cycle}[family](n).graph
            res = gp_number(g)
            value, witness, nodes = suffix_search(n, _block_masks(g))
            assert (res.value, res.witness) == (value, witness), n
            if len(g.edges) != 2 * n - 3:
                assert res.nodes_explored <= nodes, n

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_mop_hull_order_matches_label_order(self, seed):
        # The dual-tree program works in hull positions; value and witness
        # must equal the label-order suffix search's.
        rng = random.Random(seed)
        g = random_mop(rng, rng.randint(10, 40))
        res = gp_number(g)
        assert (res.value, res.witness) == suffix_search(g.order, _block_masks(g))[:2]

    def test_census_records_never_recognize(self, monkeypatch):
        # A census record hands the dual-tree program its known hull 0..n-1,
        # so no hull is searched for once the family catalog is built.
        census._generator_catalog(9)

        def no_recognize(g):
            raise AssertionError("census graph recognized")

        monkeypatch.setattr(census, "recognize", no_recognize)
        monkeypatch.setattr(mop, "recognize", no_recognize)
        monkeypatch.setattr(mop, "_proof", no_recognize)
        monkeypatch.setattr(solve, "_proof", no_recognize)
        records = run_census(9)
        assert len(records) == 429  # catalan(7)

    def test_clique_cover_prunes(self):
        # Four fixed order-40 graphs that are not maximal outerplanar, like
        # those of the gp-cli-40 benchmark: each node count is pinned, and
        # together they visit at most a fifth of the suffix-bound search's nodes.
        graphs = [random_connected_graph(random.Random(seed), 40, 0.12) for seed in range(4)]
        assert all(len(g.edges) != 77 for g in graphs)
        nodes = [gp_number(g).nodes_explored for g in graphs]
        assert nodes == [787, 810, 492, 643]
        reference = sum(suffix_search(40, _block_masks(g))[2] for g in graphs)
        assert reference == 26787
        assert 5 * sum(nodes) <= reference


def _maximum_sets(g):
    # Every maximum general position set, as a sorted tuple, by testing each
    # subset against the Floyd-Warshall triples.
    n = g.order
    triples = geodesic_triples(g)
    sets = [m for m in range(1 << n) if not any(t & m == t for t in triples)]
    size = max(m.bit_count() for m in sets)
    return [tuple(v for v in range(n) if m >> v & 1) for m in sets if m.bit_count() == size]


class TestWitnessSearch:
    # The search raises c for the last time at some vertex v: that search
    # found the maximum set whose least vertex v is largest.  Only the
    # searches that start below v run again, so the witness is either one of
    # theirs or, when every maximum set has least vertex v, v's own set.
    # K_n raises c at every vertex, and from order 4 a star's leaves are its
    # one maximum set, so both end at v; a path's witness {0, 1} lies below
    # v = n - 2.
    CORPUS = [
        *(complete(n).graph for n in range(1, 8)),
        *(path(n).graph for n in range(2, 10)),
        *(build_graph(n, [(0, v) for v in range(1, n)]) for n in range(3, 10)),
        *(cycle(n).graph for n in range(4, 10)),
        *(random_connected_graph(random.Random(seed), 5 + seed % 6, 0.2) for seed in range(24)),
    ]

    def test_both_exits_match_the_oracles(self):
        exits = {"below": 0, "rise": 0}
        for g in self.CORPUS:
            n = g.order
            maximum = _maximum_sets(g)
            rise = max(s[0] for s in maximum)
            value, witness, nodes = solve._search(n, solve._pair_block_masks(g))
            assert (value, witness) == suffix_search(n, _block_masks(g))[:2] == (len(maximum[0]), min(maximum))
            assert nodes == eager_row_search(n, _block_masks(g))[2]
            exits["rise" if witness[0] == rise else "below"] += 1
        assert all(exits.values()), exits


class TestGreedyLowerBound:
    def test_fan_pattern(self):
        g = fan(9).graph
        bound, witness = mop_greedy_lower_bound(g, recognize(g))
        assert bound == 6
        assert len(witness) == 6
        assert is_gp_characterized(g, all_pairs_distances(g), witness).is_gp

    def test_generalized_sunflower(self):
        g = generalized_sunflower(8).graph
        assert g.max_degree == 5
        bound, witness = mop_greedy_lower_bound(g, recognize(g))
        assert bound == 4 and len(witness) == 4

    def test_triangle(self):
        g = complete(3).graph
        bound, witness = mop_greedy_lower_bound(g, recognize(g))
        assert bound == 2 and len(witness) == 2

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_never_exceeds_gp_and_ties_fans(self, n):
        for rec in run_census(n, dedupe=True):
            g = graph_from_chords(n, rec.chords)
            bound, _ = mop_greedy_lower_bound(g, recognize(g))
            assert bound <= rec.gp
        inst = fan(n)
        g = inst.graph
        bound, _ = mop_greedy_lower_bound(g, recognize(g))
        assert bound == gp_number(g).value

    def test_bad_certificate(self):
        from gpmop import MopCertificate, StructureViolation

        g = fan(6).graph
        broken = MopCertificate(6, (0, 1, 2, 3, 4, 5), frozenset({(0, 2)}))
        with pytest.raises(StructureViolation):
            mop_greedy_lower_bound(g, broken)

    def test_triangle_certificate_with_a_chord(self):
        from gpmop import MopCertificate, StructureViolation

        broken = MopCertificate(3, (0, 1, 2), frozenset({(0, 2)}))
        with pytest.raises(StructureViolation):
            mop_greedy_lower_bound(complete(3).graph, broken)

    def test_builds_no_bfs_row(self, monkeypatch):
        # The pattern is checked by the level walk, so once the certificates
        # are recognized no BFS runs at all.
        def forbidden(*args):
            raise AssertionError("BFS row built")

        rng = random.Random(60)
        graphs = [random_mop(rng, n) for n in range(3, 61)]
        certs = [recognize(g) for g in graphs]
        monkeypatch.setattr(graph, "bfs_distances", forbidden)
        for g, cert in zip(graphs, certs):
            bound, witness = mop_greedy_lower_bound(g, cert)
            assert len(witness) == bound == (2 * (g.max_degree + 1)) // 3

    def test_order_above_the_mop_cap_is_refused_first(self, monkeypatch):
        # The neighbour masks of fan(65535) would take about 512 MB; the cap
        # is met before the certificate check or any mask is built.
        def forbidden(*args):
            raise AssertionError("certificate checked or neighbour masks built")

        g = fan(solve.MOP_SEARCH_CAP + 1).graph
        cert = recognize(g)
        monkeypatch.setattr(graph.Graph, "neighbour_masks", property(forbidden))
        monkeypatch.setattr(solve, "check_certificate", forbidden)
        with pytest.raises(SearchCapExceeded, match="order 2001 exceeds the MOP cap 2000"):
            mop_greedy_lower_bound(g, cert)

    def test_pattern_not_in_general_position_is_an_internal_error(self, monkeypatch):
        g = fan(9).graph
        bound = solve._fan_pattern(g)[0]
        dist = all_pairs_distances(g)
        bad = next(s for s in combinations(range(g.order), bound) if not is_gp_naive(g, dist, s).is_gp)
        monkeypatch.setattr(solve, "_fan_pattern", lambda h: (bound, bad))
        with pytest.raises(RuntimeError, match="internal: fan pattern is not in general position"):
            mop_greedy_lower_bound(g, recognize(g))
