import random
import time
from collections import Counter
from contextlib import suppress
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmop import (
    Disconnected,
    EdgeInTooManyTriangles,
    Graph,
    GraphError,
    HullNotHamiltonian,
    MopCertificate,
    NotAnMop,
    StructureViolation,
    WrongEdgeCount,
    build_graph,
    canonical_form,
    fan,
    generalized_sunflower,
    gp_number,
    maximal_fan,
    mop_stats,
    recognize,
    straight_linear_2tree,
)
from gpmop import families
from gpmop.census import catalan, enumerate_triangulations, graph_from_chords
from gpmop.mop import check_certificate, dihedral_images, ear_cut, hull_triangles
from helpers import (
    check_certificate_oracle,
    first_crossing_pair,
    gp_number_oracle,
    graphs_isomorphic,
    hull_triangles_oracle,
    polygon_certificate,
    proof_oracle,
    random_mop,
    random_moved_chord,
    recognized_certificate,
    relabeled,
)


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestRecognize:
    def test_fan_accepted(self):
        cert = recognize(fan(6).graph)
        assert len(cert.chords) == 3
        assert cert.cycle[0] == 0
        assert cert.cycle[1] == min(cert.cycle[1], cert.cycle[-1])

    def test_triangle_special_case(self):
        cert = recognize(complete_graph(3))
        assert cert.cycle == (0, 1, 2) and cert.chords == frozenset()

    def test_k4_wrong_edge_count(self):
        with pytest.raises(WrongEdgeCount, match="expected 5 edges for order 4, found 6"):
            recognize(complete_graph(4))

    def test_three_page_book_rejected(self):
        # Two hub vertices with three common neighbors: 7 edges on 5
        # vertices passes the count but the hub edge sits in 3 triangles.
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        with pytest.raises(EdgeInTooManyTriangles, match=r"\(0,1\) lies in 3 triangles"):
            recognize(g)

    def test_crossed_chords_break_the_hull(self):
        # C5 plus crossing chords (0,2), (1,3): right edge count, no hull.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        with pytest.raises(HullNotHamiltonian):
            recognize(g)

    def test_hull_split_into_two_cycles(self):
        # The triangular prism has 2n-3 = 9 edges; its single-triangle edges
        # are the two triangles, so every hull degree is 2 but no cycle spans.
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = build_graph(6, triangles + [(0, 3), (1, 4), (2, 5)])
        with pytest.raises(HullNotHamiltonian, match="more than one cycle"):
            recognize(g)

    def test_disconnected_rejected(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(Disconnected):
            recognize(g)

    def test_too_small(self):
        with pytest.raises(WrongEdgeCount):
            recognize(build_graph(2, [(0, 1)]))
        # Disconnected comes before any structural error, the order's too.
        with pytest.raises(Disconnected):
            recognize(build_graph(2, []))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_triangulation_accepted(self, n):
        for chords in enumerate_triangulations(n):
            cert = recognize(graph_from_chords(n, chords))
            assert cert.chords == frozenset(chords)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_polygon_with_n_minus_3_diagonals(self, n):
        # The n-gon plus every set of n-3 of its diagonals passes the edge
        # count; the ear cut accepts exactly the sets that the full pair scan
        # finds non-crossing, and the hull checks reject every other set.
        # The cut along the polygon 0..n-1 alone, the judge of base chords
        # and of the segment claim, draws the same line.
        hull = [(p, p + 1) for p in range(n - 1)] + [(0, n - 1)]
        diagonals = [e for e in combinations(range(n), 2) if e not in hull]
        verdicts = Counter()
        for chords in combinations(diagonals, n - 3):
            g = build_graph(n, hull + list(chords))
            if first_crossing_pair(range(n), chords) is None:
                assert recognize(g) == polygon_certificate(n, chords)
                assert len(hull_triangles(g, range(n))) == n - 2
                verdicts["accepted"] += 1
            else:
                with pytest.raises(StructureViolation):
                    hull_triangles(g, range(n))
                with pytest.raises((EdgeInTooManyTriangles, HullNotHamiltonian)) as exc:
                    recognize(g)
                verdicts[exc.type.__name__] += 1
        assert verdicts["accepted"] == len(list(enumerate_triangulations(n)))
        if n == 8:
            assert verdicts == {"accepted": 132, "EdgeInTooManyTriangles": 2996, "HullNotHamiltonian": 12376}

    def test_the_proof_builds_no_neighbour_masks(self):
        # The proof counts each edge's triangles by intersecting two sets of
        # g's rows, O(m) memory; the masks hold n ints of up to n bits.
        g = random_mop(random.Random(500), 500)
        recognize(g)
        assert "neighbour_masks" not in vars(g)

    def test_large_fan_is_recognized_fast(self):
        # Recognition is linear in the order: the triangle counts, the hull
        # walk and one ear cut.
        g = fan(20000).graph
        start = time.process_time()
        cert = recognize(g)
        assert time.process_time() - start < 2
        assert len(cert.chords) == 19997


def turned_certificates(n):
    # For each labelled triangulation of the n-gon: the graphs of its chord
    # set, one chord fewer and one more, and the certificates of each of the
    # 2n dihedral turns of the polygon (one of them normalized) with each of
    # the three chord sets.
    hull = [(p, p + 1) for p in range(n - 1)] + [(0, n - 1)]
    for chords in enumerate_triangulations(n):
        # The first pair that is no edge; the triangle has none.
        extra = [e for e in combinations(range(n), 2) if e not in hull and e not in chords][:1]
        chord_sets = {frozenset(chords), frozenset(chords[1:]), frozenset([*chords, *extra])}
        graphs = [build_graph(n, hull + sorted(c)) for c in chord_sets]
        certs = [
            MopCertificate(n, tuple((t + flip * p) % n for p in range(n)), c)
            for t, flip, c in product(range(n), (1, -1), chord_sets)
        ]
        yield graphs, certs


class TestCheckCertificate:
    def test_triangle_chord_rejected(self):
        # The triangle's three edges are all on its cycle, so it has no chord.
        with pytest.raises(StructureViolation, match="chord set"):
            check_certificate(complete_graph(3), MopCertificate(3, (0, 1, 2), frozenset({(0, 2)})))

    @pytest.mark.parametrize("n", [1, 2])
    def test_order_below_three_rejected(self, n):
        # The graph is proved from its own hull, whatever the certificate, so
        # recognize's error names the order.
        g = build_graph(n, [(0, 1)] if n == 2 else [])
        for cert in (
            MopCertificate(n, tuple(range(n)), frozenset()),
            MopCertificate(5, (0,), frozenset()),
        ):
            with pytest.raises(WrongEdgeCount, match=f"order {n} is below the minimum of 3"):
                check_certificate(g, cert)

    def test_crossing_chords_rejected(self):
        # C5 plus the crossing chords (0,2) and (1,3) has 2n-3 edges but is
        # not maximal outerplanar: vertex 4's edges lie in no triangle.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        with pytest.raises(HullNotHamiltonian, match="single-triangle edges give vertex 4 hull degree 0"):
            check_certificate(g, MopCertificate(5, (0, 1, 2, 3, 4), frozenset({(0, 2), (1, 3)})))

    def test_rotated_cycle_rejected(self):
        g = fan(6).graph
        cert = recognize(g)
        check_certificate(g, cert)
        rotated = MopCertificate(6, cert.cycle[1:] + cert.cycle[:1], cert.chords)
        with pytest.raises(StructureViolation, match="chord set"):
            check_certificate(g, rotated)

    def test_returns_the_cut_along_the_cycle(self):
        g = random_mop(random.Random(4), 20)
        cert = recognize(g)
        assert check_certificate(g, cert) == hull_triangles(g, cert.cycle)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_recognize_on_every_triangulation(self, n):
        # Exactly one certificate per triangulation is its own.
        accepted = 0
        for graphs, certs in turned_certificates(n):
            for g, cert in product(graphs, certs):
                accepted += assert_check_agrees(g, cert)
        assert accepted == catalan(n - 2)

    @given(st.integers(0, 10**9), st.sampled_from(["none", "rotate", "reflect", "swap", "order", "drop", "add"]))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_recognize_on_mutated_certificates(self, seed, mutation):
        rng = random.Random(seed)
        n = rng.randint(3, 60)
        g = random_mop(rng, n)
        cert = recognize(g)
        cycle, chords = cert.cycle, set(cert.chords)
        if mutation == "rotate":
            k = rng.randrange(1, n)
            cycle = cycle[k:] + cycle[:k]
        elif mutation == "reflect":
            cycle = cycle[::-1]
        elif mutation == "swap":
            i, j = rng.sample(range(n), 2)
            swapped = list(cycle)
            swapped[i], swapped[j] = cycle[j], cycle[i]
            cycle = tuple(swapped)
        elif mutation == "drop" and chords:
            chords.remove(rng.choice(sorted(chords)))
        elif mutation == "add":
            # Any pair that is no chord: a hull edge or a non-edge.
            chords.add(rng.choice([e for e in combinations(range(n), 2) if e not in chords]))
        order = n + rng.choice((-1, 1)) if mutation == "order" else n
        assert_check_agrees(g, MopCertificate(order, cycle, frozenset(chords)))

    @pytest.mark.parametrize(
        "edges, cycle",
        [
            ([(a, b) for a in (0, 2, 4) for b in (1, 3, 5)], (0, 1, 2, 3, 4, 5)),
            ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)], (0, 1, 2, 3, 4)),
        ],
        ids=["K33", "C5_crossed"],
    )
    def test_non_mops_with_a_mop_edge_count_rejected(self, edges, cycle):
        g = build_graph(len(cycle), edges)
        assert len(g.edges) == 2 * g.order - 3
        hull = {(min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
        n = g.order
        for t, flip in product(range(n), (1, -1)):
            turned = tuple(cycle[(t + flip * p) % n] for p in range(n))
            assert not assert_check_agrees(g, MopCertificate(n, turned, g.edges - hull))


def assert_check_agrees(g, cert) -> bool:
    # check_certificate gives the oracle's triangles, or its error type and
    # message, and accepts exactly when the definition oracle does; returns
    # whether both accept.
    expected = recognized_certificate(g, cert)
    got = outcome(check_certificate, g, cert)
    assert got == outcome(check_certificate_oracle, g, cert), cert
    assert isinstance(got, list) == expected, cert
    return expected


def outcome(fn, *args):
    # The value, or the error's type and message.
    try:
        return fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def recognize_oracle(g):
    return proof_oracle(g)[0]


def gp_cert(g, cert):
    return gp_number(g, cert=cert)


def gp_cert_oracle(g, cert):
    return gp_number_oracle(g, cert=cert)


def assert_kept_proof_agrees(base, certs) -> int:
    # recognize, check_certificate and gp_number with and without each
    # certificate give the oracles' values, or their error types and
    # messages, on copies of base: when recognize runs first, when the
    # certificates are checked first, and on a fresh copy per call.  The
    # oracles cut again on every call and test connectivity first.  Returns
    # the number of certificates accepted.
    def fresh():
        return Graph(base.order, base.edges, base.adjacency)

    rec, free = outcome(recognize_oracle, base), outcome(gp_number_oracle, base)
    expected = [(cert, outcome(check_certificate_oracle, base, cert), outcome(gp_cert_oracle, base, cert)) for cert in certs]

    def certified(g):
        for cert, check, solve in expected:
            assert outcome(check_certificate, g, cert) == check, cert
            assert outcome(gp_cert, g, cert) == solve, cert

    g = fresh()
    assert outcome(recognize, g) == rec
    certified(g)
    assert outcome(gp_number, g) == free
    g = fresh()
    certified(g)
    assert outcome(recognize, g) == rec
    assert outcome(gp_number, g) == free
    for cert, check, solve in expected:
        assert outcome(check_certificate, fresh(), cert) == check, cert
        assert outcome(gp_cert, fresh(), cert) == solve, cert
    assert outcome(recognize, fresh()) == rec
    assert outcome(gp_number, fresh()) == free
    return sum(isinstance(check, list) for _, check, _ in expected)


def assert_mop_edge_count_agrees(rng, n, edges):
    # A graph with 2n-3 edges, with the polygon's cycle and a random one,
    # each with the graph's other edges as chords.
    assert len(edges) == 2 * n - 3
    certs = []
    for cycle in (tuple(range(n)), tuple(rng.sample(range(n), n))):
        ring = {(min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
        certs.append(MopCertificate(n, cycle, frozenset(e for e in edges if e not in ring)))
    assert_kept_proof_agrees(build_graph(n, edges), certs)


class TestKeptProof:
    """The proof kept on a graph against the proof cut afresh on every call,
    with connectivity tested first (``tests/helpers.py``)."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_triangulation_turn_and_chord_set(self, n):
        # test_agrees_with_recognize_on_every_triangulation's corpus.
        accepted = 0
        for graphs, certs in turned_certificates(n):
            for g in graphs:
                accepted += assert_kept_proof_agrees(g, certs)
        assert accepted == catalan(n - 2)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_graphs_with_a_mop_edge_count(self, seed):
        # 2n-3 random edges: on any pairs for an even seed, mostly connected,
        # and on pairs inside two parts for an odd one, so disconnected.
        rng = random.Random(seed)
        n = rng.randint(3, 9) if seed % 2 == 0 else rng.randint(6, 10)
        pairs = list(combinations(range(n), 2))
        if seed % 2:
            k = rng.choice([k for k in range(n // 2, n) if comb(k, 2) + comb(n - k, 2) >= 2 * n - 3])
            pairs = [(a, b) for a, b in pairs if (a < k) == (b < k)]
        assert_mop_edge_count_agrees(rng, n, rng.sample(pairs, 2 * n - 3))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (7, [*combinations(range(5), 2), (5, 6)]),
            (5, [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
            (6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)]),
        ],
        ids=["K5_and_K2", "three_page_book", "K33", "C5_crossed"],
    )
    def test_named_graphs_with_a_mop_edge_count(self, n, edges):
        assert_mop_edge_count_agrees(random.Random(n), n, edges)

    @pytest.mark.parametrize(
        "n, edges", [(1, []), (2, []), (2, [(0, 1)])], ids=["K1", "two_isolated_vertices", "K2"]
    )
    def test_named_graphs_below_order_three(self, n, edges):
        # Two isolated vertices are Disconnected before the order is judged;
        # K1 and K2 are connected, so the order is the error.
        certs = [MopCertificate(n, tuple(range(n)), frozenset()), MopCertificate(5, (0,), frozenset())]
        assert assert_kept_proof_agrees(build_graph(n, edges), certs) == 0

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_mops_and_moved_chords(self, seed, moved):
        # The oracle's certificate where it recognizes the graph, one turn of
        # its cycle, and the label-order polygon's certificate.
        rng = random.Random(seed)
        n = rng.randint(5, 30)
        g = (random_moved_chord if moved else random_mop)(rng, n)
        certs = [MopCertificate(n, tuple(range(n)), frozenset(e for e in g.edges if e[1] - e[0] not in (1, n - 1)))]
        with suppress(NotAnMop):
            cert = proof_oracle(g)[0]
            k = rng.randrange(1, n)
            certs += [cert, MopCertificate(n, cert.cycle[k:] + cert.cycle[:k], cert.chords)]
        assert (assert_kept_proof_agrees(g, certs) == 0) == moved


class TestStats:
    def test_fan_is_striped(self):
        g = fan(9).graph
        st_ = mop_stats(g, recognize(g))
        assert st_.internal_triangles == 0
        assert st_.striped
        assert st_.two_vertices == 2

    def test_generalized_sunflower_internals(self):
        g = generalized_sunflower(8).graph
        st_ = mop_stats(g, recognize(g))
        assert st_.internal_triangles == 2
        assert st_.two_vertices == 4
        assert not st_.striped

    def test_face_and_chord_counts_order_seven(self):
        # Oracle: triangles by a scan of all triples; a triangle is internal
        # when none of its sides is a hull edge (i, i+1 mod 7).
        for chords in enumerate_triangulations(7):
            g = graph_from_chords(7, chords)
            st_ = mop_stats(g, recognize(g))
            assert len(chords) == 4
            tris = [
                t for t in combinations(range(7), 3)
                if all(g.has_edge(u, v) for u, v in combinations(t, 2))
            ]
            assert len(tris) == 5
            hull_free = [all((v - u) % 7 not in (1, 6) for u, v in combinations(t, 2)) for t in tris]
            assert st_.internal_triangles == sum(hull_free)

    def test_triangle_free_graph_rejected(self):
        # C5 is proved from its own hull, which its edge count rules out.
        cert = MopCertificate(5, (0, 1, 2, 3, 4), frozenset())
        with pytest.raises(WrongEdgeCount, match="expected 7 edges for order 5, found 5"):
            mop_stats(families.cycle(5).graph, cert)

    def test_cycle_that_is_not_the_hull_rejected(self):
        # A certificate whose cycle is a path and center order of the fan but
        # swaps two path vertices: 0 and 2 are not adjacent.  The fan is
        # proved from its own hull, which the certificate does not name.
        g = fan(8).graph
        cert = MopCertificate(8, (0, 2, 1, 3, 4, 5, 6, 7), recognize(g).chords)
        with pytest.raises(StructureViolation, match="chord set"):
            mop_stats(g, cert)

    def test_extra_chord_rejected(self):
        # K4 holds the triangulation of its hull 0, 1, 2, 3 and one more
        # chord, one edge more than a MOP of order 4 has.
        with pytest.raises(WrongEdgeCount, match="expected 5 edges for order 4, found 6"):
            mop_stats(complete_graph(4), MopCertificate(4, (0, 1, 2, 3), frozenset({(0, 2)})))

    def test_wrong_order_or_chord_set_rejected(self):
        # The cycle is the fan's hull, so only the order or the chords are wrong.
        g = fan(8).graph
        cert = recognize(g)
        for wrong in (MopCertificate(8, cert.cycle, frozenset({(0, 1)})), MopCertificate(5, cert.cycle, cert.chords)):
            with pytest.raises(StructureViolation, match="chord set"):
                mop_stats(g, wrong)

    def test_cycle_that_is_not_a_permutation_rejected(self):
        # Compared with the fan's own proof, never cut along.
        g = fan(5).graph
        with pytest.raises(StructureViolation, match="chord set"):
            mop_stats(g, MopCertificate(5, (0, 1, 2, 3, 3), recognize(g).chords))

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_only_the_normalized_turn_of_the_hull(self, seed):
        # Of the 2n rotations and reflections of the hull, mop_stats accepts
        # exactly the one recognize returns.
        rng = random.Random(seed)
        g = random_mop(rng, rng.randint(3, 20))
        cert = recognize(g)
        n = g.order
        accepted = []
        for k in range(n):
            rotated = cert.cycle[k:] + cert.cycle[:k]
            for cycle in (rotated, rotated[::-1]):
                try:
                    mop_stats(g, MopCertificate(n, cycle, cert.chords))
                except StructureViolation as e:
                    assert "chord set" in str(e)
                else:
                    accepted.append(cycle)
        assert accepted == [cert.cycle]


class TestHullTriangles:
    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_cut_finds_every_triangle_once(self, seed):
        # Oracle: every mutually adjacent triple, on a relabelled random MOP.
        rng = random.Random(seed)
        n = rng.randint(3, 25)
        g = random_mop(rng, n)
        cycle = recognize(g).cycle
        triangles = hull_triangles(g, cycle)
        assert all(a < c < b for a, c, b in triangles)
        found = {frozenset(cycle[p] for p in t) for t in triangles}
        assert len(found) == len(triangles) == n - 2
        assert found == {
            frozenset(t) for t in combinations(range(n), 3) if all(g.has_edge(u, v) for u, v in combinations(t, 2))
        }

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_every_extra_edge_is_rejected(self, seed):
        # An extra edge raises two degrees: the cut comes up short, or it
        # yields n-2 triangles whose sides lack the edge.
        rng = random.Random(seed)
        g = random_mop(rng, rng.randint(4, 15))
        cycle = recognize(g).cycle
        for e in combinations(range(g.order), 2):
            if not g.has_edge(*e):
                with pytest.raises(StructureViolation, match="along the cycle"):
                    hull_triangles(build_graph(g.order, [*g.edges, e]), cycle)

    def test_missing_side_is_named(self):
        # The fan at 0 of the hexagon with (1, 2) and (3, 4) swapped for (1, 3)
        # and (2, 4): every degree stays, so the cut is the fan's, and its
        # side (1, 2) is missing from the graph.
        edges = [(0, k) for k in range(1, 6)] + [(1, 3), (2, 3), (2, 4), (4, 5)]
        with pytest.raises(StructureViolation, match=r"side \(1,2\) of the triangles along the cycle is no edge"):
            hull_triangles(build_graph(6, edges), range(6))


def assert_proof_agrees_with_side_set(g) -> bool:
    # recognize, with the triangles of its proof, and hull_triangles along
    # the polygon order give the oracles' values, or their error types and
    # messages; the oracles compare the set of the cut's sides with the
    # edges.  g must be unproved.  Returns whether g is a MOP.
    expected = outcome(proof_oracle, g)
    cert = outcome(recognize, g)
    if isinstance(cert, MopCertificate):
        assert (cert, check_certificate(g, cert)) == expected
    else:
        assert cert == expected
    n = g.order
    assert outcome(hull_triangles, g, range(n)) == outcome(hull_triangles_oracle, g, range(n))
    return isinstance(cert, MopCertificate)


def chord_swaps(g, chords):
    # g with one chord swapped for each non-edge in turn, the chords taken
    # round robin: 2n-3 edges each.
    absent = [e for e in combinations(range(g.order), 2) if e not in g.edges]
    for k, e in enumerate(absent):
        yield build_graph(g.order, (g.edges - {chords[k % len(chords)]}) | {e})


class TestProofLooksItsSidesUp:
    """The proof accepts when g has 2n-3 edges and each side of the cut is
    one of them, and builds the set of sides only to name its evidence; its
    oracle compares that set with the edges on every call."""

    # Per order, the swapped graphs that are no MOP and those that are.
    SWAPS = {3: (0, 0), 4: (0, 4), 5: (18, 12), 6: (143, 25), 7: (759, 81), 8: (3707, 253), 9: (17161, 857)}

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_triangulation_relabelled_and_with_a_chord_swapped(self, n):
        # Orders 3..9: 625 triangulations, the same relabelled by one seeded
        # permutation per order, and 23,020 graphs with a chord swapped for a
        # non-edge, of which the 1,232 that swap a diagonal for the other
        # diagonal of its quadrilateral are MOPs again (about 1.5 s).
        perm = random.Random(n).sample(range(n), n)
        mops = Counter()
        for chords in enumerate_triangulations(n):
            g = graph_from_chords(n, chords)
            h = relabeled(g, perm)
            for base, inner in ((g, chords), (h, [tuple(sorted((perm[a], perm[b]))) for a, b in chords])):
                assert assert_proof_agrees_with_side_set(base)
                for swapped in chord_swaps(base, inner):
                    mops[assert_proof_agrees_with_side_set(swapped)] += 1
        assert (mops[False], mops[True]) == self.SWAPS[n]

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_mops_and_moved_chords(self, seed, moved):
        rng = random.Random(seed)
        n = rng.randint(5, 60)
        g = (random_moved_chord if moved else random_mop)(rng, n)
        assert assert_proof_agrees_with_side_set(g) != moved


def assert_children_first(cut, n):
    # Each arc (a, c) and (c, b) is a hull edge or the base of a triangle cut
    # before (a, c, b), so the cut triangles tile the polygon 0..n-1.
    bases = {(p, p + 1) for p in range(n - 1)}
    for a, c, b in cut:
        assert a < c < b and (a, c) in bases and (c, b) in bases
        bases.add((a, b))


class TestEarCut:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_cuts_every_labelled_triangulation(self, n):
        # Oracle: the mutually adjacent triples.
        for chords in enumerate_triangulations(n):
            g = graph_from_chords(n, chords)
            cut = ear_cut([g.degree(v) - 1 for v in range(n)])
            assert len(cut) == n - 2
            assert {frozenset(t) for t in cut} == {
                frozenset(t) for t in combinations(range(n), 3)
                if all(g.has_edge(u, v) for u, v in combinations(t, 2))
            }
            assert_children_first(cut, n)
            assert cut[-1][::2] == (0, n - 1)

    @pytest.mark.parametrize("q", [(2, 2, 2, 2), (1, 0, 1), (1, 2, 0, 2, 1), (3, 1, 0, 1, 3)])
    def test_short_on_a_sequence_that_is_not_a_quiddity_sequence(self, q):
        # K4's degrees minus one, and sequences with an inner 0.
        assert len(ear_cut(q)) < len(q) - 2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_sequence_of_small_counts(self, n):
        # Every q in 0..4: n-2 cut triangles tile the polygon and meet each
        # position but 0 and n-1 q times; they meet all n positions q times
        # exactly when q is a quiddity sequence.
        quiddities = {
            tuple(graph_from_chords(n, chords).degree(v) - 1 for v in range(n))
            for chords in enumerate_triangulations(n)
        }
        for q in product(range(5), repeat=n):
            cut = ear_cut(q)
            if len(cut) < n - 2:
                assert q not in quiddities
                continue
            assert_children_first(cut, n)
            met = [sum(p in t for t in cut) for p in range(n)]
            assert met[1:-1] == list(q[1:-1])
            assert (met == list(q)) == (q in quiddities)


class TestRandomMopStats:
    @given(st.integers(0, 10**9), st.integers(5, 20))
    @settings(max_examples=25, deadline=None)
    def test_degrees_match_triangle_counts(self, seed, n):
        # Oracle: triangles through each vertex by a scan of all triples.
        g = random_mop(random.Random(seed), n)
        tri = [0] * n
        for a, b, c in combinations(range(n), 3):
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                for v in (a, b, c):
                    tri[v] += 1
        assert all(g.degree(v) == tri[v] + 1 for v in range(n))
        st_ = mop_stats(g, recognize(g))
        assert st_.two_vertices == tri.count(1)
        assert st_.max_degree == max(tri) + 1


class TestMaximalFan:
    def test_fan_center_gives_whole_path(self):
        inst = fan(6)
        g = inst.graph
        assert maximal_fan(g, inst.role_map["v"]) == (0, 1, 2, 3, 4)

    def test_linear_2tree_interior_vertex(self):
        inst = straight_linear_2tree(8)
        g = inst.graph
        assert maximal_fan(g, inst.role_map["v4"]) == (1, 2, 4, 5)

    def test_degree_two_ear(self):
        inst = fan(6)
        g = inst.graph
        p1 = inst.role_map["p1"]
        path = maximal_fan(g, p1)
        assert set(path) == set(g.adjacency[p1])
        assert g.has_edge(*path)

    def test_single_neighbor(self):
        assert maximal_fan(families.path(3).graph, 0) == (1,)

    @pytest.mark.parametrize(
        "edges, v",
        [
            # K4: every neighborhood is a triangle.
            ([(i, j) for i in range(4) for j in range(i + 1, 4)], 3),
            # The hub of a wheel sees a 5-cycle.
            ([(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 0),
            # A path 1-2 and a triangle 3-4-5: the walk from 1 stops at 2.
            ([(0, i) for i in range(1, 6)] + [(1, 2), (3, 4), (4, 5), (3, 5)], 0),
        ],
        ids=["k4", "wheel_hub", "path_and_triangle"],
    )
    def test_neighborhood_not_a_path(self, edges, v):
        g = build_graph(max(max(e) for e in edges) + 1, edges)
        with pytest.raises(StructureViolation, match=f"neighborhood of {v} does not"):
            maximal_fan(g, v)

    def test_every_neighborhood_is_a_path(self):
        for chords in enumerate_triangulations(7):
            g = graph_from_chords(7, chords)
            for v in range(7):
                path = maximal_fan(g, v)
                assert sorted(path) == list(g.adjacency[v])
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)


class TestCanonicalForm:
    def test_both_square_triangulations_collide(self):
        keys = {canonical_form(polygon_certificate(4, c)) for c in enumerate_triangulations(4)}
        assert len(keys) == 1

    def test_pentagon_triangulations_are_one_class(self):
        # Oracle: every pair really is isomorphic.
        chord_sets = list(enumerate_triangulations(5))
        graphs = [graph_from_chords(5, c) for c in chord_sets]
        for other in graphs[1:]:
            assert graphs_isomorphic(graphs[0], other)
        keys = {canonical_form(polygon_certificate(5, c)) for c in chord_sets}
        assert len(keys) == 1

    def test_fan_differs_from_linear_2tree(self):
        kf = canonical_form(recognize(fan(6).graph))
        kt = canonical_form(recognize(straight_linear_2tree(6).graph))
        assert kf != kt
        # Oracle: their degree profiles already differ.
        assert not graphs_isomorphic(fan(6).graph, straight_linear_2tree(6).graph)

    @given(st.integers(0, 10**9), st.integers(5, 20))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_invariance(self, seed, n):
        rng = random.Random(seed)
        for g in (generalized_sunflower(8).graph, random_mop(rng, n)):
            perm = list(range(g.order))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert canonical_form(recognize(g)) == canonical_form(recognize(h))


class TestDihedralImages:
    @given(st.integers(0, 10**9), st.integers(3, 20), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_each_map_is_dihedral_and_sends_the_chords_to_its_image(self, seed, n, anchored):
        # Oracle: a permutation of 0..n-1 is dihedral exactly when it sends
        # every hull edge (p, p+1) to a hull edge; the image is compared as a
        # set of chords.
        rng = random.Random(seed)
        cert = recognize(random_mop(rng, n))
        pos = {v: i for i, v in enumerate(cert.cycle)}
        chords = [(pos[u], pos[v]) for u, v in cert.chords]
        anchors = sorted(rng.sample(range(n), rng.randint(1, n))) if anchored else None
        hull = {frozenset((p, (p + 1) % n)) for p in range(n)}
        yielded = list(dihedral_images(n, chords, anchors))
        # Two distinct maps per anchor, each sending its anchor to 1.
        sent_to_one = [t for t in anchors or range(n) for _ in (1, -1)]
        assert len(yielded) == len(sent_to_one)
        assert len({tuple(m) for _, m in yielded}) == len(yielded)
        for (image, m), t in zip(yielded, sent_to_one):
            assert sorted(m) == list(range(n)) and m[t] == 1
            assert {frozenset((m[a], m[b])) for a, b in hull} == hull
            assert list(image) == sorted(image)
            assert {divmod(c, n) for c in image} == {(min(m[a], m[b]), max(m[a], m[b])) for a, b in chords}
            assert len(image) == len(chords)


class TestNetworkxIsomorphismOracle:
    @staticmethod
    def _nx(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges)
        return h

    def test_classes_of_orders_seven_to_ten(self):
        nx = pytest.importorskip("networkx")
        for n in range(7, 11):
            classes: dict[bytes, list] = {}
            for chords in enumerate_triangulations(n):
                g = graph_from_chords(n, chords)
                classes.setdefault(canonical_form(recognize(g)), []).append(self._nx(nx, g))
            reps = [members[0] for members in classes.values()]
            for members in classes.values():
                assert all(nx.is_isomorphic(members[0], h) for h in members[1:])
            assert not any(nx.is_isomorphic(a, b) for a, b in combinations(reps, 2))

    def test_random_pairs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20)
        for n in range(12, 21):
            for _ in range(20):
                g = random_mop(rng, n)
                # Half the pairs are a relabelled copy, so both answers occur.
                if rng.random() < 0.5:
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = relabeled(g, perm)
                else:
                    h = random_mop(rng, n)
                same_key = canonical_form(recognize(g)) == canonical_form(recognize(h))
                assert same_key == nx.is_isomorphic(self._nx(nx, g), self._nx(nx, h))
