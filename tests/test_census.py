import hashlib
import multiprocessing
import random
import re
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from gpmop import (
    BadParam,
    ClaimReport,
    all_pairs_distances,
    build_graph,
    canonical_form,
    catalan,
    census_to_csv,
    claim_report_text,
    enumerate_triangulations,
    generalized_sunflower,
    generators_at,
    gp_number,
    is_gp_characterized,
    is_gp_naive,
    mop_stats,
    recognize,
    run_census,
    verify_paper_claims,
)
from gpmop import census, graph, solve
from gpmop.census import (
    MAX_CENSUS_ORDER,
    _class_records,
    _generator_catalog,
    _quiddity_key,
    class_violations,
    expected_extremal_keys,
    graph_from_chords,
    quiddity_classes,
    striped_catalog_keys,
)
from gpmop.mop import dihedral_images, ear_cut
import test_dual
from helpers import census_by_member, graphs_isomorphic, polygon_certificate, random_mop, relabeled

# OEIS A000207: triangulations of the n-gon up to rotation and reflection.
DIHEDRAL_CLASSES = {
    3: 1, 4: 1, 5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82, 11: 228, 12: 733,
    13: 2282, 14: 7528, 15: 24834,
}

# sha256 (first 16 hex) of the deduplicated census CSV, witness column
# included, as `gpmop census n --dedupe` prints it.
DEDUPE_CSV_SHA256 = {
    4: "d7f0a627d57e7310",
    5: "17125979f1af7a3d",
    6: "db23388e5336b924",
    7: "bf4053dc5c1821b0",
    8: "2a2f19ad52569704",
    9: "1df620f5cb8a34b8",
    10: "d445762b12d59ddb",
    11: "e4178a12a1b453f6",
    12: "e091b965d3aa9172",
    13: "ceb334b9d92f113e",
}

# The same for the labelled census, `gpmop census n` without --dedupe.
LABELLED_CSV_SHA256 = {
    4: "a660a958c8acaa6d",
    5: "881309afa57c3d88",
    6: "4bf8e8568d4d2f3c",
    7: "a2c179bdd1c85653",
    8: "f03cc75e9a303656",
    9: "82e54412743feb4b",
    10: "929883616da6760b",
    11: "74828d6d32a3146d",
}


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(4, 2), (5, 5), (6, 14)])
    def test_small_counts(self, n, count):
        assert len(list(enumerate_triangulations(n))) == count

    @pytest.mark.parametrize("n", range(3, 10))
    def test_stream_length_matches_closed_form(self, n):
        # Oracle: the central binomial expression, not the recursion.
        k = n - 2
        assert len(list(enumerate_triangulations(n))) == comb(2 * k, k) // (k + 1)
        assert catalan(k) == comb(2 * k, k) // (k + 1)

    def test_no_duplicates(self):
        seen = list(enumerate_triangulations(8))
        assert len(seen) == len(set(seen))

    def test_every_yield_is_a_triangulation(self):
        for chords in enumerate_triangulations(6):
            cert = recognize(graph_from_chords(6, chords))
            assert cert.chords == frozenset(chords)

    def test_range_checks(self):
        with pytest.raises(BadParam):
            list(enumerate_triangulations(2))
        with pytest.raises(BadParam):
            list(enumerate_triangulations(15))


def quiddity(n, chords):
    # Triangles per hull vertex: one, plus one per chord at the vertex.
    counts = bytearray(b"\x01" * n)
    for a, b in chords:
        counts[a] += 1
        counts[b] += 1
    return bytes(counts)


class TestQuiddityKey:
    def test_partition_matches_canonical_form(self):
        # Oracle: canonical_form on every labeled triangulation.
        for n in range(3, 13):
            by_quiddity: dict[bytes, set] = {}
            by_key: dict[bytes, set] = {}
            for chords in enumerate_triangulations(n):
                by_quiddity.setdefault(_quiddity_key(quiddity(n, chords)), set()).add(chords)
                key = canonical_form(polygon_certificate(n, chords))
                by_key.setdefault(key, set()).add(chords)
            assert set(map(frozenset, by_quiddity.values())) == set(map(frozenset, by_key.values()))
            if n in DIHEDRAL_CLASSES:
                assert len(by_quiddity) == DIHEDRAL_CLASSES[n]

    def test_ear_tip_rotations_give_the_least_image(self):
        # Oracle: the least of all 2n rotations and reflections, against the
        # key that tries only those starting at a 1, on every image of every
        # class of orders 3..13.
        for n in range(3, 14):
            for q in quiddity_classes(n):
                images = {s[i:] + s[:i] for s in (q, q[::-1]) for i in range(n)}
                for image in images:
                    assert _quiddity_key(image) == min(images) == q

    def test_dihedral_images_run_once_per_class(self, monkeypatch):
        calls: list[int] = []

        def counting(n, chords, anchors=None):
            calls.append(n)
            return dihedral_images(n, chords, anchors)

        def no_key(cert):
            raise AssertionError("run_census called canonical_form")

        for n in range(4, 12):
            _generator_catalog(n)  # warm: the catalog keys its members with canonical_form
        monkeypatch.setattr(census, "dihedral_images", counting)
        monkeypatch.setattr(census, "canonical_form", no_key)
        for dedupe in (False, True):
            for n in range(4, 12):
                calls.clear()
                recs = run_census(n, dedupe=dedupe)
                assert len(recs) == (DIHEDRAL_CLASSES[n] if dedupe else catalan(n - 2))
                assert calls == [n] * DIHEDRAL_CLASSES[n]
                for r in recs:
                    assert r.canonical_key == canonical_form(polygon_certificate(n, r.chords))


class TestQuiddityClasses:
    @pytest.mark.parametrize("n", sorted(DIHEDRAL_CLASSES))
    def test_class_counts_match_a000207(self, n):
        assert len(quiddity_classes(n)) == DIHEDRAL_CLASSES[n]

    @pytest.mark.parametrize("n", [2, 0, -(10**9)])
    def test_order_below_a_triangle_rejected(self, n):
        with pytest.raises(BadParam, match="at least 3 vertices"):
            quiddity_classes(n)

    def test_each_class_is_its_least_image(self):
        for n in range(3, 12):
            assert all(_quiddity_key(q) == q for q in quiddity_classes(n))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_labelled_members_match_the_enumeration(self, n):
        # Oracle: the Catalan enumeration, keyed by canonical_form.
        expected = sorted(
            (canonical_form(polygon_certificate(n, chords)), chords)
            for chords in enumerate_triangulations(n)
        )
        classes = class_tasks(n, dedupe=False)
        assert all(len({r.canonical_key for r in recs}) == 1 for recs in classes)
        assert all([r.chords for r in recs] == sorted(r.chords for r in recs) for recs in classes)
        assert sorted((r.canonical_key, r.chords) for recs in classes for r in recs) == expected

    @pytest.mark.parametrize("n", range(3, 12))
    def test_dedupe_keeps_the_smallest_chord_set_of_each_class(self, n):
        smallest: dict[bytes, tuple] = {}
        for chords in enumerate_triangulations(n):
            key = canonical_form(polygon_certificate(n, chords))
            if key not in smallest or chords < smallest[key]:
                smallest[key] = chords
        classes = class_tasks(n, dedupe=True)
        assert all(len(recs) == 1 for recs in classes)
        assert sorted((recs[0].canonical_key, recs[0].chords) for recs in classes) == sorted(smallest.items())

    def test_chord_pairs_are_shared(self):
        pairs = [p for recs in class_tasks(9, dedupe=False) for r in recs for p in r.chords]
        assert len({id(p) for p in pairs}) == len(set(pairs))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_stats_match_mop_stats(self, n):
        # Oracle: mop_stats on the class graph's recognized certificate; the
        # census reads degrees off q and internal triangles off its ear cut.
        for q in quiddity_classes(n):
            r = _class_records(n, q, True)[0][0]
            g = graph_from_chords(n, r.chords)
            stats = mop_stats(g, recognize(g))
            assert (r.internal_triangles, r.two_vertices, r.max_degree, r.striped) == (
                stats.internal_triangles, stats.two_vertices, stats.max_degree, stats.striped)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_each_move_carries_the_first_member_onto_its_member(self, n):
        for q in quiddity_classes(n):
            recs, _ = _class_records(n, q, False)
            maps = class_maps(n, q, recs)
            first = graph_from_chords(n, recs[0].chords).edges
            for r, m in zip(recs, maps):
                edges = graph_from_chords(n, r.chords).edges
                assert {carried_onto_first(maps, m, e) for e in edges} == first


def class_tasks(n, dedupe):
    # The records of every class task of order n, run in this process.
    return [_class_records(n, q, dedupe)[0] for q in quiddity_classes(n)]


def class_maps(n, q, recs):
    # Each member's dihedral map of the ear-cut hull of q: the last that
    # dihedral_images yields with the member as its image, as _class_records keeps it.
    maps = dict(dihedral_images(n, [(a, b) for a, _, b in ear_cut(q)[:-1]]))
    return [maps[tuple(a * n + b for a, b in r.chords)] for r in recs]


def carried_onto_first(maps, m, labels):
    # Member labels back along the member's map m, then out along the first member's.
    return tuple(sorted(maps[0][m.index(x)] for x in labels))


class RecordingPools:
    """Stands in for multiprocessing.get_context: records the worker count
    of each pool and the tasks it maps, and runs them in this process."""

    def __init__(self):
        self.workers = []
        self.tasks = []

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes):
        self.workers.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, tasks, chunksize=None):
        self.tasks.extend(tasks)
        return [fn(*task) for task in tasks]


@pytest.fixture
def pools(monkeypatch):
    fake = RecordingPools()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    return fake


class TestPlanChunks:
    """How run_census shares its classes, one task each, among pool workers."""

    def test_huge_jobs_clamped_to_cpus(self, pools, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        # 12 classes at order 8 over 2 cores: one pool of two workers.
        assert run_census(8, dedupe=True, jobs=10**9) == run_census(8, dedupe=True)
        assert pools.workers == [2]
        assert pools.tasks == [(8, q, True, False) for q in quiddity_classes(8)]

    def test_clamped_to_items(self, pools, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
        # 3 classes at order 6: one worker each.
        assert run_census(6, dedupe=True, jobs=8) == run_census(6, dedupe=True)
        # The 5 labelled pentagons are one class: one task, no pool.
        assert run_census(5, jobs=2) == run_census(5)
        # 4 classes (42 triangulations) at order 7 over 2 jobs: two workers.
        assert run_census(7, jobs=2) == run_census(7)
        assert pools.workers == [3, 2]

    def test_unknown_cpu_count_means_one_worker(self, pools, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: None)
        assert len(run_census(6, dedupe=True, jobs=10**9)) == DIHEDRAL_CLASSES[6]
        assert pools.workers == []

    def test_one_job_is_one_chunk(self, pools):
        assert len(run_census(6, jobs=1)) == catalan(4)
        assert pools.workers == []

    @staticmethod
    def no_generation(n):
        raise AssertionError("generated classes before the parameter checks")

    @pytest.mark.parametrize("jobs", [0, -1, -(10**9)])
    def test_jobs_below_one_rejected(self, jobs, monkeypatch):
        # run_census rejects a bad jobs count before it generates anything.
        monkeypatch.setattr(census, "quiddity_classes", self.no_generation)
        with pytest.raises(BadParam, match="jobs must be at least 1"):
            run_census(5, jobs=jobs)

    @pytest.mark.parametrize("n", [2, MAX_CENSUS_ORDER + 1, 10**9])
    @pytest.mark.parametrize("dedupe", [False, True])
    def test_order_out_of_range_rejected(self, n, dedupe, monkeypatch):
        monkeypatch.setattr(census, "quiddity_classes", self.no_generation)
        with pytest.raises(BadParam, match="census order must be in"):
            run_census(n, dedupe=dedupe)


class TestRunCensus:
    def test_pentagon_collapses_to_the_fan(self):
        recs = run_census(5, dedupe=True)
        assert len(recs) == 1
        assert "fan" in recs[0].family_labels

    def test_hexagon_classes_match_isomorphism_oracle(self):
        # Oracle: group all 14 labeled triangulations by raw permutation search.
        graphs = [graph_from_chords(6, c) for c in enumerate_triangulations(6)]
        groups: list[list[int]] = []
        for i, g in enumerate(graphs):
            for group in groups:
                if graphs_isomorphic(graphs[group[0]], g):
                    group.append(i)
                    break
            else:
                groups.append([i])
        assert len(groups) == 3
        recs = run_census(6, dedupe=True)
        assert len(recs) == 3

    @pytest.mark.parametrize("n", range(4, 11))
    def test_labelled_records_match_the_member_by_member_oracle(self, n):
        # Catches a class field copied onto the wrong image.
        assert run_census(n) == census_by_member(n)

    def test_class_fields_once_per_class_and_witness_once_per_record(self, monkeypatch):
        calls: dict[str, int] = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapped(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)

            return wrapped

        # The DP pass is solve's, inside _mop_verified.
        homes = {"graph_from_chords": census, "ear_cut": census, "is_generalized_sunflower": census,
                 "mop_gp_lanes": solve}
        for name, module in homes.items():
            monkeypatch.setattr(module, name, counting(module, name))
        for dedupe in (False, True):
            for n in range(4, 12):
                calls.clear()
                records = len(run_census(n, dedupe=dedupe))
                classes = DIHEDRAL_CLASSES[n]
                assert records == (classes if dedupe else catalan(n - 2))
                # One graph, one ear cut and one DP pass with a lane per member.
                assert calls == dict.fromkeys(homes, classes)

    @staticmethod
    def lanes_then(change):
        # A stand-in for mop_gp_lanes that hands each class's results to
        # change, with the graph whose edges are the triangles' sides: the
        # positions are the ear cut's hull 0..n-1, so it is the ear cut's
        # graph, which labellings[0] carries onto the class graph.
        real = solve.mop_gp_lanes

        def wrapped(n, triangles, labellings):
            results, pairs = real(n, triangles, labellings)
            g = build_graph(n, {e for a, c, b in triangles for e in ((a, c), (c, b), (a, b))})
            return change(g, labellings, results), pairs

        return wrapped

    def test_member_gp_off_its_class_is_an_internal_error(self, monkeypatch):
        def second_lane_off_by_one(g, labellings, results):
            value, witness = results[1]
            return [results[0], (value + 1, witness), *results[2:]]

        monkeypatch.setattr(solve, "mop_gp_lanes", self.lanes_then(second_lane_off_by_one))
        # Every class of order 6 has at least two labelled members.
        with pytest.raises(RuntimeError, match="internal: .* has gp 5, its class 4"):
            run_census(6)

    def test_lane_count_off_its_witness_is_an_internal_error(self, monkeypatch):
        # Every lane agrees on a count that its witness does not have.
        def every_lane_off_by_one(g, labellings, results):
            return [(value + 1, witness) for value, witness in results]

        monkeypatch.setattr(solve, "mop_gp_lanes", self.lanes_then(every_lane_off_by_one))
        with pytest.raises(RuntimeError, match="internal: solver returned 4 vertices for gp 5"):
            run_census(6)

    def test_later_member_with_a_bad_witness_fails_verification(self, monkeypatch):
        def second_witness_not_in_general_position(g, labellings, results):
            value, _ = results[1]
            dist = all_pairs_distances(g)
            bad = next(s for s in combinations(range(g.order), value) if not is_gp_naive(g, dist, s).is_gp)
            # The lane's witness is in the member's labels: labellings[1][p] names class vertex p.
            return [results[0], (value, tuple(sorted(labellings[1][p] for p in bad))), *results[2:]]

        monkeypatch.setattr(solve, "mop_gp_lanes", self.lanes_then(second_witness_not_in_general_position))
        with pytest.raises(RuntimeError, match="internal: solver returned a set that fails verification"):
            run_census(6)

    @pytest.mark.parametrize("dedupe", (False, True))
    def test_each_lane_carries_the_ear_cut_onto_its_record(self, dedupe, monkeypatch):
        # Oracle: the graph whose edges are the sides of the triangles the
        # census hands mop_gp_lanes is the ear cut's, and each lane is a
        # permutation that carries it edge for edge onto its record's graph.
        # An isomorphism of MOPs keeps the hull, so chords go onto chords.
        real, passes = solve.mop_gp_lanes, []

        def recording(n, triangles, labellings):
            passes.append((triangles, labellings))
            return real(n, triangles, labellings)

        monkeypatch.setattr(solve, "mop_gp_lanes", recording)
        for n in range(3, 12):
            for q in quiddity_classes(n):
                passes.clear()
                recs, _ = _class_records(n, q, dedupe)
                [(triangles, labellings)] = passes
                edges = {e for a, c, b in triangles for e in ((a, c), (c, b), (a, b))}
                assert edges == graph_from_chords(n, [(a, b) for a, _, b in ear_cut(q)[:-1]]).edges
                assert len(labellings) == len(recs)
                for r, lane in zip(recs, labellings):
                    assert sorted(lane) == list(range(n))
                    carried = {(min(lane[u], lane[v]), max(lane[u], lane[v])) for u, v in edges}
                    assert carried == graph_from_chords(n, r.chords).edges

    def test_each_distinct_carried_witness_verified_once(self, monkeypatch):
        real, calls = solve._verified, []

        def recording(g, value, witness, nodes):
            calls.append((g.edges, witness))
            return real(g, value, witness, nodes)

        monkeypatch.setattr(solve, "_verified", recording)
        for n in range(4, 11):
            calls.clear()
            records = 0
            expected = set()
            for q in quiddity_classes(n):
                recs, _ = _class_records(n, q, False)
                records += len(recs)
                maps = class_maps(n, q, recs)
                first = graph_from_chords(n, recs[0].chords).edges
                for r, m in zip(recs, maps):
                    expected.add((first, carried_onto_first(maps, m, r.gp_witness)))
            assert len(calls) == len(set(calls))
            assert set(calls) == expected
            # From the pentagon on, members share carried witnesses: 4 checks for
            # 5 records at order 5, and 501 for 1,430 at order 10.
            assert len(calls) < records or n == 4

    def test_hexagon_respects_the_cap(self):
        assert all(r.gp <= 4 for r in run_census(6, dedupe=False))

    def test_record_invariants(self):
        for rec in run_census(7, dedupe=False):
            assert rec.two_vertices == rec.internal_triangles + 2
            assert len(rec.chords) == 4
            assert rec.striped == (rec.internal_triangles == 0)
            assert rec.gp >= 3
            assert rec.gp >= (2 * (rec.max_degree + 1)) // 3
            assert rec.gp >= rec.internal_triangles + 2

    def test_witnesses_verify_both_ways(self):
        for rec in run_census(7, dedupe=True):
            g = graph_from_chords(7, rec.chords)
            dist = all_pairs_distances(g)
            assert is_gp_naive(g, dist, rec.gp_witness).is_gp
            assert is_gp_characterized(g, dist, rec.gp_witness).is_gp

    def test_dedupe_idempotent(self):
        recs = run_census(7, dedupe=True)
        keys = {r.canonical_key for r in recs}
        rebuilt = {
            canonical_form(recognize(graph_from_chords(7, r.chords))) for r in recs
        }
        assert rebuilt == keys

    def test_records_sorted_by_key(self):
        recs = run_census(6, dedupe=False)
        assert [(r.canonical_key, r.chords) for r in recs] == sorted(
            (r.canonical_key, r.chords) for r in recs
        )

    def test_jobs_do_not_change_output(self):
        base = census_to_csv(run_census(7, dedupe=False, jobs=1))
        assert base == census_to_csv(run_census(7, dedupe=False, jobs=2))
        dd = census_to_csv(run_census(7, dedupe=True, jobs=1))
        assert dd == census_to_csv(run_census(7, dedupe=True, jobs=3))

    @pytest.mark.parametrize("n", range(5, 13))
    def test_gsf_label_matches_every_base_triangulation(self, n):
        # Oracle: the generator over every triangulated core, keyed by canonical_form.
        expected = {
            canonical_form(recognize(generalized_sunflower(n, base_chords=base).graph))
            for base in enumerate_triangulations((n + 1) // 2)
        }
        assert {r.canonical_key for r in run_census(n, dedupe=True) if "gsf" in r.family_labels} == expected

    def test_fan_labeled_at_every_order(self):
        for n in (5, 6, 7, 8):
            recs = run_census(n, dedupe=True)
            assert sum(1 for r in recs if "fan" in r.family_labels) == 1

    def test_range_checks(self):
        with pytest.raises(BadParam):
            run_census(2)


class TestCsv:
    def test_header_and_shape(self):
        text = census_to_csv(run_census(6, dedupe=True))
        lines = text.splitlines()
        assert lines[0] == (
            "n,canonical_key,gp,max_degree,internal_triangles,two_vertices,"
            "striped,families,chords,witness"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "6"
        assert re.fullmatch(r"[0-9a-f]*", first[1])

    def test_chord_and_witness_fields_round_trip(self):
        recs = run_census(6, dedupe=True)
        rows = census_to_csv(recs).splitlines()[1:]
        for rec, row in zip(recs, rows):
            fields = row.split(",")
            chords = tuple(
                tuple(int(x) for x in pair.split("-")) for pair in fields[-2].split(";")
            )
            witness = tuple(int(x) for x in fields[-1].split(";"))
            assert chords == rec.chords
            assert witness == rec.gp_witness

    @pytest.mark.parametrize("n", sorted(DEDUPE_CSV_SHA256))
    def test_dedupe_bytes_pinned(self, n):
        text = census_to_csv(run_census(n, dedupe=True))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == DEDUPE_CSV_SHA256[n]

    @pytest.mark.parametrize("n", sorted(LABELLED_CSV_SHA256))
    def test_labelled_bytes_pinned(self, n):
        text = census_to_csv(run_census(n))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == LABELLED_CSV_SHA256[n]


class TestClaims:
    def test_hexagon_extremal_class_is_the_fan(self):
        reports = {r.claim: r for r in verify_paper_claims(6, 6)}
        assert reports["upper_bound_extremal"].status == "pass"
        assert reports["global_upper_bound"].status == "pass"

    def test_order_seven_internal_triangle_maximum(self):
        reports = {r.claim: r for r in verify_paper_claims(7, 7)}
        assert reports["internal_triangle_max"].status == "pass"
        assert reports["internal_lower_bound"].status == "pass"

    def test_identity_claims_over_a_range(self):
        reports = verify_paper_claims(4, 8)
        for rep in reports:
            if rep.claim in ("two_vertex_count", "chord_count"):
                assert rep.status == "pass"
                assert rep.checked > 0

    def test_report_line_format(self):
        reports = verify_paper_claims(5, 5)
        pattern = re.compile(r"CLAIM \S+ n=\d+ checked=\d+ violations=\d+ status=(pass|fail)")
        for line in claim_report_text(reports).splitlines():
            assert pattern.fullmatch(line)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_violation_lines_name_each_class_by_its_chords(self, n):
        # A violation line names a class by the chords of its least image,
        # which the deduplicated record carries; fed back through the
        # polygon builder they give the class's key again.
        recs = run_census(n, dedupe=True)
        report = ClaimReport("any", n, "all classes", len(recs), tuple(r.canonical_key.hex() for r in recs))
        lines = claim_report_text([report]).splitlines()
        assert lines[0] == report.line()
        assert lines[1:] == ["  chords=" + ";".join(f"{a}-{b}" for a, b in r.chords) for r in recs]
        for line, r in zip(lines[1:], recs):
            chords = tuple(tuple(int(v) for v in c.split("-")) for c in line.removeprefix("  chords=").split(";"))
            assert canonical_form(recognize(graph_from_chords(n, chords))) == r.canonical_key

    def test_degree_lower_bound_names_a_bad_pattern(self, monkeypatch):
        # A fan pattern that is not in general position is a violation
        # naming its class, not an exception out of the battery.
        n = 7
        recs = run_census(n, dedupe=True)
        fan_key = _catalog_key(n, "fan")
        fan_g = graph_from_chords(n, next(r.chords for r in recs if r.canonical_key == fan_key))
        real = census._fan_pattern
        bound = real(fan_g)[0]
        dist = all_pairs_distances(fan_g)
        bad = next(s for s in combinations(range(n), bound) if not is_gp_naive(fan_g, dist, s).is_gp)

        def pattern(g):
            return (bound, bad) if g == fan_g else real(g)

        monkeypatch.setattr(census, "_fan_pattern", pattern)
        report = _report(verify_paper_claims(n, n), "degree_lower_bound")
        assert report.violations == (fan_key.hex(),)
        assert report.checked == len(recs)

    def test_claims_build_no_row_from_a_witness(self, monkeypatch):
        # The degree claim checks its fan pattern by the level walk on the
        # class graph, and recognize proves each catalog graph with no
        # connectivity test, so no BFS runs at all.
        def counted(g, source):
            sources.add(source)
            return real_bfs(g, source)

        real_bfs, sources = graph.bfs_distances, set()
        monkeypatch.setattr(graph, "bfs_distances", counted)
        census._generator_catalog.cache_clear()
        census._claim_table.cache_clear()
        verify_paper_claims(4, 10)
        assert sources == set()

    def test_one_graph_per_class_built_in_its_task(self, monkeypatch):
        real, calls = census.graph_from_chords, []

        def counting(n, chords):
            calls.append(chords)
            return real(n, chords)

        monkeypatch.setattr(census, "graph_from_chords", counting)
        for n in range(4, 12):
            calls.clear()
            verify_paper_claims(n, n)
            assert len(calls) == DIHEDRAL_CLASSES[n]

    def test_pool_workers_check_the_claims(self, pools, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        real, calls = census.class_violations, []

        def counting(record, g):
            calls.append(record.canonical_key)
            return real(record, g)

        monkeypatch.setattr(census, "class_violations", counting)
        assert verify_paper_claims(7, 9, jobs=2) == verify_paper_claims(7, 9)
        # The 4, 12 and 27 classes of orders 7..9 share one pool of two workers;
        # each class is checked once per run.
        assert pools.workers == [2]
        assert pools.tasks == [(n, q, True, True) for n in range(7, 10) for q in quiddity_classes(n)]
        assert len(calls) == 2 * (DIHEDRAL_CLASSES[7] + DIHEDRAL_CLASSES[8] + DIHEDRAL_CLASSES[9])

    def test_report_bytes_pinned(self):
        # `gpmop check 4 13 --jobs 2` prints exactly this text.
        text = claim_report_text(verify_paper_claims(4, 13, jobs=2))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "203cd6a531789e75"

    def test_range_checks(self):
        with pytest.raises(BadParam):
            verify_paper_claims(3, 5)
        with pytest.raises(BadParam):
            verify_paper_claims(5, MAX_CENSUS_ORDER + 1)


# Claim sensitivity: each claim must name a class whose record is mutated to
# break it.  The battery runs on the order-10 classes with one record
# replaced, through the two halves verify_paper_claims runs: class_violations
# on each record's own graph, then _claim_reports over the order.
ORDER = 10
LEANING_FAN = ((0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (6, 8), (6, 9))
SHIFTED_FAN = ((0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (7, 9))


def _catalog_key(n, label):
    return next(key for lab, key in _generator_catalog(n) if lab == label)


def _report(reports, claim):
    return next(r for r in reports if r.claim == claim)


@lru_cache(maxsize=None)
def _order_ten_classes():
    return tuple(run_census(ORDER, dedupe=True))


def _is_fan(r):
    return r.canonical_key == _catalog_key(ORDER, "fan")


def _not_slt(r):
    return r.canonical_key != _catalog_key(ORDER, "straight_linear_2tree")


def _without_chord(r):
    return {"chords": tuple(c for c in r.chords if c != (6, 8))}


MUTATIONS = [
    ("two_vertex_count", _is_fan, lambda r: {"two_vertices": r.two_vertices + 1}),
    ("chord_count", lambda r: r.chords == LEANING_FAN, _without_chord),
    ("degree_lower_bound", _is_fan, lambda r: {"max_degree": r.max_degree + 3}),
    ("witness_neighbor_cap", _is_fan, lambda r: {"gp_witness": (0, 1, 2, 9)}),
    ("witness_triangle_free", _is_fan, lambda r: {"gp_witness": (0, 1, 2, 5)}),
    ("fan_gp_formula", _is_fan, lambda r: {"gp": r.gp - 1}),
    ("global_upper_bound", lambda r: True, lambda r: {"gp": 7}),
    (
        "upper_bound_extremal",
        lambda r: r.canonical_key not in expected_extremal_keys(ORDER),
        lambda r: {"gp": 6},
    ),
    ("max_degree_four", lambda r: _not_slt(r) and r.max_degree > 4, lambda r: {"max_degree": 4}),
    (
        "striped_extremes",
        lambda r: r.striped and _not_slt(r) and r.canonical_key not in striped_catalog_keys(ORDER),
        lambda r: {"gp": 3},
    ),
    (
        "internal_triangle_max",
        lambda r: "gsf" not in r.family_labels,
        lambda r: {"internal_triangles": 3},
    ),
    ("internal_lower_bound", lambda r: True, lambda r: {"gp": r.internal_triangles + 1}),
    (
        "segment_confinement",
        lambda r: r.chords == SHIFTED_FAN,
        lambda r: {"chords": tuple(sorted(r.chords + ((1, 8),)))},
    ),
    ("common_neighbor", lambda r: r.chords == LEANING_FAN, _without_chord),
    ("cycle_window_cap", _is_fan, lambda r: {"gp_witness": (0, 1, 2, 5)}),
]


def _violations(r):
    return class_violations(r, graph_from_chords(ORDER, r.chords))


def _battery_on(recs):
    """Run the order-10 battery on recs in place of the census records."""
    return list(census._claim_reports(ORDER, [(r, _violations(r)) for r in recs]))


def _mutated(pick, change):
    """The order-10 classes with the first that pick selects mutated by
    change, and that class's mutated record."""
    recs = list(_order_ten_classes())
    i = next(i for i, r in enumerate(recs) if pick(r))
    recs[i] = recs[i]._replace(**change(recs[i]))
    return recs, recs[i]


def _battery_with(pick, change):
    """Run the order-10 battery with the first class that pick selects
    mutated by change; return the reports and that class's key."""
    recs, mutated = _mutated(pick, change)
    return _battery_on(recs), mutated.canonical_key


class TestClaimSensitivity:
    def test_every_claim_has_a_mutation(self):
        assert {claim for claim, _, _ in MUTATIONS} == {
            r.claim for r in verify_paper_claims(ORDER, ORDER)
        }

    def test_unmutated_classes_break_no_claim(self):
        # Outside its hypothesis a class breaks nothing: no fan formula on a non-fan.
        assert [_violations(r) for r in _order_ten_classes()] == [frozenset()] * DIHEDRAL_CLASSES[ORDER]

    @pytest.mark.parametrize(
        "claim,pick,change", [pytest.param(*m, id=m[0]) for m in MUTATIONS]
    )
    def test_mutated_class_is_named(self, claim, pick, change):
        recs, mutated = _mutated(pick, change)
        assert claim in _violations(mutated)
        assert mutated.canonical_key.hex() in _report(_battery_on(recs), claim).violations

    def test_extra_crossing_chord_breaks_the_face_count(self):
        # The record keeps its n-3 chords; only the graph's own triangles
        # tell.  (7, 9) crosses (6, 8) away from the hub 0, whose fan the
        # degree claim still reads.
        r = next(r for r in _order_ten_classes() if r.chords == LEANING_FAN)
        assert "chord_count" in class_violations(r, graph_from_chords(ORDER, r.chords + ((7, 9),)))

    def test_striped_catalog_member_below_the_cap_is_named(self):
        reports, key = _battery_with(_is_fan, lambda r: {"gp": 5})
        assert _report(reports, "striped_extremes").violations == (key.hex(),)

    def test_striped_extremes_names_a_class_once(self):
        # The mutated fan breaks both halves of the claim at an order 1 mod 3.
        reports, key = _battery_with(_is_fan, lambda r: {"gp": 3})
        assert _report(reports, "striped_extremes").violations == (key.hex(),)

    def test_catalog_key_without_a_class_is_named(self):
        # A catalog key that no class carries is a violation of each claim naming it.
        slt = _catalog_key(ORDER, "straight_linear_2tree")
        recs = [r for r in _order_ten_classes() if r.canonical_key != slt]
        reports = _battery_on(recs)
        for claim, checked in (("max_degree_four", 81), ("striped_extremes", 19)):
            rep = _report(reports, claim)
            assert (rep.checked, rep.violations) == (checked, (slt.hex(),))

    def test_internal_maximum_above_the_cap_is_named(self):
        # A non-gsf class above floor(n/2)-2 breaks the maximum, not the attainment.
        reports, _ = _battery_with(
            lambda r: "gsf" not in r.family_labels, lambda r: {"internal_triangles": 4}
        )
        assert _report(reports, "internal_triangle_max").violations == ("max_internal=4!=3",)

    def test_report_text_lists_each_violation(self):
        # A failing report's line is followed by one indented line per
        # violation: the mutated fan by its chords, and the order-level
        # maximum as it is; a passing report by none.
        fan = next(r for r in _order_ten_classes() if _is_fan(r))
        fan_line = "  chords=" + ";".join(f"{a}-{b}" for a, b in fan.chords)
        reports, _ = _battery_with(_is_fan, lambda r: {"gp": 5})
        text = claim_report_text(reports)
        assert f"{_report(reports, 'fan_gp_formula').line()}\n{fan_line}\n" in text
        assert f"{_report(reports, 'striped_extremes').line()}\n{fan_line}\n" in text
        expected = []
        for r in reports:
            expected += [r.line(), *([fan_line] * len(r.violations))]
        assert text.splitlines() == expected
        reports, _ = _battery_with(
            lambda r: "gsf" not in r.family_labels, lambda r: {"internal_triangles": 4}
        )
        line = _report(reports, "internal_triangle_max").line()
        assert f"{line}\n  max_internal=4!=3\nCLAIM " in claim_report_text(reports)


def _class_task(g):
    """The census's own class task, claims included, on the MOP g of any
    order: its quiddity sequence is the degrees minus one along the hull.
    Returns the hull, the class's record and the claims it breaks."""
    cycle = recognize(g).cycle
    records, bad = _class_records(g.order, bytes(len(g.adjacency[v]) - 1 for v in cycle), True, True)
    return cycle, records[0], bad


class TestSampledClasses:
    # The class task beyond the census orders, on sampled classes.

    def test_random_mops(self):
        # A class at the cap may lie outside the extremal catalog (as the
        # order-16 one does); no other claim may fail.  Each order's first
        # task builds its generator catalog, most of this test's time.
        rng = random.Random(17)
        for n in range(17, 41):
            for _ in range(15):
                g = random_mop(rng, n)
                cycle, r, bad = _class_task(g)
                assert bad <= ({"upper_bound_extremal"} if r.gp == (2 * n) // 3 else set())
                along = [0] * n
                for p, v in enumerate(cycle):
                    along[v] = p
                assert gp_number(relabeled(g, along)).value == r.gp

    @pytest.mark.parametrize("n", [19, 22, 25, 31])
    def test_catalog_members(self, n):
        for label, inst in generators_at(n):
            _, r, bad = _class_task(inst.graph)
            assert not bad and label in r.family_labels, label

    def test_order_sixteen_cap_class(self):
        _, r, bad = _class_task(test_dual.TestOrderSixteenCapClass().graph())
        assert (r.gp, bad) == (10, {"upper_bound_extremal"})
