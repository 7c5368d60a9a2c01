"""Acceptance suite: one test per reproduction target, each printing a
PASS/FAIL line.

Each target is asserted under the hypotheses the package states for it in
the claim battery (``gpmop check``), and a boundary case that a hypothesis
excludes is pinned by an assertion of its own:

- criterion 02 asserts gp <= floor(2n/3) for every triangulation of orders
  5..12, the orders for which ``fan`` and the claim battery state the
  two-thirds formula (the battery's global-bound claim starts at order 6,
  and order 5 is the fan alone, with gp = 3 = floor(10/3)).  Order 4 is excluded because both order-4 triangulations are K4
  minus an edge, whose triangle is a general position set of size
  3 > floor(8/3); the test instead asserts gp = 3 there, against the
  exhaustive ``brute_force_gp`` oracle.
- criterion 12 asserts the 3-consecutive hull-window cap for witnesses of
  size >= 4, as the ``cycle_window_cap`` claim states it.  A size-3 witness
  may fill a window; the test then asserts that it is exactly that window
  and induces a triangle (the ear at a 2-vertex), since three consecutive
  hull vertices without the closing chord put the middle one on a geodesic
  between the other two.
"""

import random

from gpmop import (
    all_pairs_distances,
    census_to_csv,
    enumerate_triangulations,
    fan,
    generalized_sunflower,
    gp_number,
    is_generalized_sunflower,
    is_gp_characterized,
    is_gp_naive,
    mop_greedy_lower_bound,
    recognize,
    run_census,
)
from gpmop.census import (
    expected_extremal_keys,
    graph_from_chords,
    striped_catalog_keys,
)
from gpmop.cli import main as cli_main
from helpers import brute_force_gp, polygon_certificate, random_connected_graph

_FULL: dict[int, list] = {}
_CLASSES: dict[int, list] = {}


def full_census(n):
    if n not in _FULL:
        _FULL[n] = run_census(n, dedupe=False)
    return _FULL[n]


def census_classes(n):
    if n not in _CLASSES:
        if n <= 12:
            reps = {}
            for rec in full_census(n):
                old = reps.get(rec.canonical_key)
                if old is None or rec.chords < old.chords:
                    reps[rec.canonical_key] = rec
            _CLASSES[n] = sorted(reps.values(), key=lambda r: r.canonical_key)
        else:
            _CLASSES[n] = run_census(n, dedupe=True)
    return _CLASSES[n]


def report(num, slug, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"\nCRITERION {num:02d} {slug}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_01_fan_formula():
    bad = []
    for n in range(5, 31):
        inst = fan(n)
        value = gp_number(inst.graph, cert=recognize(inst.graph)).value
        if value != (2 * n) // 3:
            bad.append((n, value))
    report(1, "fan_formula", not bad, f"orders 5..30, mismatches: {bad}")
    assert not bad, f"fan value mismatches: {bad}"


def test_criterion_02_global_upper_bound():
    violations = []
    for n in range(5, 13):
        cap = (2 * n) // 3
        for rec in full_census(n):
            if rec.gp > cap:
                violations.append((n, rec.chords, rec.gp, cap))
    order_four = full_census(4)
    order_four_bad = []
    for rec in order_four:
        oracle = brute_force_gp(graph_from_chords(4, rec.chords))[0]
        if rec.gp != 3 or oracle != 3:
            order_four_bad.append((rec.chords, rec.gp, oracle))
    ok = not violations and len(order_four) == 2 and not order_four_bad
    report(
        2,
        "global_upper_bound",
        ok,
        f"orders 5..12, violations: {len(violations)}; "
        f"order 4 (excluded, gp = 3 by exhaustive enumeration): {len(order_four)} "
        f"triangulations, mismatches: {order_four_bad}",
    )
    assert not violations, (
        f"{len(violations)} violations of gp <= floor(2n/3) over orders 5..12, "
        f"as (n, chords, gp, cap): {violations[:4]}"
    )
    assert len(order_four) == 2, f"expected 2 order-4 triangulations, got {len(order_four)}"
    assert not order_four_bad, (
        "order-4 triangulations whose census or exhaustive gp is not 3, "
        f"as (chords, census gp, oracle gp): {order_four_bad}"
    )


def test_criterion_03_extremal_classes_away_from_one_mod_three():
    bad = {}
    for n in (6, 8, 9, 11, 12):
        cap = (2 * n) // 3
        actual = {r.canonical_key for r in census_classes(n) if r.gp == cap}
        expected = expected_extremal_keys(n)
        if actual != expected:
            bad[n] = sorted(k.hex() for k in actual.symmetric_difference(expected))
    report(3, "extremal_is_fan_only", not bad, "orders 6,8,9,11,12")
    assert not bad, f"extremal classes differ from the fan: {bad}"


def test_criterion_04_extremal_classes_at_one_mod_three():
    diffs = {}
    for n in (7, 10, 13):
        cap = (2 * n) // 3
        actual = {r.canonical_key for r in census_classes(n) if r.gp == cap}
        expected = expected_extremal_keys(n)
        if actual != expected:
            diffs[n] = {
                "census_only": sorted(k.hex() for k in actual - expected),
                "catalog_only": sorted(k.hex() for k in expected - actual),
            }
    report(4, "extremal_matches_catalog", not diffs, "orders 7,10,13")
    assert not diffs, f"extremal classes vs generator catalog diff: {diffs}"


def test_criterion_05_structural_identities():
    bad = []
    for n in range(4, 13):
        for rec in full_census(n):
            if rec.two_vertices != rec.internal_triangles + 2 or len(rec.chords) != n - 3:
                bad.append((n, rec.chords))
    report(5, "structural_identities", not bad, "2-vertices = internal+2 and chords = n-3, orders 4..12")
    assert not bad, f"identity violations: {bad[:5]}"


def test_criterion_06_lower_bounds():
    bad = []
    for n in range(4, 13):
        for rec in full_census(n):
            if rec.gp < (2 * (rec.max_degree + 1)) // 3 or rec.gp < rec.internal_triangles + 2:
                bad.append((n, rec.chords, rec.gp))
    witness_bad = []
    for n in range(4, 13):
        for rec in full_census(n):
            g = graph_from_chords(n, rec.chords)
            cert = polygon_certificate(n, rec.chords)
            bound, witness = mop_greedy_lower_bound(g, cert)
            dist = all_pairs_distances(g)
            if (
                len(witness) != bound
                or not is_gp_naive(g, dist, witness).is_gp
                or not is_gp_characterized(g, dist, witness).is_gp
            ):
                witness_bad.append((n, rec.chords))
    ok = not bad and not witness_bad
    report(6, "lower_bounds", ok, "degree and internal-triangle bounds with verified constructive witnesses")
    assert ok, f"bound violations: {bad[:5]}; witness failures: {witness_bad[:5]}"


def test_criterion_07_max_degree_four_classes():
    bad = {}
    for n in range(7, 13):
        actual = {r.canonical_key for r in census_classes(n) if r.max_degree == 4}
        expected = {
            rec.canonical_key
            for rec in census_classes(n)
            if "straight_linear_2tree" in rec.family_labels
        }
        if actual != expected or len(expected) != 1:
            bad[n] = (sorted(k.hex() for k in actual), sorted(k.hex() for k in expected))
    report(7, "max_degree_four_is_linear_2tree", not bad, "orders 7..12")
    assert not bad, f"max-degree-4 classes: {bad}"


def test_criterion_08_striped_extremes():
    bad = []
    empirical = {}
    for n in range(5, 13):
        striped = [r for r in census_classes(n) if r.striped]
        min_set = {r.canonical_key for r in striped if r.gp == 3}
        slt_set = {
            r.canonical_key for r in striped if "straight_linear_2tree" in r.family_labels
        }
        if min_set != slt_set:
            bad.append((n, "gp=3 classes differ from the straight linear 2-tree"))
        if n % 3 == 1:
            cap = (2 * n) // 3
            extremal = {r.canonical_key for r in striped if r.gp == cap}
            empirical[n] = sorted(k.hex() for k in extremal)
            by_key = {r.canonical_key: r for r in census_classes(n)}
            for key in striped_catalog_keys(n):
                rec = by_key.get(key)
                if rec is None or not rec.striped:
                    continue
                if key not in extremal:
                    bad.append((n, f"listed striped member {key.hex()} not extremal"))
    print(f"\nempirical striped extremal classes at orders 1 mod 3: {empirical}")
    report(8, "striped_extremes", not bad, "orders 5..12")
    assert not bad, f"striped extreme failures: {bad}"


def test_criterion_09_internal_triangle_maximum():
    bad = []
    for n in range(6, 13):
        cap = n // 2 - 2
        classes = census_classes(n)
        max_k = max(r.internal_triangles for r in classes)
        if max_k != cap:
            bad.append((n, f"max internal {max_k} != {cap}"))
            continue
        maximizers = {r.canonical_key for r in classes if r.internal_triangles == cap}
        structural = {
            r.canonical_key
            for r in classes
            if is_generalized_sunflower(graph_from_chords(n, r.chords))
        }
        if maximizers != structural:
            bad.append((n, "maximizers differ from the structural sunflower test"))
    report(9, "internal_triangle_maximum", not bad, "orders 6..12")
    assert not bad, f"internal-triangle maximum failures: {bad}"


def test_criterion_10_generalized_sunflower_values():
    bad = []
    tested = 0
    for n in range(7, 17):
        m = (n + 1) // 2
        bases = list(enumerate_triangulations(m)) if m >= 4 else [()]
        picks = bases if len(bases) <= 3 else [bases[0], bases[len(bases) // 2], bases[-1]]
        expected = 4 if n == 7 else n // 2
        for base in picks:
            inst = generalized_sunflower(n, base_chords=base)
            value = gp_number(inst.graph, cert=recognize(inst.graph)).value
            tested += 1
            if value != expected:
                bad.append((n, base, value, expected))
    report(
        10,
        "generalized_sunflower_values",
        not bad,
        f"{tested} instances over orders 7..16 (all bases where fewer than 3 exist)",
    )
    assert not bad, f"sunflower value mismatches: {bad}"


def test_criterion_11_oracle_equivalence():
    pool = []
    for n in range(4, 11):
        pool.extend((n, chords) for chords in enumerate_triangulations(n))
    rng = random.Random(20260810)
    disagreements = 0
    trials = 10_000
    for trial in range(trials):
        if trial % 2 == 0:
            n, chords = pool[rng.randrange(len(pool))]
            g = graph_from_chords(n, chords)
        else:
            g = random_connected_graph(rng, rng.randint(2, 9))
        dist = all_pairs_distances(g)
        members = [v for v in range(g.order) if rng.random() < 0.5]
        if is_gp_naive(g, dist, members).is_gp != is_gp_characterized(g, dist, members).is_gp:
            disagreements += 1

    solver_bad = []
    for n in range(3, 9):
        for chords in enumerate_triangulations(n):
            g = graph_from_chords(n, chords)
            if gp_number(g).value != brute_force_gp(g)[0]:
                solver_bad.append((n, chords))
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 8))
        if gp_number(g).value != brute_force_gp(g)[0]:
            solver_bad.append(("random", g.edges))

    ok = disagreements == 0 and not solver_bad
    report(
        11,
        "oracle_equivalence",
        ok,
        f"{trials} verifier trials, {disagreements} disagreements; "
        f"solver vs exhaustive enumeration failures: {len(solver_bad)}",
    )
    assert ok


def test_criterion_12_witness_structure():
    neighbor_bad = []
    triangle_bad = []
    window_bad = []
    window_small_bad = []
    window_triangles = 0
    for n in range(4, 13):
        for rec in full_census(n):
            w = rec.gp_witness
            wset = set(w)
            g = graph_from_chords(n, rec.chords)
            if len(w) >= 3:
                if any(len(set(g.adjacency[x]) & wset) > 2 for x in w):
                    neighbor_bad.append((n, rec.chords))
            if len(w) >= 4:
                found = False
                for i, a in enumerate(w):
                    for j in range(i + 1, len(w)):
                        if g.has_edge(a, w[j]):
                            for k in range(j + 1, len(w)):
                                if g.has_edge(a, w[k]) and g.has_edge(w[j], w[k]):
                                    found = True
                if found:
                    triangle_bad.append((n, rec.chords))
            # The census hull is 0..n-1.
            cyc = range(n)
            windows = [(cyc[i], cyc[(i + 1) % n], cyc[(i + 2) % n]) for i in range(n)]
            full_windows = [win for win in windows if wset.issuperset(win)]
            if not full_windows:
                continue
            if len(w) >= 4:
                window_bad.append((n, rec.chords, w))
                continue
            for a, b, c in full_windows:
                is_triangle = g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                if {a, b, c} == wset and is_triangle:
                    window_triangles += 1
                else:
                    window_small_bad.append((n, rec.chords, w, (a, b, c)))
    ok = not neighbor_bad and not triangle_bad and not window_bad and not window_small_bad
    report(
        12,
        "witness_structure",
        ok,
        f"neighbor cap: {len(neighbor_bad)}; induced triangles: {len(triangle_bad)}; "
        f"hull-window cap (size >= 4): {len(window_bad)}; "
        f"size-3 witnesses filling a window: {window_triangles} triangles, "
        f"{len(window_small_bad)} non-triangles",
    )
    assert not neighbor_bad, f"neighbor-cap violations: {neighbor_bad[:5]}"
    assert not triangle_bad, f"induced-triangle violations: {triangle_bad[:5]}"
    assert not window_bad, (
        f"{len(window_bad)} witnesses of size >= 4 with 3 members among 3 "
        f"consecutive hull vertices, as (n, chords, witness): {window_bad[:3]}"
    )
    assert not window_small_bad, (
        "size-3 witnesses filling a hull window that is not an induced triangle, "
        f"as (n, chords, witness, window): {window_small_bad[:3]}"
    )


def test_criterion_13_census_determinism(tmp_path):
    outputs = []
    for name, args in (
        ("a", ["census", "7", "--out"]),
        ("b", ["census", "7", "--jobs", "2", "--out"]),
        ("c", ["census", "7", "--jobs", "3", "--out"]),
        ("d", ["census", "7", "--out"]),
    ):
        target = tmp_path / f"{name}.csv"
        assert cli_main(args + [str(target)]) == 0
        outputs.append(target.read_bytes())
    identical = all(o == outputs[0] for o in outputs)
    in_process = census_to_csv(run_census(7)).encode() == outputs[0]
    report(13, "census_determinism", identical and in_process, "byte-identical across repeats and --jobs 1,2,3")
    assert identical and in_process
