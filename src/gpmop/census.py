"""Exhaustive triangulation census with batched claim checking.

The isomorphism classes of triangulated n-gons are grown from the triangle
by ear insertion on their quiddity sequences (triangles per hull vertex),
each class kept as its least dihedral image, its one identity: the generator
catalog keys its members' labels by it, and the claims read those labels.
The canonical key, the least chord image, is only output (the CSV column
and the sort order); a claim names a class by that image's chords.  Each
class is one task that starts from its quiddity sequence, and one call of
``run_census`` or ``verify_paper_claims`` runs the tasks of every order it
covers here or on one fork pool.  A task, ``_class_records``, takes the
class's triangles from ``mop.ear_cut``, the one route to the triangles of
a MOP, and builds the records of all its members together, with one
verified dual-tree pass.
``enumerate_triangulations``, the classic apex recursion over labelled
triangulations, is the independent oracle the census is tested against.
``verify_paper_claims`` machine-checks the bounds, identities, and extremal
characterizations this package reproduces, one report per claim per order:
one table of claims per order, each with its first order and per-class test,
which ``class_violations`` runs in each class's task on the graph the task
holds, so that the parent only adds up the classes' results.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from .families import BadParam, generators_at, is_generalized_sunflower
from .graph import Graph
from .mop import (
    StructureViolation,
    _stats,
    chord_text,
    dihedral_images,
    ear_cut,
    graph_from_chords,
    hull_triangles,
    image_key,
    recognize,
)
from .solve import _fan_pattern, _mop_verified
from .verify import is_gp_levels

MIN_CENSUS_ORDER = 3
MAX_CENSUS_ORDER = 14

Chords = tuple[tuple[int, int], ...]
_ClassResult = tuple[list["CensusRecord"], frozenset[str]]


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _tri(lo: int, hi: int) -> Iterator[Chords]:
    # Triangulations of the sub-polygon lo..hi, base edge (lo, hi) excluded, unsorted.
    if hi - lo < 2:
        yield ()
        return
    for apex in range(lo + 1, hi):
        left_base = ((lo, apex),) if apex - lo >= 2 else ()
        right_base = ((apex, hi),) if hi - apex >= 2 else ()
        for left in _tri(lo, apex):
            for right in _tri(apex, hi):
                yield left_base + left + right_base + right


def enumerate_triangulations(n: int) -> Iterator[Chords]:
    """The chord set of every triangulation of the convex polygon 0..n-1
    exactly once: catalan(n-2) of them, apex-ascending, left sub-polygon
    first.  The order is checked at the call, before anything is yielded."""
    if not MIN_CENSUS_ORDER <= n <= MAX_CENSUS_ORDER:
        raise BadParam(f"census order must be in {MIN_CENSUS_ORDER}..{MAX_CENSUS_ORDER}, got {n}")
    return (tuple(sorted(chords)) for chords in _tri(0, n - 1))


class CensusRecord(NamedTuple):
    """One triangulation of the census; a tuple, so that a class task builds
    and pickles its records cheaply and the cyclic collector may leave them
    alone."""

    n: int
    canonical_key: bytes
    chords: Chords
    gp: int
    gp_witness: tuple[int, ...]
    max_degree: int
    internal_triangles: int
    two_vertices: int
    striped: bool
    family_labels: tuple[str, ...]


@dataclass(frozen=True)
class ClaimReport:
    """One claim checked over the classes of one order.

    Each violation is an entry printed as it is: ``chords=a-b;c-d;...`` (a
    flagged class's least image), ``missing=<label>`` (a catalog label no
    class carries) or ``max_internal=<max>!=<floor(n/2)-2>``.
    ``checked=0`` with status ``pass`` means nothing was checked: the order
    lies below the range the claim is stated for, or no class meets its
    hypothesis.
    """

    claim: str
    n: int
    universe: str
    checked: int
    violations: tuple[str, ...]

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def line(self) -> str:
        return (
            f"CLAIM {self.claim} n={self.n} checked={self.checked} "
            f"violations={len(self.violations)} status={self.status}"
        )


@lru_cache(maxsize=None)
def _generator_catalog(n: int) -> dict[tuple[int, ...], tuple[str, ...]]:
    """The ``generators_at`` labels of order n, in that order, by class: the least image of the
    degrees minus one along the hull ``recognize`` finds, as ``quiddity_classes`` yields it."""
    out: dict[tuple[int, ...], tuple[str, ...]] = {}
    for label, inst in generators_at(n):
        q = _quiddity_key(tuple(inst.graph.degree(v) - 1 for v in recognize(inst.graph).cycle))
        out[q] = out.get(q, ()) + (label,)
    return out


def _quiddity_key(q: tuple[int, ...]) -> tuple[int, ...]:
    # The smallest of the 2n dihedral images of a quiddity sequence (triangles
    # per hull vertex): a complete isomorphism invariant of a triangulated polygon.
    # The least image starts with the least entry, 1 in every triangulated
    # polygon (an ear tip), so only the rotations from a 1 compete.
    n, fwd = len(q), q * 2
    return min([s[i : i + n] for s in (fwd, fwd[::-1]) for i in range(n) if s[i] == 1])


@lru_cache(maxsize=None)
def quiddity_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """The isomorphism classes of triangulations of the n-gon, n >= 3, each as
    its least dihedral quiddity image, sorted.  A class of order n+1 arises
    from one of order n by inserting an ear on a hull edge: a 1 between two
    neighbours of the quiddity sequence, each of which gains a triangle."""
    if n <= MIN_CENSUS_ORDER:
        if n < MIN_CENSUS_ORDER:
            raise BadParam(f"a polygon has at least {MIN_CENSUS_ORDER} vertices, got {n}")
        return ((1, 1, 1),)
    level = set()
    for q in quiddity_classes(n - 1):
        for i in range(n - 1):
            grown = list(q)
            grown[i] += 1
            grown[(i + 1) % (n - 1)] += 1
            grown.insert(i + 1, 1)
            level.add(_quiddity_key(tuple(grown)))
    return tuple(sorted(level))


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    # One (a, b) tuple per chord code a * n + b, shared by every record of order n.
    return tuple(divmod(c, n) for c in range(n * n))


def _class_records(n: int, q: tuple[int, ...], dedupe: bool, claims: bool = False) -> _ClassResult:
    """The records of the class with quiddity sequence q, its least image as
    ``quiddity_classes`` yields it and the catalog keys it, sorted by chords,
    and, when claims is set, the claims it breaks.  ``ear_cut`` gives the
    class's triangles and chords on the hull 0..n-1, and ``dihedral_images``
    each dihedral map m of that hull with the chords' image under it: every
    distinct image is a member, or only the least when dedupe is set, and the
    least image, packed, is the canonical key, an output only.  A member's
    map sends the ear cut onto the member, so it is the member's lane, its
    label of each hull position.  The first member's graph is the class
    graph, which the family labels and ``class_violations`` read once; the
    stats come from q and the triangles.  ``solve._mop_verified`` runs one
    dual-tree pass over the ear cut's triangles with a lane per member, which
    yields every member's witness in its own labels, and verifies each
    distinct witness, carried onto the class graph by the first member's
    map, once."""
    # From order 4, (0, 2) leads a chord set exactly when vertex 1 is an ear
    # tip, so the least image sends an ear tip to 1.
    anchors = [p for p in range(n) if q[p] == 1] if dedupe else range(n)
    # Each cut triangle (a, c, b) but the root leaves the chord (a, b).
    cut = ear_cut(q)
    maps = dict(dihedral_images(n, [(a, b) for a, _, b in cut[:-1]], anchors))
    images = [min(maps)] if dedupe else sorted(maps)
    key, pairs = image_key(n, images[0]), _pair_table(n)
    members = [tuple(map(pairs.__getitem__, image)) for image in images]
    g = graph_from_chords(n, members[0])
    labels = _generator_catalog(n).get(q, ())
    labels += ("gsf",) if is_generalized_sunflower(g) else ()
    # Vertex v lies in q[v] triangles, so its degree is q[v] + 1.
    stats = _stats(n, cut, [k + 1 for k in q])
    results, _ = _mop_verified(g, cut, [maps[image] for image in images])
    records = [
        CensusRecord(
            n, key, chords, value, witness,
            stats.max_degree, stats.internal_triangles, stats.two_vertices, stats.striped, labels)
        for chords, (value, witness) in zip(members, results)
    ]
    return records, class_violations(records[0], g) if claims else frozenset()


def _census_tasks(orders: Iterable[int], dedupe: bool, jobs: int, claims: bool) -> list[_ClassResult]:
    # One task per class of every order, results sorted by (order, key).  Jobs,
    # the CPUs this process may run on and tasks cap the workers; one runs the
    # tasks here, more share one pool.
    if jobs < 1:
        raise BadParam(f"jobs must be at least 1, got {jobs}")
    for n in orders:
        if not MIN_CENSUS_ORDER <= n <= MAX_CENSUS_ORDER:
            raise BadParam(f"census order must be in {MIN_CENSUS_ORDER}..{MAX_CENSUS_ORDER}, got {n}")
    tasks = [(n, q, dedupe, claims) for n in orders for q in quiddity_classes(n)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, cpus, len(tasks))
    if workers == 1:
        results = [_class_records(*task) for task in tasks]
    else:
        # Imported here: multiprocessing and what it loads cost every start-up.
        from multiprocessing import get_context

        with get_context("fork").Pool(processes=workers) as pool:
            results = pool.starmap(_class_records, tasks)
    return sorted(results, key=lambda result: (result[0][0].n, result[0][0].canonical_key))


def run_census(n: int, dedupe: bool = False, jobs: int = 1) -> list[CensusRecord]:
    """One record per triangulation, or per isomorphism class when dedupe
    is set.  The classes come from ``quiddity_classes``; each class is one
    task (``_class_records``), which recovers its chords, expands them into
    their dihedral images, the least of which gives its canonical key, and
    solves every member for its witness.  Records come back sorted by
    (canonical key, chords), byte-identical for any worker count."""
    return [r for recs, _ in _census_tasks([n], dedupe, jobs, claims=False) for r in recs]


def census_to_csv(records: list[CensusRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "n",
            "canonical_key",
            "gp",
            "max_degree",
            "internal_triangles",
            "two_vertices",
            "striped",
            "families",
            "chords",
            "witness",
        ]
    )
    for r in records:
        writer.writerow(
            [
                r.n,
                r.canonical_key.hex(),
                r.gp,
                r.max_degree,
                r.internal_triangles,
                r.two_vertices,
                "true" if r.striped else "false",
                ";".join(r.family_labels),
                chord_text(r.chords),
                ";".join(str(v) for v in r.gp_witness),
            ]
        )
    return buf.getvalue()


class _Claim(NamedTuple):
    """A claim row: from order ``first`` on, ``bad(record, graph)`` runs on each class that
    ``applies``, and each of the catalog ``labels`` must be carried by such a class."""

    name: str
    first: int
    universe: str
    bad: Callable[[CensusRecord, Graph], bool]
    applies: Callable[[CensusRecord], bool] = lambda r: True
    labels: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def _claim_table(n: int) -> tuple[_Claim, ...]:
    """The claim rows of order n, built once per order and process."""
    cap, k_cap = (2 * n) // 3, n // 2 - 2

    def named(*prefixes: str) -> tuple[str, ...]:
        return tuple(x for labels in _generator_catalog(n).values() for x in labels if x.startswith(prefixes))

    def carries(r: CensusRecord, labels: tuple[str, ...]) -> bool:
        return any(label in r.family_labels for label in labels)

    fan, slt = named("fan"), named("straight_linear_2tree")
    # The cap's attainers: the fan alone away from orders 1 mod 3, otherwise
    # the fan plus every quasi-fan and glued fan.
    extremal = named("fan", "quasi_fan(", "g1(", "g2(") if n % 3 == 1 else fan
    # At orders 1 mod 3 the catalog's striped cap attainers must attain it: the fan, the
    # first quasi-fan, every left-seam glued fan with j=1 and every right-seam one with j=t.
    listed = named("fan", "quasi_fan(1)", "g1(1,", *(f"g2({t},{t})" for t in range(1, n))) if n % 3 == 1 else ()

    def weak_degree_bound(r, g):
        # _mop_verified has built g's neighbour masks to check the class's witnesses.
        bound, witness = _fan_pattern(g)
        expected = (2 * (r.max_degree + 1)) // 3
        return r.gp < bound or bound != expected or len(witness) != bound or not is_gp_levels(g, witness)

    def crowded_member(r, g):
        # The witness as one bitmask against each member's neighbour mask,
        # which the class's witness check has built.
        w, nbr = sum(1 << v for v in r.gp_witness), g.neighbour_masks
        return any((nbr[x] & w).bit_count() > 2 for x in r.gp_witness)

    def full_window(r, g):
        # Bits i, i+1, i+2 of the witness mask taken twice around the hull are
        # hull vertices i, i+1, i+2 (mod n).
        w = sum(1 << v for v in r.gp_witness)
        ring = w | w << n
        return any(ring >> i & 7 == 7 for i in range(n))

    def misses_internal_bound(r, g):
        if r.gp < r.internal_triangles + 2:
            return True
        if "gsf" not in r.family_labels:
            return False
        return (n >= 8 and r.gp != r.internal_triangles + 2) or (n == 7 and r.gp != 4)

    def leaves_a_segment(r, g):
        # Edge (u, v), u < v, splits the hull into u..v and v..n-1, 0..u; an
        # interior vertex of either segment with a neighbor outside it is an
        # end of an edge that crosses (u, v) on the polygon 0..n-1.  The class
        # task built g as that polygon with the n-3 chords of its ear cut, and
        # the sides plus n-3 chords or more cross nowhere exactly when g is
        # the MOP along 0..n-1, so the claim restates that construction.
        try:
            hull_triangles(g, range(n))
        except StructureViolation:
            return True
        return False

    return (
        _Claim(
            "two_vertex_count", 4, "all classes: degree-2 vertices = internal triangles + 2",
            lambda r, g: r.two_vertices != r.internal_triangles + 2),
        # The n-2 inner faces are the triangles of g, each counted at its 3 edges.
        _Claim(
            "chord_count", 4, "all classes: n-3 chords and n-1 faces",
            lambda r, g: len(r.chords) != n - 3
            or sum((g.neighbour_masks[u] & g.neighbour_masks[v]).bit_count() for u, v in g.edges) != 3 * (n - 2)),
        _Claim(
            "degree_lower_bound", 4,
            "all classes: gp >= floor(2*(max_degree+1)/3) with a verified constructive witness",
            weak_degree_bound),
        _Claim(
            "witness_neighbor_cap", 4,
            "witnesses of size >= 3: each member has at most 2 in-set neighbors",
            crowded_member,
            lambda r: len(r.gp_witness) >= 3),
        _Claim(
            "witness_triangle_free", 4, "witnesses of size >= 4 induce no triangle",
            lambda r, g: any(
                g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                for a, b, c in combinations(r.gp_witness, 3)),
            lambda r: len(r.gp_witness) >= 4),
        _Claim(
            "fan_gp_formula", 5, "fan classes: gp = floor(2n/3)",
            lambda r, g: r.gp != cap, lambda r: carries(r, fan)),
        _Claim("global_upper_bound", 6, "all classes: gp <= floor(2n/3)", lambda r, g: r.gp > cap),
        _Claim(
            "upper_bound_extremal", 6,
            "classes with gp = floor(2n/3) match the generator catalog exactly",
            lambda r, g: (r.gp == cap) != carries(r, extremal), labels=extremal),
        _Claim(
            "max_degree_four", 7,
            "classes with max degree 4 are exactly the straight linear 2-tree",
            lambda r, g: (r.max_degree == 4) != carries(r, slt), labels=slt),
        _Claim(
            "striped_extremes", 5,
            "striped classes: gp = 3 exactly at the straight linear 2-tree; listed striped members attain the cap",
            lambda r, g: (r.gp == 3) != carries(r, slt) or (carries(r, listed) and r.gp != cap),
            lambda r: r.striped, labels=slt),
        _Claim(
            "internal_triangle_max", 6,
            "max internal triangles = floor(n/2)-2, attained exactly by generalized sunflowers",
            lambda r, g: (r.internal_triangles == k_cap) != ("gsf" in r.family_labels)),
        _Claim(
            "internal_lower_bound", 4,
            "all classes: gp >= internal triangles + 2; generalized sunflowers of order >= 8 attain it",
            misses_internal_bound),
        _Claim(
            "segment_confinement", 4,
            "for every edge, interior vertices of either hull segment keep all neighbors inside it",
            leaves_a_segment),
        _Claim(
            "common_neighbor", 4, "every hull-adjacent pair has a common neighbor",
            lambda r, g: any(
                not g.neighbour_masks[i] & g.neighbour_masks[(i + 1) % n] for i in range(n))),
        _Claim(
            "cycle_window_cap", 4,
            "witnesses of size >= 4: any 3 consecutive hull vertices hold at most 2 of them",
            full_window,
            lambda r: len(r.gp_witness) >= 4),
    )


def class_violations(record: CensusRecord, g: Graph) -> frozenset[str]:
    """The claims of its order whose hypothesis the class meets and whose test fails on g, its graph."""
    n = record.n
    return frozenset(c.name for c in _claim_table(n) if c.first <= n and c.applies(record) and c.bad(record, g))


def _claim_reports(n: int, classes: list[tuple[CensusRecord, frozenset[str]]]) -> Iterator[ClaimReport]:
    """One report per claim row of order n, from each class's record and ``class_violations``, the classes
    in key order: the flagged ones as ``chords=...``, then ``missing=<label>`` per row label none carries."""
    max_k, k_cap = max(r.internal_triangles for r, _ in classes), n // 2 - 2
    heads = {"internal_triangle_max": (f"max_internal={max_k}!={k_cap}",)} if max_k != k_cap else {}
    for c in _claim_table(n):
        if n < c.first:
            yield ClaimReport(c.name, n, f"{c.universe} (stated for order >= {c.first})", 0, ())
            continue
        rows = [(r, bad) for r, bad in classes if c.applies(r)]
        flagged = [f"chords={chord_text(r.chords)}" for r, bad in rows if c.name in bad]
        carried = {label for r, _ in rows for label in r.family_labels}
        missing = [f"missing={label}" for label in c.labels if label not in carried]
        violations = heads.get(c.name, ()) + tuple(flagged + missing)
        yield ClaimReport(c.name, n, c.universe, len(rows), violations)


def verify_paper_claims(n_min: int, n_max: int, jobs: int = 1) -> list[ClaimReport]:
    """Run the full claim battery over every isomorphism class of each order
    in n_min..n_max, in each class's census task; one report per claim per order."""
    if not 4 <= n_min <= n_max <= MAX_CENSUS_ORDER:
        raise BadParam(
            f"claim range must satisfy 4 <= n_min <= n_max <= {MAX_CENSUS_ORDER}, "
            f"got {n_min}..{n_max}"
        )
    results = _census_tasks(range(n_min, n_max + 1), True, jobs, True)
    return [
        report
        for n, classes in groupby(results, key=lambda result: result[0][0].n)
        for report in _claim_reports(n, [(recs[0], bad) for recs, bad in classes])
    ]


def claim_report_text(reports: list[ClaimReport]) -> str:
    """Each report's line, followed by one indented line per violation, as it is."""
    lines = []
    for r in reports:
        lines += [r.line(), *(f"  {v}" for v in r.violations)]
    return "\n".join(lines) + "\n"
