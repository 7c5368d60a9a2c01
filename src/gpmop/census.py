"""Exhaustive triangulation census with batched claim checking.

Every triangulation of a convex labeled polygon is enumerated through the
classic apex recursion, grouped into isomorphism classes by its dihedral
quiddity sequence (triangles per hull vertex), keyed once per class, and
turned into records carrying the exact general position number plus the
structural statistics.  ``verify_paper_claims`` then machine-checks the
bounds, identities, and extremal characterizations this package
reproduces, one report per claim per order.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from multiprocessing import get_context
from typing import Iterator

from .families import BadParam, generators_at, is_generalized_sunflower
from .graph import Graph, all_pairs_distances, build_graph
from .mop import MopCertificate, canonical_form, mop_stats, recognize, segment
from .solve import _fan_pattern, gp_number
from .verify import is_gp_characterized, is_gp_naive

MIN_CENSUS_ORDER = 3
MAX_CENSUS_ORDER = 14

Chords = tuple[tuple[int, int], ...]


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
    """Yield the chord set of every triangulation of the convex polygon
    0..n-1 exactly once: catalan(n-2) of them, apex-ascending, left
    sub-polygon first."""
    if not MIN_CENSUS_ORDER <= n <= MAX_CENSUS_ORDER:
        raise BadParam(f"census order must be in {MIN_CENSUS_ORDER}..{MAX_CENSUS_ORDER}, got {n}")
    for chords in _tri(0, n - 1):
        yield tuple(sorted(chords))


def graph_from_chords(n: int, chords: Chords) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend(chords)
    return build_graph(n, edges)


def certificate_from_chords(n: int, chords: Chords) -> MopCertificate:
    return MopCertificate(n, tuple(range(n)), frozenset(chords))


@dataclass(frozen=True)
class CensusRecord:
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
def _generator_catalog(n: int) -> tuple[tuple[str, bytes], ...]:
    out = []
    for label, inst in generators_at(n):
        cert = recognize(inst.graph)
        out.append((label, canonical_form(cert)))
    return tuple(out)


def _labels_for(n: int, key: bytes, g: Graph, cert: MopCertificate) -> tuple[str, ...]:
    labels = [label for label, k in _generator_catalog(n) if k == key]
    if is_generalized_sunflower(g, cert):
        labels.append("gsf")
    return tuple(labels)


def _quiddity_key(n: int, chords: Chords) -> bytes:
    # Triangles per hull vertex, smallest over the 2n dihedral images: a
    # complete isomorphism invariant of a triangulated polygon.
    counts = bytearray(b"\x01" * n)
    for a, b in chords:
        counts[a] += 1
        counts[b] += 1
    fwd = bytes(counts) * 2
    return min([s[i : i + n] for s in (fwd, fwd[::-1]) for i in range(n)])


def _make_record(n: int, key: bytes, chords: Chords) -> CensusRecord:
    g = graph_from_chords(n, chords)
    cert = certificate_from_chords(n, chords)
    stats = mop_stats(g, cert)
    result = gp_number(g, cert=cert)
    return CensusRecord(
        n=n,
        canonical_key=key,
        chords=chords,
        gp=result.value,
        gp_witness=result.witness,
        max_degree=stats.max_degree,
        internal_triangles=stats.internal_triangles,
        two_vertices=stats.two_vertices,
        striped=stats.striped,
        family_labels=_labels_for(n, key, g, cert),
    )


def _records_for_chunk(args: tuple[int, list[tuple[bytes, Chords]]]) -> list[CensusRecord]:
    n, chunk = args
    return [_make_record(n, key, chords) for key, chords in chunk]


def _plan_chunks(items: list, jobs: int) -> list[list]:
    # Consecutive non-empty runs of items, at most min(jobs, cpu count) of them.
    if jobs < 1:
        raise BadParam(f"jobs must be at least 1, got {jobs}")
    size = max(1, -(-len(items) // min(jobs, os.cpu_count() or 1)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _map_tasks(fn, tasks):
    if len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with get_context("fork").Pool(processes=len(tasks)) as pool:
        return pool.map(fn, tasks)


def run_census(n: int, dedupe: bool = False, jobs: int = 1) -> list[CensusRecord]:
    """One record per triangulation, or per isomorphism class when dedupe
    is set.  Triangulations are grouped by quiddity sequence and keyed once
    per class; records come back sorted by (canonical key, chords) so the
    output is byte-identical for any worker count."""
    if not MIN_CENSUS_ORDER <= n <= MAX_CENSUS_ORDER:
        raise BadParam(f"census order must be in {MIN_CENSUS_ORDER}..{MAX_CENSUS_ORDER}, got {n}")
    if jobs < 1:
        raise BadParam(f"jobs must be at least 1, got {jobs}")
    # Dedupe keeps only the smallest chord set of each class while streaming.
    groups: dict[bytes, list[Chords]] = {}
    for chords in enumerate_triangulations(n):
        members = groups.setdefault(_quiddity_key(n, chords), [])
        if not members or not dedupe:
            members.append(chords)
        elif chords < members[0]:
            members[0] = chords
    keyed = []
    for members in groups.values():
        key = canonical_form(certificate_from_chords(n, members[0]))
        keyed.extend((key, chords) for chords in members)
    keyed.sort()
    tasks = [(n, chunk) for chunk in _plan_chunks(keyed, jobs)]
    return [rec for part in _map_tasks(_records_for_chunk, tasks) for rec in part]


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
                ";".join(f"{a}-{b}" for a, b in r.chords),
                ";".join(str(v) for v in r.gp_witness),
            ]
        )
    return buf.getvalue()


class _ClaimContext:
    """Per-order working set: class records plus rebuilt graphs and certs."""

    def __init__(self, n: int, records: list[CensusRecord]):
        self.n = n
        self.records = records
        self.graphs = {r.canonical_key: graph_from_chords(n, r.chords) for r in records}
        self.certs = {r.canonical_key: certificate_from_chords(n, r.chords) for r in records}

    def catalog_keys(self, prefixes: tuple[str, ...]) -> set[bytes]:
        return {
            key
            for label, key in _generator_catalog(self.n)
            if label.startswith(prefixes)
        }


def _hex(key: bytes) -> str:
    return key.hex()


def _claim_two_vertex_count(ctx: _ClaimContext) -> ClaimReport:
    bad = [
        _hex(r.canonical_key)
        for r in ctx.records
        if r.two_vertices != r.internal_triangles + 2
    ]
    return ClaimReport(
        "two_vertex_count",
        ctx.n,
        "all classes: degree-2 vertices = internal triangles + 2",
        len(ctx.records),
        tuple(bad),
    )


def _claim_chord_count(ctx: _ClaimContext) -> ClaimReport:
    # n-1 faces holds already: _make_record's mop_stats raises on any other count.
    bad = [_hex(r.canonical_key) for r in ctx.records if len(r.chords) != ctx.n - 3]
    return ClaimReport(
        "chord_count",
        ctx.n,
        "all classes: n-3 chords and n-1 faces",
        len(ctx.records),
        tuple(bad),
    )


def _claim_degree_lower_bound(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    for r in ctx.records:
        g = ctx.graphs[r.canonical_key]
        cert = ctx.certs[r.canonical_key]
        bound, witness = _fan_pattern(g, cert)
        dm = all_pairs_distances(g)
        naive_ok = is_gp_naive(g, dm, witness).is_gp
        char_ok = is_gp_characterized(g, dm, witness).is_gp
        expected = (2 * (r.max_degree + 1)) // 3
        if r.gp < bound or bound != expected or len(witness) != bound or not (naive_ok and char_ok):
            bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "degree_lower_bound",
        ctx.n,
        "all classes: gp >= floor(2*(max_degree+1)/3) with a verified constructive witness",
        len(ctx.records),
        tuple(bad),
    )


def _claim_witness_neighbor_cap(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    checked = 0
    for r in ctx.records:
        if len(r.gp_witness) < 3:
            continue
        checked += 1
        g = ctx.graphs[r.canonical_key]
        wset = set(r.gp_witness)
        if any(len(set(g.adjacency[x]) & wset) > 2 for x in r.gp_witness):
            bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "witness_neighbor_cap",
        ctx.n,
        "witnesses of size >= 3: each member has at most 2 in-set neighbors",
        checked,
        tuple(bad),
    )


def _claim_witness_triangle_free(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    checked = 0
    for r in ctx.records:
        if len(r.gp_witness) < 4:
            continue
        checked += 1
        g = ctx.graphs[r.canonical_key]
        w = r.gp_witness
        found = False
        for i, a in enumerate(w):
            for j in range(i + 1, len(w)):
                if not g.has_edge(a, w[j]):
                    continue
                for k in range(j + 1, len(w)):
                    if g.has_edge(a, w[k]) and g.has_edge(w[j], w[k]):
                        found = True
        if found:
            bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "witness_triangle_free",
        ctx.n,
        "witnesses of size >= 4 induce no triangle",
        checked,
        tuple(bad),
    )


def _claim_fan_gp_formula(ctx: _ClaimContext) -> ClaimReport:
    if ctx.n < 5:
        return ClaimReport(
            "fan_gp_formula", ctx.n, "fan classes (stated for order >= 5)", 0, ()
        )
    fan_keys = ctx.catalog_keys(("fan",))
    bad = []
    checked = 0
    for r in ctx.records:
        if r.canonical_key in fan_keys:
            checked += 1
            if r.gp != (2 * ctx.n) // 3:
                bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "fan_gp_formula",
        ctx.n,
        "fan classes: gp = floor(2n/3)",
        checked,
        tuple(bad),
    )


def _claim_global_upper_bound(ctx: _ClaimContext) -> ClaimReport:
    if ctx.n < 6:
        return ClaimReport(
            "global_upper_bound", ctx.n, "all classes (stated for order >= 6)", 0, ()
        )
    cap = (2 * ctx.n) // 3
    bad = [_hex(r.canonical_key) for r in ctx.records if r.gp > cap]
    return ClaimReport(
        "global_upper_bound",
        ctx.n,
        "all classes: gp <= floor(2n/3)",
        len(ctx.records),
        tuple(bad),
    )


def expected_extremal_keys(n: int) -> set[bytes]:
    """Catalog of classes attaining floor(2n/3): the fan alone away from
    orders 1 mod 3, otherwise the fan plus every quasi-fan and glued-fan."""
    keys = {key for label, key in _generator_catalog(n) if label == "fan"}
    if n % 3 == 1:
        keys |= {
            key
            for label, key in _generator_catalog(n)
            if label.startswith(("quasi_fan(", "g1(", "g2("))
        }
    return keys


def _claim_upper_bound_extremal(ctx: _ClaimContext) -> ClaimReport:
    if ctx.n < 6:
        return ClaimReport(
            "upper_bound_extremal", ctx.n, "all classes (stated for order >= 6)", 0, ()
        )
    cap = (2 * ctx.n) // 3
    actual = {r.canonical_key for r in ctx.records if r.gp == cap}
    expected = expected_extremal_keys(ctx.n)
    bad = sorted(_hex(k) for k in actual.symmetric_difference(expected))
    return ClaimReport(
        "upper_bound_extremal",
        ctx.n,
        "classes with gp = floor(2n/3) match the generator catalog exactly",
        len(ctx.records),
        tuple(bad),
    )


def _claim_max_degree_four(ctx: _ClaimContext) -> ClaimReport:
    if ctx.n < 7:
        return ClaimReport(
            "max_degree_four", ctx.n, "all classes (stated for order >= 7)", 0, ()
        )
    actual = {r.canonical_key for r in ctx.records if r.max_degree == 4}
    expected = ctx.catalog_keys(("straight_linear_2tree",))
    bad = sorted(_hex(k) for k in actual.symmetric_difference(expected))
    return ClaimReport(
        "max_degree_four",
        ctx.n,
        "classes with max degree 4 are exactly the straight linear 2-tree",
        len(ctx.records),
        tuple(bad),
    )


def striped_catalog_keys(n: int) -> set[bytes]:
    """Keys of the catalog members named as striped cap-attainers: the fan,
    the first quasi-fan, every left-seam glued fan with j=1, and every
    right-seam glued fan with j=t."""
    keys: set[bytes] = set()
    for label, key in _generator_catalog(n):
        if label in ("fan", "quasi_fan(1)"):
            keys.add(key)
        elif label.startswith(("g1(", "g2(")):
            j_str, t_str = label[3:-1].split(",")
            if (label.startswith("g1(") and j_str == "1") or (
                label.startswith("g2(") and j_str == t_str
            ):
                keys.add(key)
    return keys


def _claim_striped_extremes(ctx: _ClaimContext) -> ClaimReport:
    n = ctx.n
    if n < 5:
        return ClaimReport(
            "striped_extremes", n, "striped classes (stated for order >= 5)", 0, ()
        )
    striped = [r for r in ctx.records if r.striped]
    slt_keys = ctx.catalog_keys(("straight_linear_2tree",))
    actual_min = {r.canonical_key for r in striped if r.gp == 3}
    bad = sorted(_hex(k) for k in actual_min.symmetric_difference(slt_keys))
    # At orders 1 mod 3 every striped catalog member must attain the cap.
    if n % 3 == 1:
        cap = (2 * n) // 3
        by_key = {r.canonical_key: r for r in ctx.records}
        for key in striped_catalog_keys(n):
            rec = by_key.get(key)
            if rec is None or not rec.striped:
                continue
            if rec.gp != cap:
                bad.append(_hex(key))
    return ClaimReport(
        "striped_extremes",
        n,
        "striped classes: gp = 3 exactly at the straight linear 2-tree; listed striped members attain the cap",
        len(striped),
        tuple(bad),
    )


def _claim_internal_triangle_max(ctx: _ClaimContext) -> ClaimReport:
    if ctx.n < 6:
        return ClaimReport(
            "internal_triangle_max", ctx.n, "all classes (stated for order >= 6)", 0, ()
        )
    cap = ctx.n // 2 - 2
    max_k = max(r.internal_triangles for r in ctx.records)
    bad: list[str] = []
    if max_k != cap:
        bad.append(f"max_internal={max_k}!={cap}")
    maximizers = {r.canonical_key for r in ctx.records if r.internal_triangles == cap}
    structural = {r.canonical_key for r in ctx.records if "gsf" in r.family_labels}
    bad.extend(sorted(_hex(k) for k in maximizers.symmetric_difference(structural)))
    return ClaimReport(
        "internal_triangle_max",
        ctx.n,
        "max internal triangles = floor(n/2)-2, attained exactly by generalized sunflowers",
        len(ctx.records),
        tuple(bad),
    )


def _claim_internal_lower_bound(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    for r in ctx.records:
        if r.gp < r.internal_triangles + 2:
            bad.append(_hex(r.canonical_key))
            continue
        if "gsf" in r.family_labels:
            if ctx.n >= 8 and r.gp != r.internal_triangles + 2:
                bad.append(_hex(r.canonical_key))
            elif ctx.n == 7 and r.gp != 4:
                bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "internal_lower_bound",
        ctx.n,
        "all classes: gp >= internal triangles + 2; generalized sunflowers of order >= 8 attain it",
        len(ctx.records),
        tuple(bad),
    )


def _claim_segment_confinement(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    for r in ctx.records:
        g = ctx.graphs[r.canonical_key]
        cert = ctx.certs[r.canonical_key]
        ok = True
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                seg = segment(cert, a, b)
                allowed = set(seg)
                for w in seg[1:-1]:
                    if not set(g.adjacency[w]) <= allowed:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "segment_confinement",
        ctx.n,
        "for every edge, interior vertices of either hull segment keep all neighbors inside it",
        len(ctx.records),
        tuple(bad),
    )


def _claim_common_neighbor(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    for r in ctx.records:
        g = ctx.graphs[r.canonical_key]
        cert = ctx.certs[r.canonical_key]
        ok = True
        for i, u in enumerate(cert.cycle):
            v = cert.cycle[(i + 1) % ctx.n]
            if not (set(g.adjacency[u]) & set(g.adjacency[v])) - {u, v}:
                ok = False
                break
        if not ok:
            bad.append(_hex(r.canonical_key))
    return ClaimReport(
        "common_neighbor",
        ctx.n,
        "every hull-adjacent pair has a common neighbor",
        len(ctx.records),
        tuple(bad),
    )


def _claim_cycle_window_cap(ctx: _ClaimContext) -> ClaimReport:
    bad = []
    checked = 0
    for r in ctx.records:
        if len(r.gp_witness) < 4:
            continue
        checked += 1
        cert = ctx.certs[r.canonical_key]
        wset = set(r.gp_witness)
        cyc = cert.cycle
        for i in range(ctx.n):
            window = (cyc[i], cyc[(i + 1) % ctx.n], cyc[(i + 2) % ctx.n])
            if sum(1 for x in window if x in wset) > 2:
                bad.append(_hex(r.canonical_key))
                break
    return ClaimReport(
        "cycle_window_cap",
        ctx.n,
        "witnesses of size >= 4: any 3 consecutive hull vertices hold at most 2 of them",
        checked,
        tuple(bad),
    )


_CLAIMS = (
    _claim_two_vertex_count,
    _claim_chord_count,
    _claim_degree_lower_bound,
    _claim_witness_neighbor_cap,
    _claim_witness_triangle_free,
    _claim_fan_gp_formula,
    _claim_global_upper_bound,
    _claim_upper_bound_extremal,
    _claim_max_degree_four,
    _claim_striped_extremes,
    _claim_internal_triangle_max,
    _claim_internal_lower_bound,
    _claim_segment_confinement,
    _claim_common_neighbor,
    _claim_cycle_window_cap,
)


def verify_paper_claims(n_min: int, n_max: int, jobs: int = 1) -> list[ClaimReport]:
    """Run the full claim battery over every isomorphism class of each
    order in n_min..n_max; one report per claim per order."""
    if not 4 <= n_min <= n_max <= 13:
        raise BadParam(f"claim range must satisfy 4 <= n_min <= n_max <= 13, got {n_min}..{n_max}")
    reports: list[ClaimReport] = []
    for n in range(n_min, n_max + 1):
        ctx = _ClaimContext(n, run_census(n, dedupe=True, jobs=jobs))
        for claim in _CLAIMS:
            reports.append(claim(ctx))
    return reports


def claim_report_text(reports: list[ClaimReport]) -> str:
    return "\n".join(r.line() for r in reports) + "\n"
