"""The four benchmark workloads.

Each workload knows how to build its inputs from the seed (``setup``), run
one untraced pass through the program's public API (``run_pass``), check a
pass's outputs (``check``), and replay the same inputs module by module
under a tracer (``replay``).  Only public names of ``gpmop`` and
``gpmop.cli`` are called, so the benchmark needs no change inside the
program.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from gen import edge_list_text, random_connected_edges, random_mop_edges
from oracle import census_digest, gp_histogram, gp_string, polygon_edges, witness_ok
from speed import Speed

GP_ORDER = 40
CLI_EDGE_P = 0.12


@dataclass
class Ctx:
    gpmop: object
    cli: object
    seed: int
    seconds: int
    jobs: int
    workdir: Path
    reference: dict
    default_seed: int


@dataclass
class Check:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail(self, problem: str, items: int = 1) -> None:
        self.problems.append(problem)
        self.failed = min(self.attempted, max(self.failed, items))


@dataclass
class Layers:
    """Counts gathered during a replay; times come from the tracer."""

    solves: int = 0
    nodes: int = 0
    seed_hits: int = 0
    seeded: int = 0
    key_calls: int = 0
    records: int = 0
    classes: int = 0
    claims_s: float = 0.0
    mismatches: int = 0


def _catalog(gp, tr, n: int) -> None:
    with tr.span("families.catalog", n):
        for _, inst in gp.generators_at(n):
            gp.canonical_form(gp.recognize(inst.graph))


def _probe(gp, tr, acc: Layers, g, cert, res) -> None:
    """Layer probes that repeat work gp_number does internally, timed on
    their own: BFS distances, the witness check, and the seed bound."""
    acc.solves += 1
    acc.nodes += res.nodes_explored
    with tr.span("graph.bfs"):
        dm = gp.all_pairs_distances(g)
    with tr.span("verify.char"):
        ok = gp.is_gp_characterized(g, dm, res.witness).is_gp
    if not ok:
        acc.mismatches += 1
    if cert is not None:
        with tr.span("solve.seed"):
            bound = gp.mop_greedy_lower_bound(g, cert)[0]
        acc.seeded += 1
        acc.seed_hits += bound == res.value


def _replay_record(gp, tr, acc: Layers, n: int, chords, item: int, key: bool):
    with tr.span("item", item):
        with tr.span("graph.build"):
            g = gp.build_graph(n, polygon_edges(n, chords))
        cert = gp.MopCertificate(n, tuple(range(n)), frozenset(chords))
        k = None
        if key:
            with tr.span("mop.key"):
                k = gp.canonical_form(cert)
            acc.key_calls += 1
        with tr.span("mop.stats"):
            gp.mop_stats(g, cert)
        with tr.span("solve.gp"):
            res = gp.gp_number(g, cert=cert)
        with tr.span("families.label"):
            gp.is_generalized_sunflower(g, cert)
        _probe(gp, tr, acc, g, cert, res)
    return k, res


class Census12:
    """``run_census(12)`` with one worker: a full record for each of the
    16,796 labelled triangulations of the 12-gon."""

    name = "census-12"
    n = 12

    def jobs(self, ctx: Ctx) -> int:
        return 1

    def passes(self, seconds: int) -> int:
        return max(1, seconds // 10)

    def setup(self, ctx: Ctx):
        return None

    def run_pass(self, ctx: Ctx, inputs):
        return ctx.gpmop.run_census(self.n, jobs=1), None, None, None

    def rows(self, out):
        return [(r.chords, r.gp, tuple(r.gp_witness)) for r in out]

    def fingerprint(self, out) -> str:
        return census_digest(self.rows(out))

    def check(self, ctx: Ctx, inputs, out) -> Check:
        ref = ctx.reference[self.name]
        rows = self.rows(out)
        chk = Check(attempted=max(len(rows), ref["records"]))
        chk.failed = sum(
            not witness_ok(self.n, polygon_edges(self.n, chords), gp, w) for chords, gp, w in rows
        )
        if chk.failed:
            chk.problems.append(f"{chk.failed} witnesses fail the geodesic-triple oracle")
        digest = census_digest(rows)
        chk.counts = {"records": len(rows), "digest": digest}
        if len(rows) != ref["records"]:
            chk.fail(f"{len(rows)} records, expected {ref['records']}", abs(len(rows) - ref["records"]))
        wrong_gp = sum(a != b for a, b in zip(gp_string(rows), ref["gp_by_chords"]))
        if wrong_gp:
            chk.fail(f"{wrong_gp} records differ from the pinned gp values", chk.failed + wrong_gp)
        if gp_histogram(gp for _, gp, _ in rows) != ref["gp_histogram"]:
            chk.fail("gp histogram differs from the pinned one")
        if digest != ref["digest"]:
            chk.fail("(chords, gp, witness) digest differs from the pinned one")
        return chk

    def replay(self, ctx: Ctx, inputs, tr, acc: Layers, out) -> None:
        gp = ctx.gpmop
        _catalog(gp, tr, self.n)
        with tr.span("census.enumerate", self.n):
            all_chords = list(gp.enumerate_triangulations(self.n))
        rows = []
        for i, chords in enumerate(all_chords):
            k, res = _replay_record(gp, tr, acc, self.n, chords, i, key=True)
            rows.append((k, chords, res.value, tuple(res.witness)))
        with tr.span("census.sort", self.n):
            rows.sort(key=lambda r: (r[0], r[1]))
        acc.records = len(rows)
        acc.classes = len({r[0] for r in rows})
        if [r[1:] for r in rows] != self.rows(out):
            acc.mismatches += 1


class Check413:
    """``verify_paper_claims(4, 13)`` on the fork pool: keys every labelled
    triangulation of orders 4..13, solves one per class, runs 150 claims."""

    name = "check-4-13"
    orders = range(4, 14)

    def jobs(self, ctx: Ctx) -> int:
        return ctx.jobs

    def passes(self, seconds: int) -> int:
        return max(1, seconds // 10)

    def setup(self, ctx: Ctx):
        return None

    def run_pass(self, ctx: Ctx, inputs):
        return ctx.gpmop.verify_paper_claims(4, 13, jobs=ctx.jobs), None, None, None

    def fingerprint(self, out) -> tuple:
        return tuple(r.line() for r in out)

    def check(self, ctx: Ctx, inputs, out) -> Check:
        expected = [tuple(x) for x in ctx.reference[self.name]["reports"]]
        got = [(r.claim, r.n, r.checked) for r in out]
        chk = Check(attempted=max(len(got), len(expected)))
        bad = [r.line() for r in out if r.status != "pass"]
        wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
        chk.failed = min(chk.attempted, len(bad) + wrong)
        if bad:
            chk.problems.append(f"{len(bad)} claims fail, first: {bad[0]}")
        if wrong:
            chk.problems.append(f"{wrong} reports differ from the pinned (claim, n, checked) list")
        chk.counts = {"reports": len(got), "checked": sum(c for _, _, c in got)}
        return chk

    def replay(self, ctx: Ctx, inputs, tr, acc: Layers, out) -> None:
        """Per order: the program's own dedupe census and claim run, back to
        back, then the same dedupe census step by step."""
        gp = ctx.gpmop
        for n in self.orders:
            _catalog(gp, tr, n)
            clear_caches()
            with tr.span("census.run", n):
                recs = gp.run_census(n, dedupe=True, jobs=1)
            clear_caches()
            with tr.span("census.claims", n):
                gp.verify_paper_claims(n, n, jobs=1)
            acc.claims_s += tr.last_duration("census.claims") - tr.last_duration("census.run")
            with tr.span("census.enumerate", n):
                all_chords = list(gp.enumerate_triangulations(n))
            keys = []
            for chords in all_chords:
                cert = gp.MopCertificate(n, tuple(range(n)), frozenset(chords))
                with tr.span("mop.key", n):
                    keys.append(gp.canonical_form(cert))
            acc.key_calls += len(keys)
            acc.records += len(keys)
            with tr.span("census.merge", n):
                reps = {}
                for k, chords in zip(keys, all_chords):
                    old = reps.get(k)
                    if old is None or chords < old:
                        reps[k] = chords
                reps = sorted(reps.items())
            acc.classes += len(reps)
            rows = []
            for i, (k, chords) in enumerate(reps):
                _, res = _replay_record(gp, tr, acc, n, chords, f"{n}:{i}", key=False)
                rows.append((k, chords, res.value, tuple(res.witness)))
            with tr.span("census.sort", n):
                rows.sort(key=lambda r: (r[0], r[1]))
            if [r[1:] for r in rows] != [(r.chords, r.gp, tuple(r.gp_witness)) for r in recs]:
                acc.mismatches += 1


def _gp_check(name: str, ctx: Ctx, edges_list, results) -> Check:
    """results: one (gp, witness) per graph, or None where no answer came."""
    chk = Check(attempted=len(results))
    refs = ctx.reference[name]["results"] if ctx.seed == ctx.default_seed else []
    for i, (edges, res) in enumerate(zip(edges_list, results)):
        if res is None or not witness_ok(GP_ORDER, edges, res[0], res[1]):
            chk.failed += 1
        elif i < len(refs) and [res[0], list(res[1])] != refs[i]:
            chk.failed += 1
    if chk.failed:
        chk.problems.append(f"{chk.failed} graphs fail the oracle or the seed-{ctx.default_seed} reference")
    return chk


class GpMop40:
    """Random order-40 MOPs as edge-list text: parse, recognize, then
    ``gp_number`` seeded by the fan bound from the certificate."""

    name = "gp-mop-40"

    def jobs(self, ctx: Ctx) -> int:
        return 1

    # Each graph runs in two rounds; a graph takes about 0.1 s.
    def passes(self, seconds: int) -> int:
        return 2

    def count(self, seconds: int) -> int:
        return max(100, 4 * seconds)

    def setup(self, ctx: Ctx):
        rng = random.Random(f"{self.name}/{ctx.seed}")
        out = []
        for _ in range(self.count(ctx.seconds)):
            edges = random_mop_edges(GP_ORDER, rng)
            out.append((edges, edge_list_text(ctx.gpmop, GP_ORDER, edges)))
        return out

    def run_pass(self, ctx: Ctx, inputs):
        gp = ctx.gpmop
        results, times, cpus, factors = [], [], [], []
        speed = Speed(1)
        for _, text in inputs:
            c0 = process_time()
            t0 = perf_counter()
            g = gp.parse_edge_list(text)
            res = gp.gp_number(g, cert=gp.recognize(g))
            times.append(perf_counter() - t0)
            cpus.append(process_time() - c0)
            factors.append(speed.factor())
            results.append((res.value, tuple(res.witness), res.nodes_explored))
        return results, times, cpus, factors

    def fingerprint(self, out) -> tuple:
        return tuple(out)

    def check(self, ctx: Ctx, inputs, out) -> Check:
        chk = _gp_check(self.name, ctx, [e for e, _ in inputs], [r[:2] for r in out])
        chk.counts = {"graphs": len(out), "nodes": sum(r[2] for r in out)}
        return chk

    def replay(self, ctx: Ctx, inputs, tr, acc: Layers, out) -> None:
        gp = ctx.gpmop
        for i, (_, text) in enumerate(inputs):
            with tr.span("item", i):
                with tr.span("graph.build"):
                    g = gp.parse_edge_list(text)
                with tr.span("mop.recognize"):
                    cert = gp.recognize(g)
                with tr.span("solve.gp"):
                    res = gp.gp_number(g, cert=cert)
                _probe(gp, tr, acc, g, cert, res)
            if (res.value, tuple(res.witness), res.nodes_explored) != out[i]:
                acc.mismatches += 1


class GpCli40:
    """Random connected non-MOP graphs of order 40 in files, each solved
    through ``gpmop.cli.main(["gp", path])``, the certificate-free path."""

    name = "gp-cli-40"

    def jobs(self, ctx: Ctx) -> int:
        return 1

    # Each graph runs in three rounds; a graph takes about 0.03 s.
    def passes(self, seconds: int) -> int:
        return 3

    def count(self, seconds: int) -> int:
        return max(100, 10 * seconds)

    def setup(self, ctx: Ctx):
        rng = random.Random(f"{self.name}/{ctx.seed}")
        ctx.workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for i in range(self.count(ctx.seconds)):
            edges = random_connected_edges(GP_ORDER, CLI_EDGE_P, rng)
            path = ctx.workdir / f"g{i:05d}.txt"
            path.write_text(edge_list_text(ctx.gpmop, GP_ORDER, edges))
            out.append((edges, path))
        return out

    def run_pass(self, ctx: Ctx, inputs):
        main = ctx.cli.main
        results, times, cpus, factors = [], [], [], []
        speed = Speed(1)
        for _, path in inputs:
            buf = io.StringIO()
            c0 = process_time()
            t0 = perf_counter()
            with redirect_stdout(buf):
                rc = main(["gp", str(path)])
            times.append(perf_counter() - t0)
            cpus.append(process_time() - c0)
            factors.append(speed.factor())
            results.append((rc, buf.getvalue()))
        return results, times, cpus, factors

    @staticmethod
    def parse(rc: int, text: str):
        lines = text.splitlines()
        if rc != 0 or len(lines) != 2 or not lines[0].startswith("gp=") or not lines[1].startswith("witness="):
            return None
        try:
            return int(lines[0][3:]), tuple(int(v) for v in lines[1][8:].split())
        except ValueError:
            return None

    def fingerprint(self, out) -> tuple:
        return tuple(out)

    def check(self, ctx: Ctx, inputs, out) -> Check:
        results = [self.parse(rc, text) for rc, text in out]
        chk = _gp_check(self.name, ctx, [e for e, _ in inputs], results)
        chk.counts = {"graphs": len(out), "answers_sha256": hashlib.sha256(repr(results).encode()).hexdigest()}
        return chk

    def replay(self, ctx: Ctx, inputs, tr, acc: Layers, out) -> None:
        gp = ctx.gpmop
        for i, (_, path) in enumerate(inputs):
            with tr.span("item", i):
                buf = io.StringIO()
                with tr.span("cli.gp"), redirect_stdout(buf):
                    rc = ctx.cli.main(["gp", str(path)])
                with tr.span("graph.build"):
                    g = gp.parse_edge_list(path.read_text())
                with tr.span("solve.gp"):
                    res = gp.gp_number(g)
                _probe(gp, tr, acc, g, None, res)
            if self.parse(rc, buf.getvalue()) != (res.value, tuple(res.witness)) or out[i] != (rc, buf.getvalue()):
                acc.mismatches += 1


WORKLOADS = {w.name: w for w in (Census12(), Check413(), GpMop40(), GpCli40())}


def clear_caches() -> None:
    """Empty every functools cache in the program, so that each pass starts
    as cold as a fresh CLI process."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gpmop" or mod_name.startswith("gpmop."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
