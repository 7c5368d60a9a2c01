"""gpmop benchmark: seeded workloads through the public API, checked outputs.

    python3 perfbench/run.py --workload census-12 --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same tree.  With ``--trace 0`` the run reports the end-to-end metrics
(set-up time, wall and CPU time, per-item latency, peak memory; times but
set-up in reference seconds, see ``speed.py``); with
``--trace 1`` it replays the workload module by module under a span
recorder and reports per-layer times and counts.  The last line of stdout
is one JSON object; a result file with the run's environment goes to
``perfbench/results/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, span_cost
from speed import Speed
from workloads import WORKLOADS, Ctx, Layers, clear_caches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
# Set-up probes run after each pass, so that they are spread over the run.
PROBES_PER_PASS = 3
# Kernel runs before and after each census pass or gp round (see speed.py).
PASS_CAL_REPEATS = 30
MAX_JOBS = 2

# Per-layer metrics taken from span self times: span name -> metric name.
SPAN_METRICS = {
    "graph.build": "graph.build_s",
    "graph.bfs": "graph.bfs_s",
    "mop.key": "mop.key_s",
    "mop.stats": "mop.stats_s",
    "mop.recognize": "mop.recognize_s",
    "solve.gp": "solve.gp_s",
    "solve.seed": "solve.seed_s",
    "verify.char": "verify.char_s",
    "families.catalog": "families.catalog_s",
    "families.label": "families.label_s",
    "cli.gp": "cli.gp_s",
}
# Spans of the census bookkeeping around the per-record steps.
CENSUS_SELF = ("census.enumerate", "census.merge", "census.sort")
# Spans of calls the program makes only inside gp_number, added by the replay.
PROBES = ("graph.bfs", "verify.char", "solve.seed")


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def import_program():
    """Import gpmop from this tree's src/ and nowhere else."""
    if not (SRC / "gpmop" / "__init__.py").is_file():
        raise ImportError(f"no gpmop package under {SRC.name}/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    import gpmop
    import gpmop.cli

    if Path(gpmop.__file__).resolve().parent != (SRC / "gpmop").resolve():
        raise ImportError(f"gpmop was imported from {gpmop.__file__}, not from {SRC.name}/")
    return gpmop, gpmop.cli


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def tree_digest(directory: Path, *patterns: str) -> str:
    digest = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(directory.glob(pattern)):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, jobs: int, gpmop) -> dict:
    import numpy

    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": nproc(),
        "commit": commit,
        "src_sha256": tree_digest(SRC / "gpmop", "*.py"),
        "bench_sha256": tree_digest(BENCH_DIR, "*.py", "reference.json"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gpmop": gpmop.__version__,
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
    }


def setup_probe(args, ctx_of) -> int:
    """Child of the set-up measurement: build the inputs, then print the
    monotonic clock, which the parent compares with its launch time."""
    ctx = ctx_of()
    WORKLOADS[args.workload].setup(ctx)
    print(repr(time.monotonic()), flush=True)
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    return 0


def measure_setup(args, probes: int) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--jobs", str(args.jobs),
    ]
    out = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


@dataclass
class Passes:
    """Measured seconds of the passes of one run, and the speed factors
    that turn them into reference seconds (see speed.py)."""

    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    item_walls: list = field(default_factory=list)
    item_cpus: list = field(default_factory=list)
    item_factors: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    prints: list = field(default_factory=list)
    out: object = None
    rss: float = 0.0


def run_passes(wl, ctx, inputs, passes: int, probe) -> Passes:
    """Runs the passes, each followed by the set-up probes of ``probe()``.
    Keeps the first pass's output and every pass's fingerprint; peak
    memory is read after the first pass, before any probe, whose memory
    would count as a child's."""
    p = Passes()
    for _ in range(passes):
        clear_caches()
        gc.collect()
        speed = Speed(PASS_CAL_REPEATS)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out, times, item_cpu, item_factor = wl.run_pass(ctx, inputs)
        p.walls.append(time.perf_counter() - t0)
        p.cpus.append(cpu_seconds() - c0)
        p.factors.append(speed.factor())
        if p.out is None:
            p.out, p.rss = out, peak_rss_mb()
        p.prints.append(wl.fingerprint(out))
        p.item_walls.append(times)
        p.item_cpus.append(item_cpu)
        p.item_factors.append(item_factor)
        p.setups += probe()
    return p


def end_to_end(p: Passes, n_items: int) -> dict:
    """Every time is the fastest of its repeats, so that a burst of load
    from outside the process lands in a repeat that is not reported.  Pass
    and per-graph times are in reference seconds; set-up time is in
    measured seconds, since starting an interpreter slows in other ways
    than the kernel of speed.py."""
    if p.item_walls[0] is None:
        # Census workloads: whole passes; the per-item time is the mean.
        wall = min(w * f for w, f in zip(p.walls, p.factors))
        cpu = min(c * f for c, f in zip(p.cpus, p.factors))
        per_item = [wall / n_items]
    else:
        # gp workloads: each graph's fastest round, summed over graphs.
        def fastest(rounds):
            scaled = [[t * f for t, f in zip(ts, fs)] for ts, fs in zip(rounds, p.item_factors)]
            return [min(ts) for ts in zip(*scaled)]

        per_item = fastest(p.item_walls)
        wall = sum(per_item)
        cpu = sum(fastest(p.item_cpus))
    return {
        "setup_s": (min(p.setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "solve_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "solve_p90_ms": (p90(per_item) * 1e3, "ms"),
        "peak_rss_mb": (p.rss, "MB"),
    }


def per_layer(wl, ctx, tr: Tracer, acc: Layers, untraced_wall: float, untraced_cpu: float) -> dict:
    selfs = tr.self_times()
    m = {metric: (selfs.get(span, 0.0), "s") for span, metric in SPAN_METRICS.items()}
    probes = sum(selfs.get(k, 0.0) for k in PROBES)
    m.update(
        {
            "solve.solves": (acc.solves, "count"),
            "solve.nodes": (acc.nodes, "count"),
            "solve.nodes_per_solve": (acc.nodes / acc.solves if acc.solves else 0.0, "count"),
            "solve.seed_hit_ratio": (acc.seed_hits / acc.seeded if acc.seeded else 0.0, "ratio"),
            "mop.key_calls": (acc.key_calls, "count"),
            "census.records": (acc.records, "count"),
            "census.classes": (acc.classes, "count"),
            "census.claims_s": (acc.claims_s, "s"),
            "census.self_s": (sum(selfs.get(k, 0.0) for k in CENSUS_SELF), "s"),
            "census.pool_util": (untraced_cpu / (wl.jobs(ctx) * untraced_wall), "ratio"),
            "trace.wall_s": (tr.last_duration("run"), "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (probes + len(tr.spans) * span_cost(), "s"),
            "trace.layer_self_sum_s": (sum(v for k, v in selfs.items() if k not in ("run", "item")), "s"),
            "trace.spans": (len(tr.spans), "count"),
        }
    )
    return m


def check_drift(result_path: Path, env: dict, counts: dict) -> str | None:
    """Exact counts must repeat between runs of one program and benchmark
    tree with the same seed and size."""
    try:
        old = json.loads(result_path.read_text())
    except (OSError, ValueError):
        return None
    same = ("src_sha256", "bench_sha256", "seed", "seconds", "jobs", "trace")
    if any(old.get("env", {}).get(k) != env[k] for k in same):
        return None
    if old.get("counts") != counts:
        return f"exact counts drifted since the last run of this tree and seed: {old.get('counts')} -> {counts}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None, help="pool size for check-4-13 (default: min(2, nproc))")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cores = nproc()
    if args.jobs is None:
        args.jobs = min(MAX_JOBS, cores)
    if not 1 <= args.jobs <= cores:
        return fail(f"--jobs must be in 1..{cores} (nproc), got {args.jobs}")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    try:
        gpmop, cli = import_program()
    except ImportError as exc:
        return fail(str(exc))
    try:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read reference.json: {exc}")

    wl = WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"

    def make_ctx() -> Ctx:
        return Ctx(gpmop, cli, args.seed, args.seconds, args.jobs, workdir, reference, DEFAULT_SEED)

    if args.setup_probe:
        return setup_probe(args, make_ctx)

    ctx = make_ctx()
    try:
        return measure(args, wl, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, ctx: Ctx) -> int:
    env = environment(args, wl.jobs(ctx), ctx.gpmop)
    inputs = wl.setup(ctx)
    passes = 1 if args.trace else wl.passes(args.seconds)
    probe = (lambda: []) if args.trace else (lambda: measure_setup(args, PROBES_PER_PASS))
    p = run_passes(wl, ctx, inputs, passes, probe)
    out = p.out
    chk = wl.check(ctx, inputs, out)
    if any(fp != p.prints[0] for fp in p.prints[1:]):
        chk.fail("passes of one run gave different outputs", chk.attempted)

    if args.trace:
        clear_caches()
        gc.collect()
        tr = Tracer()
        acc = Layers()
        with tr.span("run"):
            wl.replay(ctx, inputs, tr, acc, out)
        if acc.mismatches:
            chk.fail(f"{acc.mismatches} replayed items differ from the untraced run")
        if p.item_walls[0] is None:
            untraced_wall, untraced_cpu = p.walls[0], p.cpus[0]
        else:
            # The items alone, without the speed kernel run between them.
            untraced_wall, untraced_cpu = sum(p.item_walls[0]), sum(p.item_cpus[0])
        metrics = per_layer(wl, ctx, tr, acc, untraced_wall, untraced_cpu)
        counts = {
            "solve.nodes": acc.nodes,
            "mop.key_calls": acc.key_calls,
            "census.records": acc.records,
            "census.classes": acc.classes,
        }
    else:
        metrics = end_to_end(p, chk.attempted)
        counts = dict(chk.counts)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    drift = check_drift(results / f"{stem}.json", env, counts)
    if drift:
        chk.fail(drift, chk.attempted)
    record = {
        "env": env,
        "passes": {"wall_s": p.walls, "cpu_s": p.cpus, "speed_factor": p.factors},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": counts,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "fail_frac": chk.failed / chk.attempted,
        "problems": chk.problems,
    }
    if not args.trace:
        record["setup_probes_s"] = p.setups
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tr.write(results / f"{stem}-spans.jsonl.gz")

    for problem in chk.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} jobs={env['jobs']} passes={passes} trace={args.trace}")
    print("# measured pass walls (s): " + " ".join(f"{w:.3f}" for w in p.walls))
    print("# pass speed factors: " + " ".join(f"{f:.3f}" for f in p.factors))
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:>14.6f} {unit}")
    print(f"{'fail_frac':<24} {chk.failed / chk.attempted:>14.6f} ({chk.failed}/{chk.attempted})")
    print(
        json.dumps(
            {
                "correct": not chk.problems,
                "attempted": chk.attempted,
                "failed": chk.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
