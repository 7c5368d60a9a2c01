"""Record the pinned outputs that run.py checks against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good; it overwrites
perfbench/reference.json with the census-12 record count, gp histogram,
per-record gp values and (chords, gp, witness) digest, the check-4-13
(claim, n, checked) list, and per-graph (gp, witness) for the gp workloads
on the default seed and size.
"""

from __future__ import annotations

import json
import shutil

from oracle import census_digest, gp_histogram, gp_string
from run import BENCH_DIR, DEFAULT_SEED, MAX_JOBS, import_program, nproc
from workloads import WORKLOADS, Ctx, GpCli40

SECONDS = 20


def main() -> int:
    gpmop, cli = import_program()
    workdir = BENCH_DIR / ".work" / "reference"
    ctx = Ctx(gpmop, cli, DEFAULT_SEED, SECONDS, min(MAX_JOBS, nproc()), workdir, {}, DEFAULT_SEED)
    ref = {}
    try:
        records = WORKLOADS["census-12"].run_pass(ctx, None)[0]
        rows = WORKLOADS["census-12"].rows(records)
        ref["census-12"] = {
            "records": len(rows),
            "gp_histogram": gp_histogram(gp for _, gp, _ in rows),
            "digest": census_digest(rows),
            "gp_by_chords": gp_string(rows),
        }
        reports = WORKLOADS["check-4-13"].run_pass(ctx, None)[0]
        ref["check-4-13"] = {"reports": [[r.claim, r.n, r.checked] for r in reports]}
        for name in ("gp-mop-40", "gp-cli-40"):
            wl = WORKLOADS[name]
            out = wl.run_pass(ctx, wl.setup(ctx))[0]
            if name == "gp-cli-40":
                out = [GpCli40.parse(rc, text) for rc, text in out]
            ref[name] = {"seed": DEFAULT_SEED, "results": [[r[0], list(r[1])] for r in out]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
