"""Command-line front end.

Exit codes: 0 for success or an all-pass check, 1 for a domain-negative
answer (not a triangulation, not a general position set, a failed claim),
2 for usage or input errors, 70 when the two general-position tests of
``verify`` disagree (an internal error).  ``main`` is the one place that
turns an error into ``error: ...`` on stderr: every GraphError, and every
OSError from a file that cannot be read or written, exits 2.
"""

from __future__ import annotations

import argparse
import errno
import sys
from pathlib import Path

from . import families
from .census import census_to_csv, claim_report_text, run_census, verify_paper_claims
from .graph import (
    Disconnected,
    EdgeListError,
    Graph,
    GraphError,
    _source_rows,
    format_edge_list,
    parse_edge_list,
)
from .mop import NotAnMop, certificate_to_text, chord_text, graph_from_chords, recognize
from .solve import MOP_SEARCH_CAP, gp_number
from .verify import is_gp_characterized, is_gp_naive

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
# verify builds one BFS row of order entries per distinct id, and refuses to
# build more entries than the full distance table of a MOP at its cap.
VERIFY_ENTRY_CAP = MOP_SEARCH_CAP * MOP_SEARCH_CAP


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise EdgeListError(f"{path}: not a text edge list ({exc.reason})") from None
    return parse_edge_list(text)


def _cmd_gp(args: argparse.Namespace) -> int:
    result = gp_number(_load_graph(args.file), force=args.force)
    print(f"gp={result.value}")
    print("witness=" + " ".join(str(v) for v in result.witness))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    # Both tests read only the members' BFS rows, so no other row is built;
    # a full table of a large sparse graph would not fit in memory.
    ids = len(set(args.ids))
    if ids * g.order > VERIFY_ENTRY_CAP:
        raise families.BadParam(
            f"{ids} ids on order {g.order} need {ids * g.order} BFS row entries, above the cap of {VERIFY_ENTRY_CAP}"
        )
    dist = _source_rows(g, args.ids)
    naive = is_gp_naive(g, dist, args.ids)
    char = is_gp_characterized(g, dist, args.ids)
    if naive.is_gp != char.is_gp:
        print(
            "internal error: the two general-position tests disagree on "
            f"{sorted(args.ids)}",
            file=sys.stderr,
        )
        return 70
    if char.is_gp:
        print("yes")
        assert char.clique_partition is not None
        blocks = " ".join("{" + ",".join(str(v) for v in b) + "}" for b in char.clique_partition)
        print(f"partition: {blocks}")
        return EXIT_OK
    print("no")
    assert naive.witness_violation is not None
    a, b, c = naive.witness_violation
    print(f"violation: ({a},{b},{c})")
    return EXIT_NEGATIVE


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    try:
        cert = recognize(g)
    except (NotAnMop, Disconnected) as exc:
        _emit(f"rejected: {type(exc).__name__}: {exc}\n", args.out)
        return EXIT_NEGATIVE
    _emit(certificate_to_text(cert), args.out)
    return EXIT_OK


_GENERATORS = {
    "fan": (families.fan, ("n",)),
    "quasi_fan": (families.quasi_fan, ("i", "n")),
    "g1": (lambda j, t, n: families.double_fan(j, t, n, 1), ("j", "t", "n")),
    "g2": (lambda j, t, n: families.double_fan(j, t, n, 2), ("j", "t", "n")),
    "slt": (families.straight_linear_2tree, ("n",)),
    "sunflower": (families.sunflower, ("m",)),
    "gsf": (families.generalized_sunflower, ("n",)),
    "complete": (families.complete, ("n",)),
    "path": (families.path, ("n",)),
    "cycle": (families.cycle, ("n",)),
}


def _chords(params: list[int]) -> tuple[families.FamilyInstance, str]:
    # The polygon 0..n-1 with the chords (a1, b1), (a2, b2), ... of
    # "chords n a1 b1 a2 b2 ...": the way back from a claim's
    # chords=a-b;c-d;... line, and no family of the catalog.
    if not params or len(params) % 2 == 0:
        raise families.BadParam("chords takes n and then two endpoints per chord")
    n, *ends = params
    families._check_order("chords", n, 3)
    pairs = list(zip(ends[::2], ends[1::2]))
    inst = families.FamilyInstance(f"chords({n})", graph_from_chords(n, pairs), None, {})
    return inst, f"n={n} chords={chord_text(pairs)}"


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "chords":
        inst, params = _chords(args.params)
    else:
        entry = _GENERATORS.get(args.family)
        if entry is None:
            raise families.BadParam(f"unknown family {args.family!r}; choose from {sorted(_GENERATORS)} or chords")
        builder, names = entry
        if len(args.params) != len(names):
            raise families.BadParam(f"family {args.family!r} takes parameters {' '.join(names)}")
        inst = builder(*args.params)
        params = " ".join(f"{k}={v}" for k, v in zip(names, args.params))
    roles = " ".join(f"{name}={vid}" for name, vid in inst.role_map.items())
    header = [
        f"label={inst.label}",
        f"params={params}",
        f"role_map={roles}",
        f"predicted_gp={inst.predicted_gp if inst.predicted_gp is not None else 'unknown'}",
    ]
    _emit(format_edge_list(inst.graph, header), args.out)
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    records = run_census(args.n, dedupe=args.dedupe, jobs=args.jobs)
    _emit(census_to_csv(records), args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    reports = verify_paper_claims(args.n_min, args.n_max, jobs=args.jobs)
    _emit(claim_report_text(reports), args.out)
    return EXIT_OK if all(r.status == "pass" for r in reports) else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpmop",
        description="General position numbers and maximal outerplanar graph analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gp", help="exact general position number of an edge-list file")
    p.add_argument("file")
    p.add_argument("--force", action="store_true", help="override the search-size cap")
    p.set_defaults(fn=_cmd_gp)

    p = sub.add_parser("verify", help="test whether the given vertices are in general position")
    p.add_argument("file")
    p.add_argument("ids", type=int, nargs="+")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("recognize", help="recognize a maximal outerplanar graph")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("generate", help="emit a named family instance, or a polygon with chords, as an edge list")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("census", help="census of all triangulations of one order")
    p.add_argument("n", type=int)
    p.add_argument("--dedupe", action="store_true", help="one row per isomorphism class")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("check", help="run the claim battery over a range of orders")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An --out that is a directory or lies in a missing one fails before
        # the work; the file itself is written only after the command succeeds.
        out = getattr(args, "out", None)
        if out is not None and Path(out).is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory", out)
        if out is not None and not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(Path(out).parent))
        return args.fn(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
