"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(including inadmissible parameters and output that cannot be written; --out
is opened before any work is done).  All rational flags take exact 'p/q'
values in ASCII digits; decimals are rejected.  Output is deterministic.
Checks run in one thread: --jobs must be >= 1 and its value does not change
the output.  A command loads only what it runs: verify alone imports the
checks, and csv output alone imports csv.

Each command returns its output as a sequence of text chunks, which main
writes to stdout or --out.  JSON list output (table, polys, collisions,
gram) is written one record at a time, each record built only when it is
due, byte for byte as json.dumps(list, indent=2) writes it: polys builds
column (w, j) only when its record is written.  A run that raises partway
leaves a truncated document and exits through the traceback.  verify writes
its one report whole, and CSV output is built whole.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import format_rational, parse_rational
from .hyper import build_column, find_collisions, gram_block
from .model import Params, eigen_table, hyper_eigenvalue


def _rational_flag(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=_rational_flag, required=True, help="exponent at u = 1, rational p/q")
    common.add_argument("--beta", type=_rational_flag, required=True, help="exponent at u = 0, rational p/q")
    common.add_argument("--k", type=_rational_flag, required=True, help="weight parameter, rational p/q")
    common.add_argument("--ell", type=int, required=True, help="matrix size minus one, integer >= 1")
    common.add_argument("--max-w", dest="max_w", type=int, default=6, help="largest degree (default 6)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--jobs", type=int, default=1, help="integer >= 1; checks run in one thread, so it does not change the output"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="mvop",
        description="Exact matrix weights, orthogonal matrix polynomials, and their commuting operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table", parents=[common], help="eigenvalue pairs per slot")
    sub.add_parser("polys", parents=[common], help="column eigenfunction coefficients per slot")
    sub.add_parser("verify", parents=[common], help="run the verification suite")
    sub.add_parser("collisions", parents=[common], help="classes of slots sharing an eigenvalue")
    sub.add_parser("gram", parents=[common], help="pairing blocks between degree families")
    return parser


def _csv_text(header, rows) -> tuple:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return (buf.getvalue(),)


def _json_list(records):
    """Chunks of json.dumps(list(records), indent=2) + "\n", one record each,
    each record taken from the iterable only when its chunk is due.  The
    bytes match because json escapes every newline inside a string, so the
    raw newlines of a record are its indentation, which nests 2 deeper."""
    sep = "[\n  "
    for record in records:
        yield sep + json.dumps(record, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def cmd_table(p: Params, args) -> tuple:
    pairs = eigen_table(p, args.max_w)
    if args.format == "json":
        return _json_list(pair.as_dict() for pair in pairs), 0
    rows = [(pair.w, pair.j, format_rational(pair.lam), format_rational(pair.mu)) for pair in pairs]
    return _csv_text(("w", "j", "lambda", "mu"), rows), 0


def cmd_polys(p: Params, args) -> tuple:
    records = (
        {**pair.as_dict(), "coeffs": build_column(p, pair.w, pair.j).to_json_dict()["coeffs"]}
        for pair in eigen_table(p, args.max_w)
    )
    if args.format == "json":
        return _json_list(records), 0
    header = ("w", "j", "lambda", "mu", "power") + tuple(f"x{i}" for i in range(p.size))
    rows = ((r["w"], r["j"], r["lambda"], r["mu"], m, *vec) for r in records for m, vec in enumerate(r["coeffs"]))
    return _csv_text(header, rows), 0


def cmd_verify(p: Params, args) -> tuple:
    from .verify import run_suite

    report = run_suite(p, max_w=args.max_w)
    code = 0 if report.passed else 1
    if args.format == "json":
        return (json.dumps(report.as_dict(), indent=2) + "\n",), code
    rows = [(c.name, c.status, c.witness or "") for c in report.checks]
    return _csv_text(("name", "status", "witness"), rows), code


def cmd_collisions(p: Params, args) -> tuple:
    classes = []
    seen = set()
    for w in range(args.max_w + 1):
        for j in range(p.size):
            lam = hyper_eigenvalue(p, w, j)
            if lam in seen:
                continue
            seen.add(lam)
            members = find_collisions(p, lam).members
            if len(members) >= 2:
                classes.append((members[0], lam, members))
    classes.sort(key=lambda item: item[0])
    if args.format == "json":
        payload = ({"lambda": format_rational(lam), "members": list(map(list, members))} for _, lam, members in classes)
        return _json_list(payload), 0
    rows = [(format_rational(lam), w, j) for _, lam, members in classes for w, j in members]
    return _csv_text(("lambda", "w", "j"), rows), 0


def cmd_gram(p: Params, args) -> tuple:
    blocks = (gram_block(p, w, wp) for w in range(args.max_w + 1) for wp in range(w, args.max_w + 1))
    if args.format == "json":
        return _json_list(b.as_dict() for b in blocks), 0
    rows = (
        (b.w, b.w_prime, i, j, format_rational(b.entries[i][j]))
        for b in blocks
        for i in range(p.size)
        for j in range(p.size)
    )
    return _csv_text(("w", "w_prime", "i", "j", "value"), rows), 0


_COMMANDS = {
    "table": cmd_table,
    "polys": cmd_polys,
    "verify": cmd_verify,
    "collisions": cmd_collisions,
    "gram": cmd_gram,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        p = Params(args.alpha, args.beta, args.k, args.ell)
        if args.max_w < 0:
            raise ValueError("max_w must be >= 0")
        if args.jobs < 1:
            raise ValueError("jobs must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        handle = sys.stdout if args.out is None else open(args.out, "w")
        try:
            chunks, code = _COMMANDS[args.command](p, args)
            handle.writelines(chunks)
        finally:
            if handle is not sys.stdout:
                handle.close()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    sys.exit(main())
