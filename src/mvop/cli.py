"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(including inadmissible parameters and output that cannot be written; --out
is opened before any work is done).  All rational flags take exact 'p/q'
values in ASCII digits; decimals are rejected.  Output is deterministic.
Checks run in one thread: --jobs must be >= 1 and its value does not change
the output.  A command loads only what it runs: verify alone imports the
checks, csv output alone imports csv, and JSON output alone imports json,
except that of polys, which writes its records itself.

Each command returns its output as a sequence of text chunks, which main
writes to stdout or --out.  List output (table, polys, collisions, gram) is
written one record at a time in either format, each record built only when
it is due: polys descends to column (w, j) only when its record is written,
and writes its entries straight from the descent's per-degree rows
(Family.column_strings), with no MatPoly between.  JSON comes out byte for
byte as json.dumps(list, indent=2) writes it: polys writes the text of its
records itself (see _polys_text), the other commands through json.dumps,
and the tests pin both to json.dumps of the whole list.  CSV reads its rows
from the same records.  A run that raises partway leaves a truncated
document, in either format, and exits through the traceback.
verify writes its one report whole.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .exact import _format_ratio, parse_rational
from .hyper import family, find_collisions, gram_block
from .model import Params, _cleared, eigen_table, slot_table


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
    for name, run, summary in (
        ("table", cmd_table, "eigenvalue pairs per slot"),
        ("polys", cmd_polys, "column eigenfunction coefficients per slot"),
        ("verify", cmd_verify, "run the verification suite"),
        ("collisions", cmd_collisions, "classes of slots sharing an eigenvalue"),
        ("gram", cmd_gram, "pairing blocks between degree families"),
    ):
        sub.add_parser(name, parents=[common], help=summary).set_defaults(run=run)
    return parser


def _csv_lines(header, row_groups):
    """Chunks of a CSV document: the header with the first group of rows,
    then one chunk per later group, each group taken from the iterable only
    when its chunk is due."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rows in row_groups:
        writer.writerows(rows)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    yield buf.getvalue()


def _json_text(record) -> str:
    """json.dumps(record, indent=2) as it stands inside a list, nested 2
    deeper: json escapes every newline inside a string, so the raw newlines
    of a record are its indentation."""
    import json

    return json.dumps(record, indent=2).replace("\n", "\n  ")


def _json_list(records, text):
    """Chunks of json.dumps(list(records), indent=2) + "\n", one record each,
    each record taken from the iterable only when its chunk is due and
    written by text(record) as it stands inside the list."""
    sep = "[\n  "
    for record in records:
        yield sep + text(record)
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _listing(args, records, header, rows_of, text=_json_text):
    """The chunks of a list command in its --format: JSON writes each record
    (see _json_list), CSV writes the rows rows_of reads from that same record."""
    if args.format == "json":
        return _json_list(records, text)
    return _csv_lines(header, map(rows_of, records))


def cmd_table(p: Params, args) -> tuple:
    records = (pair.as_dict() for pair in eigen_table(p, args.max_w))
    return _listing(args, records, ("w", "j", "lambda", "mu"), lambda r: (r.values(),)), 0


def _polys_text(record) -> str:
    """A polys record (w, j, lambda, mu, coeffs) as _json_text writes its dict
    with those five keys, with no dict built: the ints as str writes them and
    each string quoted as it stands.  That is json's quoting, as each string
    is _format_ratio's, of '-', '/' and ASCII digits only, which json never
    escapes.  No list is empty: coeffs holds w + 1 rows of ell + 1 strings."""
    w, j, lam, mu, coeffs = record
    rows = '"\n      ],\n      [\n        "'.join(map('",\n        "'.join, coeffs))
    return (
        f'{{\n    "w": {w},\n    "j": {j},\n    "lambda": "{lam}",\n    "mu": "{mu}",\n'
        f'    "coeffs": [\n      [\n        "{rows}"\n      ]\n    ]\n  }}'
    )


def cmd_polys(p: Params, args) -> tuple:
    fam, d = family(p), _cleared(p)[0]
    records = (
        (w, j, _format_ratio(lam, d), _format_ratio(mu, d * d), fam.column_strings(w, j))
        for w, j, lam, mu in slot_table(p, args.max_w)
    )
    header = ("w", "j", "lambda", "mu", "power") + tuple(f"x{i}" for i in range(p.size))

    def rows_of(r):
        return ((*r[:4], m, *vec) for m, vec in enumerate(r[4]))

    return _listing(args, records, header, rows_of, _polys_text), 0


def cmd_verify(p: Params, args) -> tuple:
    from .verify import run_suite

    report = run_suite(p, max_w=args.max_w)
    code = 0 if report.passed else 1
    if args.format == "json":
        import json

        return (json.dumps(report.as_dict(), indent=2) + "\n",), code
    rows = [(c.name, c.status, c.witness or "") for c in report.checks]
    return _csv_lines(("name", "status", "witness"), [rows]), code


def cmd_collisions(p: Params, args) -> tuple:
    # slot order reaches every class first at its lowest member, so listing a
    # class there lists it once, and the classes come sorted by that member
    def records():
        d = _cleared(p)[0]
        for w, j, lam, _ in slot_table(p, args.max_w):
            members = find_collisions(p, Fraction(lam, d)).members
            if len(members) >= 2 and members[0] == (w, j):
                yield {"lambda": _format_ratio(lam, d), "members": list(map(list, members))}

    return _listing(args, records(), ("lambda", "w", "j"), lambda r: ((r["lambda"], *m) for m in r["members"])), 0


def cmd_gram(p: Params, args) -> tuple:
    records = (gram_block(p, w, wp).as_dict() for w in range(args.max_w + 1) for wp in range(w, args.max_w + 1))

    def rows_of(r):
        return ((r["w"], r["w_prime"], i, j, x) for i, row in enumerate(r["entries"]) for j, x in enumerate(row))

    return _listing(args, records, ("w", "w_prime", "i", "j", "value"), rows_of), 0


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
            chunks, code = args.run(p, args)
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


if __name__ == "__main__":
    run()
