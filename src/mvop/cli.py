"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(including inadmissible parameters and output that cannot be written; --out
is opened before any work is done).  All rational flags take exact 'p/q'
values in ASCII digits; decimals are rejected.  Output is deterministic.
Checks run in one thread: --jobs must be >= 1 and its value does not change
the output.  A command loads only what it runs: verify alone imports the
checks, csv output alone imports csv, and only verify's JSON output imports
json.

Each command returns its output as a sequence of text chunks, which main
writes to stdout or --out.  List output (table, polys, collisions, gram) is
written one record at a time in either format, each record built only when
it is due: polys descends to column (w, j) only when its record is written,
and writes its entries straight from the descent's per-degree rows
(Family.column_strings), with no MatPoly between.  JSON comes out byte for
byte as json.dumps(list, indent=2) writes it, each record through one writer
(_record_text), and the tests pin it to json.dumps of the whole list.  CSV
reads its rows from the same records.  A run that raises partway leaves a
truncated document, in either format, and exits through the traceback.
verify writes its one report whole.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .exact import _format_ratio, parse_rational
from .hyper import family, find_collisions, gram_block
from .model import Params, _cleared, slot_table


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


def _record_text(record) -> str:
    """json.dumps(record, indent=2) as it stands inside a list, nested 2 deeper,
    for a dict whose values are ints, strings, or non-empty sequences of
    non-empty rows of ints or of strings.  Each row is one join and the record
    one final join.  The ints are written as str writes them and each string
    and key quoted as it stands: that is json's quoting, as every string is
    _format_ratio's, of '-', '/' and ASCII digits only, and every key of ASCII
    letters and '_', none of which json escapes."""
    parts, sep = [], "{\n    "
    for key, value in record.items():
        if isinstance(value, int):
            parts.append(f'{sep}"{key}": {value}')
        elif isinstance(value, str):
            parts.append(f'{sep}"{key}": "{value}"')
        else:
            q = '"' if isinstance(value[0][0], str) else ""
            rows = value if q else (map(str, row) for row in value)
            rows = f"{q}\n      ],\n      [\n        {q}".join(map(f"{q},\n        {q}".join, rows))
            parts += (f'{sep}"{key}": [\n      [\n        {q}', rows, f"{q}\n      ]\n    ]")
        sep = ",\n    "
    parts.append("\n  }")
    return "".join(parts)


def _json_list(records):
    """Chunks of json.dumps(list(records), indent=2) + "\n", one record each,
    each record taken from the iterable only when its chunk is due."""
    sep = "[\n  "
    for record in records:
        yield sep + _record_text(record)
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _listing(args, records, header, rows_of):
    """The chunks of a list command in its --format: JSON writes each record
    (see _json_list), CSV writes the rows rows_of reads from that same record."""
    if args.format == "json":
        return _json_list(records)
    return _csv_lines(header, map(rows_of, records))


def _slot_records(p: Params, max_w: int):
    """The record {w, j, lambda, mu} of each slot up to max_w, in slot order, each built when it is due."""
    d = _cleared(p)[0]
    for w, j, lam, mu in slot_table(p, max_w):
        yield {"w": w, "j": j, "lambda": _format_ratio(lam, d), "mu": _format_ratio(mu, d * d)}


def cmd_table(p: Params, args) -> tuple:
    return _listing(args, _slot_records(p, args.max_w), ("w", "j", "lambda", "mu"), lambda r: (r.values(),)), 0


def cmd_polys(p: Params, args) -> tuple:
    fam = family(p)
    records = (r | {"coeffs": fam.column_strings(r["w"], r["j"])} for r in _slot_records(p, args.max_w))
    header = ("w", "j", "lambda", "mu", "power") + tuple(f"x{i}" for i in range(p.size))

    def rows_of(r):
        *slot, coeffs = r.values()
        return ((*slot, m, *vec) for m, vec in enumerate(coeffs))

    return _listing(args, records, header, rows_of), 0


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
                yield {"lambda": _format_ratio(lam, d), "members": members}

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
