import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mvop
from mvop.cli import _record_text, build_parser, cmd_polys, main
from mvop.exact import _format_ratio, format_rational, parse_rational
from mvop.hyper import Family, build_column, family, find_collisions, gram_block
from mvop.matpoly import MatPoly
from mvop.model import Params, companion_eigenvalue, hyper_eigenvalue, slot_table

BASE_FLAGS = ["--alpha", "0", "--beta", "1", "--k", "1", "--ell", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_json(capsys):
    code, out, err = run_cli(capsys, "table", *BASE_FLAGS, "--max-w", "0")
    assert code == 0
    assert err == ""
    assert json.loads(out) == [
        {"w": 0, "j": 0, "lambda": "0", "mu": "0"},
        {"w": 0, "j": 1, "lambda": "-2", "mu": "-10"},
    ]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", *BASE_FLAGS, "--max-w", "0", "--format", "csv")
    assert code == 0
    assert out == "w,j,lambda,mu\n0,0,0,0\n0,1,-2,-10\n"


def test_polys_json(capsys):
    code, out, _ = run_cli(capsys, "polys", *BASE_FLAGS, "--max-w", "0")
    assert code == 0
    records = json.loads(out)
    assert records[0] == {"w": 0, "j": 0, "lambda": "0", "mu": "0", "coeffs": [["1", "0"]]}
    assert records[1]["coeffs"] == [["-1/2", "1"]]


def test_polys_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "polys", *BASE_FLAGS, "--max-w", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,j,lambda,mu,power,x0,x1"
    # one row per (slot, power); degree w columns contribute w + 1 rows each
    assert len(lines) == 1 + 2 * (1 + 2)


def test_polys_deterministic(capsys):
    flags = ["--alpha", "0", "--beta", "1", "--k", "3/2", "--ell", "2", "--max-w", "2"]
    _, first, _ = run_cli(capsys, "polys", *flags)
    _, second, _ = run_cli(capsys, "polys", *flags)
    assert first == second


POLYS_DEEP_FLAGS = ["--alpha=3/2", "--beta=5/3", "--k=3/2", "--ell=4", "--max-w=30"]
POLYS_DEEP_JSON_DIGEST = "627f0e8cb88a396cd41c165fddf5281f44ef2be4ffa45a7eaf2e3ddb9b8fb2d4"


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", POLYS_DEEP_JSON_DIGEST),
        ("csv", "f246ed04069e39e645da13248e5de3dda1eef0299b4ad867e5ee1bbcf2d187d9"),
    ],
)
def test_polys_deep_output_is_byte_identical(capsys, fmt, digest):
    # digests of the output of the per-entry Fraction construction; a faster one must match byte for byte
    code, out, _ = run_cli(capsys, "polys", *POLYS_DEEP_FLAGS, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_polys_deep_out_file_is_byte_identical(tmp_path, capsys):
    # --out and stdout share one writer, so the file holds the stdout bytes
    target = tmp_path / "polys.json"
    code, out, _ = run_cli(capsys, "polys", *POLYS_DEEP_FLAGS, "--out", str(target))
    assert code == 0
    assert out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == POLYS_DEEP_JSON_DIGEST


@pytest.mark.parametrize(
    "command, flags, digest",
    [
        ("table", POLYS_DEEP_FLAGS, "e4b89087434c5f22ab2b93f2fc2af5669ab54a1ea2edf38229bd9d5f2f4c705b"),
        (
            "collisions",
            ["--alpha=0", "--beta=1", "--k=1", "--ell=6", "--max-w=20"],
            "f01a68439a642667f5a0124cafd0ea6a696101ee809febdd1fff8601e2bfcc6b",
        ),
    ],
)
def test_table_and_collisions_output_is_byte_identical(capsys, command, flags, digest):
    # digests of the output of the whole-document writer; the record-at-a-time one must match byte for byte
    code, out, _ = run_cli(capsys, command, *flags, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, flags, digest",
    [
        ("table", POLYS_DEEP_FLAGS, "5ea5f257c8d08ea5eeb590d68ad15b8566921ae16dd6e9d596f6332bf87bccf8"),
        (
            "collisions",
            ["--alpha=0", "--beta=1", "--k=1", "--ell=6", "--max-w=20"],
            "ea925238d9bf86d1622c3c6efa61476ade4d5292180c723f25de486f1bb4bff1",
        ),
        (
            "gram",
            ["--alpha=1/2", "--beta=3/2", "--k=1", "--ell=2", "--max-w=14"],
            "d878a716954b702f2952313ff1bc675e2997e726c0cb1e6b3c823509d5beacde",
        ),
    ],
)
def test_csv_output_is_byte_identical(capsys, command, flags, digest):
    # digests of the output of the whole-document CSV writer; the record-at-a-time one must match byte for byte
    code, out, _ = run_cli(capsys, command, *flags, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def slot_records(p, max_w):
    """The {w, j, lambda, mu} record of each slot, from the Fraction eigenvalues."""
    return [
        {
            "w": w,
            "j": j,
            "lambda": format_rational(hyper_eigenvalue(p, w, j)),
            "mu": format_rational(companion_eigenvalue(p, w, j)),
        }
        for w in range(max_w + 1)
        for j in range(p.size)
    ]


def full_list(command, p, max_w):
    """The records of a JSON list command, built whole from the library."""
    if command == "table":
        return slot_records(p, max_w)
    if command == "polys":
        return [
            {**r, "coeffs": build_column(p, r["w"], r["j"]).to_json_dict()["coeffs"]} for r in slot_records(p, max_w)
        ]
    if command == "gram":
        return [gram_block(p, w, wp).as_dict() for w in range(max_w + 1) for wp in range(w, max_w + 1)]
    classes = {}
    for r in slot_records(p, max_w):
        lam = hyper_eigenvalue(p, r["w"], r["j"])
        members = find_collisions(p, lam).members
        if len(members) >= 2:
            classes[members] = lam
    return [{"lambda": format_rational(lam), "members": list(map(list, members))} for members, lam in sorted(classes.items())]


def full_rows(command, p, max_w):
    """The CSV header and rows of a list command, built whole from the library."""
    slots = [tuple(r.values()) for r in slot_records(p, max_w)]
    if command == "table":
        return ("w", "j", "lambda", "mu"), slots
    if command == "polys":
        rows = [
            (*slot, m, *(format_rational(x) for (x,) in c))
            for slot in slots
            for m, c in enumerate(build_column(p, slot[0], slot[1]).coeffs)
        ]
        return ("w", "j", "lambda", "mu", "power") + tuple(f"x{i}" for i in range(p.size)), rows
    if command == "gram":
        rows = [
            (w, wp, i, j, format_rational(x))
            for w in range(max_w + 1)
            for wp in range(w, max_w + 1)
            for i, row in enumerate(gram_block(p, w, wp).entries)
            for j, x in enumerate(row)
        ]
        return ("w", "w_prime", "i", "j", "value"), rows
    rows = [(r["lambda"], w, j) for r in full_list("collisions", p, max_w) for w, j in r["members"]]
    return ("lambda", "w", "j"), rows


LIST_CASES = [
    ("table", ("0", "1", "3/2", 2), 10, False),
    ("polys", ("0", "1", "3/2", 2), 10, False),  # resonant: collision columns included
    ("polys", ("1/2", "2/3", "1/2", 4), 30, False),  # generic, a polys-deep benchmark task's shape
    ("polys", ("-2/3", "11/3", "4", 8), 6, False),  # a class of four: (1, 8), (3, 5), (4, 3), (5, 0)
    ("polys", ("1/2", "4/3", "1/2", 3), 0, False),  # one record per slot of degree 0
    ("polys", ("-1/2", "-1/3", "1/2", 3), 12, False),  # negative alpha and beta
    ("gram", ("1/2", "3/2", "1", 2), 5, False),
    ("collisions", ("0", "1", "1", 1), 4, True),
    ("collisions", ("0", "1", "3/2", 2), 6, False),
    ("table", ("-1/2", "-1/3", "1/2", 3), 0, False),
    ("table", ("-1/2", "-1/3", "1/2", 3), 12, False),
    ("gram", ("0", "1", "3/2", 2), 6, False),  # resonant
    ("collisions", ("-2/3", "11/3", "4", 8), 6, False),  # a class of four
]


def list_output(capsys, command, point, max_w, fmt):
    alpha, beta, k, ell = point
    p = Params(parse_rational(alpha), parse_rational(beta), parse_rational(k), ell)
    flags = [f"--alpha={alpha}", f"--beta={beta}", f"--k={k}", f"--ell={ell}", f"--max-w={max_w}"]
    code, out, _ = run_cli(capsys, command, *flags, "--format", fmt)
    assert code == 0
    return p, out


INTS = st.integers(-(10**60), 10**60)
RATIOS = st.builds(_format_ratio, INTS, st.integers(1, 10**60))


def rows(entries):
    return st.lists(st.lists(entries, min_size=1, max_size=5), min_size=1, max_size=5)


def dicts(*fields):
    """Dicts of the given (key, strategy) fields, in that order."""
    keys = [key for key, _ in fields]
    return st.tuples(*(values for _, values in fields)).map(lambda values: dict(zip(keys, values)))


SLOT = (("w", INTS), ("j", INTS), ("lambda", RATIOS), ("mu", RATIOS))
RECORDS = st.one_of(
    dicts(*SLOT),  # table
    dicts(*SLOT, ("coeffs", rows(RATIOS))),  # polys
    dicts(("lambda", RATIOS), ("members", rows(INTS).map(lambda m: tuple(map(tuple, m))))),  # collisions
    dicts(("w", INTS), ("w_prime", INTS), ("entries", rows(RATIOS))),  # gram
)


@given(RECORDS)
def test_record_text_is_json_dumps_of_the_record(record):
    assert _record_text(record) == json.dumps(record, indent=2).replace("\n", "\n  ")


@pytest.mark.parametrize("command, point, max_w, empty", LIST_CASES)
def test_json_list_output_matches_whole_document(capsys, command, point, max_w, empty):
    p, out = list_output(capsys, command, point, max_w, "json")
    records = full_list(command, p, max_w)
    assert (records == []) == empty
    assert out == json.dumps(records, indent=2) + "\n"


def test_polys_json_out_file_matches_whole_document(tmp_path, capsys):
    # through --out, the records of the one JSON writer are still json.dumps of the whole list
    alpha, beta, k, ell, max_w = "-1/2", "5/3", "3/2", 4, 9
    target = tmp_path / "polys.json"
    flags = [f"--alpha={alpha}", f"--beta={beta}", f"--k={k}", f"--ell={ell}", f"--max-w={max_w}"]
    code, out, _ = run_cli(capsys, "polys", *flags, "--out", str(target))
    assert code == 0 and out == ""
    p = Params(parse_rational(alpha), parse_rational(beta), parse_rational(k), ell)
    assert target.read_text() == json.dumps(full_list("polys", p, max_w), indent=2) + "\n"


@pytest.mark.parametrize("command, point, max_w, empty", LIST_CASES)
def test_csv_list_output_matches_whole_document(capsys, command, point, max_w, empty):
    p, out = list_output(capsys, command, point, max_w, "csv")
    header, rows = full_rows(command, p, max_w)
    assert (rows == []) == empty
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert out == buf.getvalue()


@pytest.fixture
def descents(monkeypatch, fresh_family):
    """The slots (w, j) whose columns Family._descend builds during the test."""
    built = []
    descend = Family._descend

    def counted(self, w, j, lam):
        built.append((w, j))
        return descend(self, w, j, lam)

    monkeypatch.setattr(Family, "_descend", counted)
    return built


def last_degree(fmt, document):
    """The degree w of the last slot in a polys document."""
    if fmt == "json":
        return json.loads(document)[-1]["w"]
    return int(document.splitlines()[-1].split(",")[0])


@pytest.mark.parametrize(
    "fmt, head",
    [("json", '[\n  {\n    "w": 0,\n    "j": 0,'), ("csv", "w,j,lambda,mu,power,x0,x1,x2\n0,0,")],
    ids=["json", "csv"],
)
def test_polys_builds_each_column_when_its_record_is_written(descents, fmt, head):
    flags = ["--alpha", "0", "--beta", "1", "--k", "3/2", "--ell", "2", "--max-w", "3", "--format", fmt]
    p = Params(0, 1, parse_rational("3/2"), 2)
    chunks, code = cmd_polys(p, build_parser().parse_args(["polys", *flags]))
    chunks = iter(chunks)
    first = next(chunks)
    assert code == 0
    assert descents == [(0, 0)]
    assert first.startswith(head)
    document = first + "".join(chunks)
    assert descents == [(w, j) for w, j, _, _ in slot_table(p, 3)]
    assert last_degree(fmt, document) == 3


class Tracked(list):
    """A list that a weak reference can point to."""


@pytest.mark.usefixtures("fresh_family")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_polys_keeps_no_column_once_its_record_is_written(monkeypatch, fmt):
    # what each record is built from, its rows and its strings, and the
    # columns that certify the resonant point's later class members against E
    rows, strings, columns = [], [], []
    descend, written, assembled = Family._descend, Family.column_strings, mvop.hyper._assembled

    def descended(self, w, j, lam):
        out, earlier = descend(self, w, j, lam)
        out = Tracked(out)
        rows.append(weakref.ref(out))
        return out, earlier

    def tracked_strings(self, w, j):
        out = Tracked(written(self, w, j))
        strings.append(weakref.ref(out))
        return out

    def tracked_column(*args):
        out = assembled(*args)
        columns.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Family, "_descend", descended)
    monkeypatch.setattr(Family, "column_strings", tracked_strings)
    monkeypatch.setattr(mvop.hyper, "_assembled", tracked_column)
    flags = ["--alpha", "0", "--beta", "1", "--k", "3/2", "--ell", "2", "--max-w", "3", "--format", fmt]
    p = Params(0, 1, parse_rational("3/2"), 2)
    chunks, _ = cmd_polys(p, build_parser().parse_args(["polys", *flags]))
    for _ in chunks:
        pass
    gc.collect()
    assert len(rows) == len(strings) == len(slot_table(p, 3))
    assert columns
    assert all(ref() is None for ref in rows + strings + columns)
    assert family(p).params == p and family(p)._polys == {}


@pytest.mark.usefixtures("fresh_family")
@pytest.mark.parametrize(
    "flags, later",
    [
        (["--alpha=1/2", "--beta=4/3", "--k=1/2", "--ell=3", "--max-w=8"], set()),
        (["--alpha=0", "--beta=1", "--k=3/2", "--ell=2", "--max-w=8"], {(w, 0) for w in range(1, 9)}),
    ],
    ids=["generic", "resonant"],
)
def test_polys_builds_a_polynomial_only_to_certify_a_later_member(monkeypatch, flags, later):
    # polys writes each record straight from the descent's rows; a MatPoly, reduced
    # by a gcd or assembled in lowest terms, is built only while a later class
    # member is checked against E
    args = build_parser().parse_args(["polys", *flags])
    p = Params(args.alpha, args.beta, args.k, args.ell)
    assert later == {
        m
        for w, j, _, _ in slot_table(p, args.max_w)
        for m in find_collisions(p, hyper_eigenvalue(p, w, j)).members[1:]
        if m[0] <= args.max_w
    }
    family(p).hyper, family(p).companion  # each built once per Family
    slot, calls, descend = [None], [], Family._descend

    def descended(self, w, j, lam):
        slot[0] = (w, j)
        return descend(self, w, j, lam)

    def counted(build):
        def call(cls, *args):
            calls.append(slot[0])
            return build(cls, *args)

        return classmethod(call)

    monkeypatch.setattr(Family, "_descend", descended)
    for name in ("_reduced", "_lowest"):
        monkeypatch.setattr(MatPoly, name, counted(getattr(MatPoly, name).__func__))
    chunks, code = cmd_polys(p, args)
    assert code == 0 and "".join(chunks).endswith("]\n")
    assert set(calls) == later


def test_unwritable_out_fails_before_any_column_is_built(tmp_path, capsys, descents):
    for fmt in ("json", "csv"):
        target = tmp_path / "missing" / f"polys.{fmt}"
        code, out, err = run_cli(capsys, "polys", *BASE_FLAGS, "--max-w", "2", "--format", fmt, "--out", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert descents == []


@pytest.mark.parametrize(
    "command, flags, digest",
    [
        (
            "verify",
            ["--alpha=5/2", "--beta=2/3", "--k=1/2", "--ell=3", "--max-w=8", "--format", "json"],
            "cca97cfea0c9bf19dddee4ca9c87ee795f50cf0541e4d5b27d745cd9f93114fb",
        ),
        (
            "verify",
            ["--alpha=5/2", "--beta=2/3", "--k=1/2", "--ell=3", "--max-w=8", "--format", "csv"],
            "49e82783162781939f18a60e100292140438d430ac9993d3cd26a90b60406023",
        ),
        (
            "gram",
            ["--alpha=1/2", "--beta=3/2", "--k=1", "--ell=2", "--max-w=14", "--format", "json"],
            "4c04d6a8e0dcdc3ff091f859b6b4c11979e9b6935bdafdad5aafc6676c3569ba",
        ),
        (
            "verify",
            ["--alpha=5/2", "--beta=2/3", "--k=1/2", "--ell=3", "--max-w=0", "--format", "json"],
            "6e016b6885d934c577675a1174b89fe6c5179d7da055b89c73af17b6d57a982d",
        ),
        (
            "verify",
            ["--alpha=5/2", "--beta=2/3", "--k=1/2", "--ell=3", "--max-w=2", "--format", "json"],
            "6fad9ffd62d4a09f53b2ce5e262d5203d7663acd42c9a47f7ac62033109c27db",
        ),
        (
            "verify",
            ["--alpha=0", "--beta=1", "--k=3/2", "--ell=2", "--max-w=10", "--format", "json"],
            "3eb3daf2c974581cecc464fb8ef2097c38a139e515f4a2a3f01113a0d2d6951a",
        ),
    ],
)
def test_verify_and_gram_output_is_byte_identical(capsys, command, flags, digest):
    # digests of the output of the per-entry Fraction polynomial layer; the integer one must match byte for byte
    code, out, _ = run_cli(capsys, command, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_collisions_reports_class(capsys):
    code, out, _ = run_cli(
        capsys, "collisions", "--alpha", "0", "--beta", "1", "--k", "3/2", "--ell", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert {"lambda": "-5", "members": [[0, 2], [1, 0]]} in payload


def test_collisions_empty_for_generic_parameters(capsys):
    code, out, _ = run_cli(capsys, "collisions", *BASE_FLAGS, "--max-w", "4")
    assert code == 0
    assert json.loads(out) == []


def test_gram_csv_zero_off_diagonal(capsys):
    code, out, _ = run_cli(capsys, "gram", *BASE_FLAGS, "--max-w", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w,w_prime,i,j,value"
    for line in lines[1:]:
        w, wp, i, j, value = line.split(",")
        if w != wp or i != j:
            assert value == "0"
        else:
            assert value != "0"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", *BASE_FLAGS, "--max-w", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["params"]["k"] == "1"


def test_verify_csv_statuses(capsys):
    code, out, _ = run_cli(
        capsys, "verify", *BASE_FLAGS, "--max-w", "1", "--format", "csv", "--jobs", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,witness"
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


def test_inadmissible_parameters_exit_two(capsys):
    code, out, err = run_cli(capsys, "table", "--alpha", "0", "--beta", "1", "--k", "5", "--ell", "1")
    assert code == 2
    assert out == ""
    assert err == "error: k must satisfy 0 < k < beta + 1\n"


def test_negative_max_w_exit_two(capsys):
    code, _, err = run_cli(capsys, "table", *BASE_FLAGS, "--max-w", "-1")
    assert code == 2
    assert "max_w" in err


def test_bad_jobs_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", *BASE_FLAGS, "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_decimal_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table", "--alpha", "0.5", "--beta", "1", "--k", "1", "--ell", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("k", ["\u0661/\u0662", "\uff11/\uff12"])
def test_non_ascii_digits_rejected(k, capsys):
    # Arabic-Indic and fullwidth 1/2, which int() would read as 1/2
    with pytest.raises(SystemExit) as info:
        main(["table", "--alpha", "0", "--beta", "1", "--k", k, "--ell", "1"])
    assert info.value.code == 2
    assert "not an exact rational" in capsys.readouterr().err


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "table", *BASE_FLAGS, "--max-w", "0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[1]["lambda"] == "-2"


def test_unwritable_out_exits_two(tmp_path, capsys):
    # exit 1 means a verification failed, so a failed write is a usage error
    target = tmp_path / "missing" / "table.json"
    code, out, err = run_cli(capsys, "table", *BASE_FLAGS, "--max-w", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device on which every write fails")
def test_failed_write_to_out_exits_two(capsys):
    code, out, err = run_cli(capsys, "polys", *BASE_FLAGS, "--max-w", "3", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_module_run_is_the_command(capsys):
    # python -m mvop.cli runs a command as the installed mvop script does:
    # the same stdout as main, and exit 2 for inadmissible parameters
    src = str(Path(mvop.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["table", "--alpha", "0", "--beta", "1", "--k", "1", "--ell", "3"]
    run = subprocess.run([sys.executable, "-m", "mvop.cli", *argv], capture_output=True, text=True, env=env)
    code, out, _ = run_cli(capsys, *argv)
    assert out.startswith("[") and (run.returncode, run.stdout, run.stderr) == (code, out, "")
    bad = subprocess.run([sys.executable, "-m", "mvop.cli", *argv[:-1], "0"], capture_output=True, text=True, env=env)
    assert (bad.returncode, bad.stdout) == (2, "") and bad.stderr.startswith("error: ell must be")
