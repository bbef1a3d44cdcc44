import hashlib
import json

import pytest

from mvop.cli import main

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


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "627f0e8cb88a396cd41c165fddf5281f44ef2be4ffa45a7eaf2e3ddb9b8fb2d4"),
        ("csv", "f246ed04069e39e645da13248e5de3dda1eef0299b4ad867e5ee1bbcf2d187d9"),
    ],
)
def test_polys_deep_output_is_byte_identical(capsys, fmt, digest):
    # digests of the output of the per-entry Fraction construction; a faster one must match byte for byte
    flags = ["--alpha=3/2", "--beta=5/3", "--k=3/2", "--ell=4", "--max-w=30", "--format", fmt]
    code, out, _ = run_cli(capsys, "polys", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
