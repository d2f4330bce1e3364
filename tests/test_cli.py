"""The command-line interface: parsing, rendering, subcommands, exit codes."""

import io
import json

import pytest

from solvdeg import linalg, macaulay, verify
from solvdeg.cli import (
    ParseError,
    UnknownVariable,
    main,
    parse_system,
    render_system,
)
from solvdeg.field import NonPrimeField
from solvdeg.presets import gap_quartic_system
from solvdeg.randsys import random_system
from solvdeg.verify import CLAIMS, Claim

GAP_TEXT = """\
# gap example over GF(7)
field 7
vars x,y
x^4 - 1
x^2*y - x^2
y^2 - 1
"""


def test_parse_gap_system():
    F = parse_system(GAP_TEXT)
    assert F == gap_quartic_system()


def test_parse_coefficient_reduction():
    F = parse_system("field 7\nvars x\n8*x\n")
    assert [str(g) for g in F.polys] == ["1*x0"]


def test_parse_rejects_nonprime():
    with pytest.raises(NonPrimeField):
        parse_system("field 4\nvars x\nx\n")


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_system("field 7\nvars x\nx + w\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_system("field 7\nvars x\nx^a\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_system("vars x\nfield 7\n")
    with pytest.raises(ParseError):
        parse_system("")


def test_parse_signs_and_coefficients():
    F = parse_system("field 11\nvars x,y\n-x^2 + 3*x*y - 7\n+2*y\n")
    f, g = F.polys
    assert {(m.exps, c.value) for m, c in f.terms} == {
        ((2, 0), 10), ((1, 1), 3), ((0, 0), 4)
    }
    assert {(m.exps, c.value) for m, c in g.terms} == {((0, 1), 2)}


def test_round_trip_render_parse(corpus):
    for F in corpus:
        assert parse_system(render_system(F)) == F
    gap = gap_quartic_system()
    assert parse_system(render_system(gap)) == gap


def test_round_trip_random_many():
    for seed in range(20):
        F = random_system(101, 3, [2, 3], seed=seed)
        assert parse_system(render_system(F)) == F


# -- main() ----------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_egh(capsys):
    code, out, _ = run_cli(["bound", "--egh", "-m", "10", "-n", "10"], capsys)
    assert code == 0 and out.strip() == "11"


def test_bound_semiregular(capsys):
    code, out, _ = run_cli(
        ["bound", "--semiregular", "-n", "10", "-k", "2", "-d", "2"], capsys
    )
    assert code == 0 and out.strip() == "6"


def test_bound_other_kinds(capsys):
    cases = [
        (["bound", "--macaulay", "-n", "3", "--degrees", "2,2,2"], "4"),
        (["bound", "--closed-form", "-m", "12", "-n", "10"], "6"),
        (["bound", "--aci", "-n", "9", "--degrees", "2,2,2,2,2,2,2,2,2,2"], "6"),
        (["bound", "--larger-m", "-n", "7", "-d", "3"], "9"),
        (["bound", "--inhomogeneous", "-m", "7", "-n", "6", "-d", "2"], "8"),
        (["bound", "--egh-inhomog", "-m", "12", "-n", "10"], "11"),
        (["bound", "--weil", "-n", "2", "-d", "3", "--ell", "15"], "5"),
        (["bound", "--weil-inhomog", "-n", "2", "-d", "3", "--ell", "15"], "9"),
    ]
    for args, expect in cases:
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out.strip() == expect, args


def test_bound_json_document(capsys):
    code, out, _ = run_cli(
        ["bound", "--egh", "-m", "10", "-n", "10", "--json"], capsys
    )
    doc = json.loads(out)
    assert doc["tool"] == "solvdeg"
    assert doc["result"]["value"] == 11
    assert doc["command"] == "bound"


def test_bound_usage_error(capsys):
    code, _, err = run_cli(["bound", "-n", "5"], capsys)
    assert code == 2


MISSING_ARGUMENT = [
    (["--macaulay", "-n", "3"], "--degrees"),
    (["--semiregular", "-n", "10"], "--degrees"),
    (["--closed-form", "-n", "10"], "-m"),
    (["--aci", "-n", "9"], "--degrees"),
    (["--larger-m", "-n", "7"], "-d"),
    (["--inhomogeneous", "-n", "6", "--degrees", "2,2,2,2,2,2,2"], "-m"),
    (["--egh", "-n", "10"], "-m"),
    (["--egh-inhomog", "-n", "10"], "-m"),
    (["--weil", "-n", "2", "-d", "3"], "--ell"),
    (["--weil-inhomog", "-n", "2", "--ell", "15"], "-d"),
]


@pytest.mark.parametrize("args, flag", MISSING_ARGUMENT,
                         ids=[args[0] for args, _ in MISSING_ARGUMENT])
def test_bound_missing_argument_exit_2(args, flag, capsys):
    code, out, err = run_cli(["bound"] + args, capsys)
    assert code == 2 and out == ""
    assert f"bound {args[0]} needs {flag}" in err


def test_bound_domain_error_exit_2(capsys):
    code, _, err = run_cli(
        ["bound", "--macaulay", "-n", "5", "--degrees", "2,2"], capsys
    )
    assert code == 2 and "equations" in err


@pytest.mark.parametrize("args", [
    ["-n", "0", "-m", "2", "-d", "2"],   # all quadrics: the fast path
    ["-n", "-2", "-m", "2", "-d", "2"],
    ["-n", "0", "-m", "1", "-d", "3"],   # the generic series
], ids=["quadrics-n0", "quadrics-n-2", "cubic-n0"])
def test_bound_semiregular_without_variables_exit_2(args, capsys):
    code, out, err = run_cli(["bound", "--semiregular"] + args, capsys)
    assert code == 2 and out == ""
    assert "need at least one variable" in err


def test_solve_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    assert "solving degree: 5" in out
    assert "y + 6" in out and "x^4 + 6" in out
    # "-" reads the system from standard input.
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(GAP_TEXT.encode())))
    assert run_cli(["solve", "-"], capsys) == (0, out, "")


def test_solve_json_deterministic(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out1, _ = run_cli(["solve", str(path), "--json"], capsys)
    code2, out2, _ = run_cli(["solve", str(path), "--json"], capsys)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["solving_degree"] == 5
    assert doc["result"]["basis"] == ["y + 6", "x^4 + 6"]
    assert "input_sha256" in doc
    assert doc["result"]["trace"][0]["degree"] == 4


def test_solve_cap_exit_1(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, _, err = run_cli(["solve", str(path), "--max-degree", "4"], capsys)
    assert code == 1
    # A reached deadline exits 1 as well; with --json the error is a
    # document on standard error.
    code, out, err = run_cli(
        ["solve", str(path), "--timeout-secs", "0", "--json"], capsys)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["exit_code"] == 1 and "timed out" in doc["error"]
    assert doc["tool"] == "solvdeg" and "version" in doc


@pytest.mark.parametrize("flag", ["--max-degree", "--apriori"])
def test_solve_cap_below_input_degree_exit_2(flag, tmp_path, capsys):
    # Either stop rule below the input degree 4 is a usage error.
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, err = run_cli(["solve", str(path), flag, "3"], capsys)
    assert code == 2 and out == ""
    assert "below the largest input degree" in err


def test_internal_error_does_not_exit_2(tmp_path, capsys, monkeypatch):
    # A broken invariant inside the solver is a bug, not bad input: it
    # must not exit 2.  Swapping each back-substitution entry's row and
    # dependency makes every entry point above its row; every degree,
    # however small, takes known pivots.
    back_substitute = linalg._back_substitute

    def reversed_entries(X, rows, deps, coeffs, p):
        back_substitute(X, deps, rows, coeffs, p)

    monkeypatch.setattr(linalg, "_back_substitute", reversed_entries)
    monkeypatch.setattr(macaulay, "_SPLIT_ROWS", 0)
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    with pytest.raises(RuntimeError, match="at or above"):
        main(["solve", str(path)])


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("field 4\nvars x\nx\n")
    code, _, err = run_cli(["solve", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("field 7\nvars x\nx**2\n", "line 3, column 0: empty factor"),
    ("field 7\nvars x\nx + + 1\n", "line 3, column 3: missing term"),
    ("field seven\nvars x\nx\n", "line 1, column 0: bad field 'seven'"),
    ("field 7\nx\n", "line 2, column 0: expected 'vars a,b,...'"),
    ("field 7\nvars ,\nx\n", "line 2, column 0: no variables given"),
], ids=["empty-factor", "missing-term", "bad-field", "no-vars-line",
        "no-variables"])
def test_parse_errors_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"solvdeg: {message}\n"


def test_analyze_cli(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, _ = run_cli(["analyze", str(path), "--json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["d_reg"] == 4
    assert doc["result"]["t_nonzerodivisor"] is False
    assert doc["result"]["hilbert_function"] == [1, 2, 2, 1, 0]


def test_analyze_timeout_zero_exit_1(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, err = run_cli(["analyze", str(path), "--timeout-secs", "0"],
                             capsys)
    assert code == 1 and out == ""
    assert "deadline" in err


def test_analyze_unit_ideal(tmp_path, capsys):
    # A nonzero constant generates the unit ideal: HF(0) = 0, which is
    # also the prediction prod(1 - z^d_i) / (1 - z)^n with a d_i = 0.
    path = tmp_path / "unit.sys"
    path.write_text("field 7\nvars x,y\n3\nx\n")
    code, out, _ = run_cli(["analyze", str(path), "--json"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["d_reg"] == 0
    assert result["hilbert_function"] == [0]
    assert result["crypto_semiregular"] is True
    # The series bound itself still rejects degree 0.
    code, out, err = run_cli(
        ["bound", "--semiregular", "-n", "2", "--degrees", "0,1"], capsys)
    assert code == 2 and "degrees must be >= 1" in err


def test_table_cli(capsys):
    code, out, _ = run_cli(
        ["table", "--k-min", "2", "--k-max", "3", "--n-min", "2",
         "--n-max", "5"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k/n\t2\t3\t4\t5"
    assert lines[1] == "2\t2\t3\t3\t3"
    assert lines[2] == "3\t2\t2\t3\t3"


def test_table_out_file(tmp_path, capsys):
    args = ["table", "--k-min", "2", "--k-max", "3", "--n-min", "2",
            "--n-max", "5"]
    _, tsv, _ = run_cli(args, capsys)
    target = tmp_path / "table.tsv"
    code, out, _ = run_cli(args + ["--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == tsv


def test_gen_random_out_file(tmp_path, capsys):
    target = tmp_path / "random.sys"
    code, out, _ = run_cli(
        ["gen-random", "-m", "4", "-n", "3", "-p", "7", "--seed", "42",
         "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    F = parse_system(target.read_text())
    assert F == random_system(7, 3, [2] * 4, 42)


def test_gen_random_reproducible(capsys):
    args = ["gen-random", "-m", "4", "-n", "3", "-p", "7", "-d", "2",
            "--seed", "42"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    F = parse_system(out1)
    assert len(F.polys) == 4 and F.ring.n == 3


def test_gen_random_homogeneous(capsys):
    args = ["gen-random", "-m", "3", "-n", "2", "-p", "101", "-d", "2",
            "--seed", "7", "--homogeneous"]
    _, out, _ = run_cli(args, capsys)
    F = parse_system(out)
    assert F.is_homogeneous


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["bound", "--egh", "-m", "10", "-n", "10", "--json",
         "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["value"] == 11


def test_verify_paper_fast(capsys):
    code, out, _ = run_cli(["verify-paper", "--fast"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("[PASS] ") for line in lines)
    assert len(lines) == sum(not c.slow for c in CLAIMS)
    assert len({c.name for c in CLAIMS}) == len(CLAIMS)


def test_verify_paper_failing_claim_exit_1(monkeypatch, capsys):
    # One failing claim among passing ones fails the run, and its line
    # says what it got.
    claims = (Claim("one is one", lambda: 1, 1),
              Claim("one and one make three", lambda: 1 + 1, 3))
    monkeypatch.setattr(verify, "CLAIMS", claims)
    code, out, _ = run_cli(["verify-paper", "--fast"], capsys)
    assert code == 1
    passed, failed = out.splitlines()
    assert passed.startswith("[PASS] one is one (")
    assert failed.startswith("[FAIL] one and one make three (")
    assert failed.endswith("  (got 2, expected 3)")


def test_verify_paper_json(capsys):
    code, out, _ = run_cli(["verify-paper", "--fast", "--json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["command"] == "verify-paper"
    claims = doc["result"]["claims"]
    assert [c["name"] for c in claims] == [c.name for c in CLAIMS
                                           if not c.slow]
    assert all(c["passed"] and c["seconds"] >= 0 for c in claims)


def test_gen_random_rejects_timeout_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-random", "-m", "2", "-n", "2", "-p", "7", "--seed", "1",
              "--timeout-secs", "1"])
    assert exc.value.code == 2


def test_solve_apriori_flag(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, _ = run_cli(
        ["solve", str(path), "--apriori", "6", "--json"], capsys
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["stop_reason"] == "apriori_bound"
    assert doc["result"]["solving_degree"] == 6


def test_solve_apriori_with_max_degree_exit_2(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, err = run_cli(
        ["solve", str(path), "--apriori", "7", "--max-degree", "4"], capsys
    )
    assert code == 2 and out == ""
    assert "not both" in err


def test_gen_random_degrees_list(capsys):
    args = ["gen-random", "-m", "3", "-n", "2", "-p", "7",
            "--degrees", "2,3,4", "--seed", "5"]
    code, out, _ = run_cli(args, capsys)
    F = parse_system(out)
    assert code == 0
    assert sorted(f.degree for f in F.polys) == [2, 3, 4]


def test_report_document_schema(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    cases = [
        (["bound", "--egh", "-m", "10", "-n", "10", "--json"],
         {"tool", "version", "command", "result"}),
        (["solve", str(path), "--json"],
         {"tool", "version", "command", "result", "input_sha256"}),
        (["analyze", str(path), "--json"],
         {"tool", "version", "command", "result", "input_sha256"}),
        (["table", "--k-max", "3", "--n-max", "3", "--json"],
         {"tool", "version", "command", "result"}),
    ]
    for args, keys in cases:
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc.keys()) == keys, args
        assert doc["tool"] == "solvdeg"


def test_analyze_no_groebner(tmp_path, capsys):
    path = tmp_path / "gap.sys"
    path.write_text(GAP_TEXT)
    code, out, _ = run_cli(["analyze", str(path), "--no-groebner", "--json"],
                           capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["max_groebner_degree"] is None
    assert doc["result"]["d_reg"] == 4
