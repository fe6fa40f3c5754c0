import json
import subprocess
import sys
from pathlib import Path

import pytest

from permaps import enumpoly
from permaps.cli import dispatch
from permaps.enumpoly import BivariatePoly


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = dispatch(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


def test_worked_example_outputs(run):
    code, out, _ = run("bij", "omr", "--perm", "6,5,7,4,2,10,3,8,9,1")
    assert code == 0
    assert out == "sigma=(1,2)(3,4,5)(6,7,8,9);alpha=(1,6)(2,5)(3,7)(4)(8)(9)\n"

    code, out, _ = run("count", "indecomposable", "--n", "7")
    assert (code, out) == (0, "3447\n")

    code, out, _ = run("poly", "Mprime", "--m", "4")
    assert (code, out) == (0, "5*y^4 + 22*y^3 + 32*y^2 + 15*y\n")


def test_bijection_round_trips(run):
    _, text, _ = run("bij", "omr", "--perm", "6,5,7,4,2,10,3,8,9,1")
    sigma, alpha = text.strip().split(";")
    code, out, _ = run(
        "bij", "omr-inv",
        "--sigma", sigma.removeprefix("sigma="),
        "--alpha", alpha.removeprefix("alpha="),
    )
    assert (code, out) == (0, "6,5,7,4,2,10,3,8,9,1\n")

    _, out, _ = run("bij", "fft", "--perm", "4,7,2,1,3,6,5,9,8")
    assert out == "4,1,6,7,5,3,2,9,8\n"
    _, back, _ = run("bij", "fft-inv", "--perm", out.strip())
    assert back == "4,7,2,1,3,6,5,9,8\n"

    _, word, _ = run("bij", "delta", "--perm", "3,7,5,8,9,2,6,4,1")
    assert word == "a a a a b0 a a a b0 b1 a a b0 b4 b2 b1 b1 b1\n"
    _, back, _ = run("bij", "delta-inv", "--path", word.strip())
    assert back == "3,7,5,8,9,2,6,4,1\n"
    # labels are integers, zero padding included
    assert run("bij", "delta-inv", "--path", "a b00") == (0, "1\n", "")
    assert run("bij", "delta-inv", "--path", "a a b0 b01") == (0, "2,1\n", "")

    _, q, _ = run("bij", "phi", "--perm", "2,4,1,3")
    assert q == "4,3,2,1\n"
    _, back, _ = run("bij", "phi", "--perm", q.strip())
    assert back == "2,4,1,3\n"

    _, out, _ = run("bij", "psi-prime", "--perm", "4,3,2,1")
    assert out == "sigma=(1,2);alpha=(1,2)\n"


def test_json_outputs(run):
    code, out, _ = run("count", "indecomposable", "--n", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "indecomposable",
        "params": {"n": 7},
        "value": 3447,
    }

    _, out, _ = run("bij", "omr", "--perm", "2,3,1", "--format", "json")
    obj = json.loads(out)
    assert set(obj) == {"n", "sigma", "alpha"}

    _, out, _ = run("bij", "psi-prime", "--perm", "3,4,1,2", "--format", "json")
    assert json.loads(out)["is_map"] is True

    _, out, _ = run("bij", "delta", "--perm", "2,1", "--format", "json")
    assert json.loads(out) == {"path": ["a", "a", "b0", "b1"]}

    _, out, _ = run("poly", "C", "--n", "4", "--format", "json")
    obj = json.loads(out)
    assert obj["kind"] == "C" and obj["n"] == 4
    assert obj["poly"][0] == {"x": 3, "y": 0, "c": "1"}

    _, out, _ = run("prob", "transitive", "--n", "4", "--format", "json")
    assert json.loads(out)["value"] == "71/96"

    _, out, _ = run(
        "verify", "--max-n", "2", "--pair-max-n", "2", "--fpf-max-size", "4",
        "--format", "json",
    )
    rows = json.loads(out)
    assert len(rows) == 14 and all(r["status"] == "pass" for r in rows)


def test_csv_outputs(run):
    _, out, _ = run("count", "stirling-indec", "--n", "4", "--k", "2", "--format", "csv")
    assert out == "n,k,value\n4,2,6\n"

    _, out, _ = run("table", "stirling-indec", "--max-n", "4", "--format", "csv")
    assert out.splitlines() == ["n,k,value", "2,1,1", "3,1,2", "3,2,1", "4,1,6", "4,2,6", "4,3,1"]

    _, out, _ = run("poly", "C", "--n", "4", "--format", "csv")
    assert out.splitlines() == ["x,y,c", "3,0,1", "2,0,6", "1,0,6"]

    _, out, _ = run("table", "joint", "--max-n", "2", "--format", "csv")
    assert out.splitlines() == ["n,x,y,c", "1,1,1,1", "2,2,2,1", "2,1,1,1"]


def test_table_and_count_values(run):
    _, out, _ = run("table", "stirling-indec", "--max-n", "5")
    assert out.splitlines() == ["2: 1", "3: 2 1", "4: 6 6 1", "5: 24 34 12 1"]

    _, out, _ = run("table", "joint", "--max-n", "3")
    assert out.splitlines()[-1] == "3: x^3*y^3 + 2*x^2*y^2 + x^2*y + x*y^2 + x*y"

    assert run("count", "hypermaps", "--n", "3")[1] == "13\n"
    assert run("count", "hypermaps", "--n", "3", "--labeled")[1] == "26\n"
    assert run("count", "maps", "--m", "0")[1] == "1\n"
    assert run("count", "maps", "--m", "3")[1] == "74\n"
    assert run("prob", "transitive", "--n", "3")[1] == "13/18\n"
    assert run("prob", "transitive", "--n", "1")[1] == "1\n"


def test_domain_errors_exit_1(run):
    code, out, err = run("bij", "omr", "--perm", "1,2,3")
    assert code == 1 and out == "" and err.startswith("error:")
    assert run("bij", "omr", "--perm", "1,1,2")[0] == 1
    assert run("bij", "psi-prime", "--perm", "2,3,4,1")[0] == 1
    assert run("bij", "delta-inv", "--path", "a b1")[0] == 1
    assert run("bij", "omr-inv", "--sigma", "1,2", "--alpha", "1,2")[0] == 1
    assert run("poly", "A", "--n", "65")[0] == 1
    assert run("table", "joint", "--max-n", "65")[0] == 1
    assert run("count", "indecomposable", "--n", "0")[0] == 1
    assert run("verify", "--max-n", "9")[0] == 1


# a one-unit fault in entry 12 of each table that only the subtraction
# recurrence of the shared indecomposable step reads
_SUBTRACTION_FAULTS = {
    "_FACTORIALS": (enumpoly._factorial, 1),
    "_A": (enumpoly.stirling_poly, BivariatePoly.x()),
    "_DOUBLE_FACTORIALS": (enumpoly._double_factorial, 1),
}


@pytest.mark.parametrize(
    "table, argv, message",
    [
        ("_FACTORIALS", "count indecomposable --n 12", "c_12: 392743958 != 392743957"),
        ("_FACTORIALS", "count hypermaps --n 11", "c_12: 392743958 != 392743957"),
        ("_FACTORIALS", "prob transitive --n 11", "c_12: 392743958 != 392743957"),
        ("_A", "poly C --n 12", "C_12 recurrences disagree"),
        ("_A", "count stirling-indec --n 12 --k 3", "C_12 recurrences disagree"),
        ("_A", "table stirling-indec --max-n 12", "C_12 recurrences disagree"),
        ("_DOUBLE_FACTORIALS", "count maps --m 11", "i_12: 285764591115 != 285764591114"),
    ],
)
def test_second_derivation_catches_a_fault_in_the_first(run, fresh_tables, table, argv, message):
    # the command fails on the second derivation instead of printing a wrong number
    grow, unit = _SUBTRACTION_FAULTS[table]
    grow(12)
    entries = getattr(enumpoly, table)  # fresh_tables' copy, restored after the test
    entries[12] = entries[12] + unit
    assert run(*argv.split()) == (1, "", f"error: {message}\n")


def test_usage_errors_exit_2(run):
    assert run()[0] == 2
    assert run("count")[0] == 2
    assert run("count", "indecomposable")[0] == 2
    assert run("count", "indecomposable", "--n", "abc")[0] == 2
    assert run("no-such-command")[0] == 2
    assert run("bij", "omr", "--perm", "2,1", "--format", "csv")[0] == 2
    code, out, _ = run("--help")
    assert code == 0 and "subcommand" not in out  # help text prints, exits 0


def test_verify_cli(run):
    code, out, _ = run("verify", "--max-n", "3", "--pair-max-n", "3", "--fpf-max-size", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS indecomposable-count"
    assert lines[-1] == "all checks passed"

    code, out, _ = run(
        "verify", "--max-n", "3", "--pair-max-n", "3",
        "--inject-fault", "skip-canonicalization",
    )
    assert code == 1
    assert any(line.startswith("FAIL hypermap-census witness=") for line in out.splitlines())


def test_byte_stable(run):
    first = run("table", "joint", "--max-n", "4")
    second = run("table", "joint", "--max-n", "4")
    assert first == second
    a = run("verify", "--max-n", "2", "--pair-max-n", "2", "--fpf-max-size", "4", "--format", "json")
    b = run("verify", "--max-n", "2", "--pair-max-n", "2", "--fpf-max-size", "4", "--format", "json")
    assert a == b


def test_installed_entry_point(child_env):
    """The console script declared in pyproject.toml runs the CLI."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["permaps"]
    module, function = target.split(":")
    result = subprocess.run(
        [
            sys.executable, "-c", f"from {module} import {function}; {function}()",
            "count", "indecomposable", "--n", "5",
        ],
        capture_output=True, text=True, env=child_env,
    )
    assert result.returncode == 0 and result.stdout == "71\n"
