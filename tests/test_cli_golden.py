"""The CLI's output, byte for byte.

Every subcommand runs in every format it accepts, together with the
README's ``$ permaps ...`` examples, domain errors (exit 1), usage errors
(exit 2) and the ``--help`` text of every group and subcommand.  Argv,
exit code, stdout and stderr of each case are compared with
``tests/data/cli_golden.json``.  The cases
run in-process through ``dispatch``; ``COLUMNS`` is pinned because
argparse wraps usage text to the terminal width.  The stdout of the
cases in ``DIGESTED`` (up to 5 MB of polynomial text) is stored as its
sha256 and byte length.

After an intended output change, rewrite the data file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from permaps.cli import _COMMANDS, dispatch

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_FORMATS = ("plain", "json", "csv")
_PERM_FORMATS = ("plain", "json")


def _in_formats(formats, *commands):
    return [[*argv, "--format", fmt] for argv in commands for fmt in formats]


DIGESTED = _in_formats(
    ("json",),
    ["poly", "L", "--n", "64"],
    ["poly", "Lprime", "--n", "64"],
    ["poly", "M", "--m", "64"],
    ["poly", "Mprime", "--m", "64"],
    ["table", "joint", "--max-n", "64"],
)

CASES = [
    # the README examples, as written there (verify at its default sizes takes seconds)
    ["count", "indecomposable", "--n", "7"],
    ["bij", "omr", "--perm", "6,5,7,4,2,10,3,8,9,1"],
    ["poly", "Mprime", "--m", "4"],
    ["table", "stirling-indec", "--max-n", "5"],
    ["prob", "transitive", "--n", "3"],
    *_in_formats(
        _FORMATS,
        ["count", "indecomposable", "--n", "7"],
        ["count", "indecomposable", "--n", "1"],
        ["count", "hypermaps", "--n", "3"],
        ["count", "hypermaps", "--n", "3", "--labeled"],
        ["count", "maps", "--m", "0"],
        ["count", "maps", "--m", "3"],
        ["count", "stirling-indec", "--n", "4", "--k", "2"],
        ["table", "stirling-indec", "--max-n", "2"],
        ["table", "stirling-indec", "--max-n", "5"],
        ["table", "joint", "--max-n", "1"],
        ["table", "joint", "--max-n", "3"],
        ["poly", "A", "--n", "0"],
        ["poly", "A", "--n", "4"],
        ["poly", "C", "--n", "1"],
        ["poly", "C", "--n", "4"],
        ["poly", "L", "--n", "3"],
        ["poly", "Lprime", "--n", "3"],
        ["poly", "M", "--m", "3"],
        ["poly", "Mprime", "--m", "4"],
    ),
    *_in_formats(
        _PERM_FORMATS,
        ["bij", "omr", "--perm", "6,5,7,4,2,10,3,8,9,1"],
        ["bij", "omr", "--perm", "2,3,1"],
        ["bij", "omr-inv", "--sigma", "(1,2)(3,4,5)(6,7,8,9)", "--alpha", "(1,6)(2,5)(3,7)(4)(8)(9)"],
        ["bij", "omr-inv", "--sigma", "2,1,3", "--alpha", "1,3,2"],
        ["bij", "fft", "--perm", "4,7,2,1,3,6,5,9,8"],
        ["bij", "fft-inv", "--perm", "4,1,6,7,5,3,2,9,8"],
        ["bij", "delta", "--perm", "3,7,5,8,9,2,6,4,1"],
        ["bij", "delta", "--perm", "2,1"],
        ["bij", "delta-inv", "--path", "a a a a b0 a a a b0 b1 a a b0 b4 b2 b1 b1 b1"],
        ["bij", "phi", "--perm", "2,4,1,3"],
        ["bij", "phi", "--perm", "4,3,2,1"],
        ["bij", "psi-prime", "--perm", "4,3,2,1"],
        ["bij", "psi-prime", "--perm", "3,4,1,2"],
        ["bij", "psi-prime", "--perm", "6,5,4,3,2,1"],
        ["prob", "transitive", "--n", "1"],
        ["prob", "transitive", "--n", "3"],
        ["prob", "transitive", "--n", "4"],
        ["verify", "--max-n", "3", "--pair-max-n", "3", "--fpf-max-size", "4"],
        ["verify", "--max-n", "4", "--pair-max-n", "4", "--fpf-max-size", "6"],
        ["verify", "--max-n", "3", "--pair-max-n", "3", "--fpf-max-size", "4",
         "--inject-fault", "skip-canonicalization"],
    ),
    # polynomial families above the sizes whose path sum is cross-checked
    *_in_formats(
        ("json",),
        ["poly", "L", "--n", "11"],
        ["poly", "Lprime", "--n", "16"],
        ["poly", "M", "--m", "10"],
        ["poly", "Mprime", "--m", "24"],
        ["table", "joint", "--max-n", "12"],
    ),
    # counting tables and the A, C polynomials at the largest sizes the CLI accepts
    *_in_formats(
        ("json",),
        ["poly", "A", "--n", "64"],
        ["poly", "C", "--n", "64"],
        ["table", "stirling-indec", "--max-n", "40"],
        ["count", "stirling-indec", "--n", "64", "--k", "3"],
        ["count", "stirling-indec", "--n", "64", "--k", "40"],
        ["count", "indecomposable", "--n", "64"],
        ["count", "hypermaps", "--n", "63", "--labeled"],
        ["count", "maps", "--m", "64"],
        ["prob", "transitive", "--n", "63"],
    ),
    # the path families and the joint table at the largest sizes the CLI accepts
    *DIGESTED,
    # verify at the sizes the benchmark runs, with and without the injected fault
    *_in_formats(
        _PERM_FORMATS,
        ["verify", "--max-n", "6", "--pair-max-n", "4", "--fpf-max-size", "10"],
    ),
    ["verify", "--max-n", "5", "--pair-max-n", "4", "--fpf-max-size", "8",
     "--inject-fault", "skip-canonicalization", "--format", "json"],
    # domain errors: exit 1, "error: ..." on stderr
    ["bij", "omr", "--perm", "1,2,3"],
    ["bij", "omr", "--perm", "1,2,3", "--format", "json"],
    ["bij", "omr", "--perm", "1,1,2"],
    ["bij", "omr", "--perm", "1"],
    ["bij", "omr", "--perm", "(1,2)"],
    ["bij", "omr-inv", "--sigma", "1,2", "--alpha", "1,2"],
    ["bij", "omr-inv", "--sigma", "1,2", "--alpha", "1,3,2"],
    ["bij", "omr-inv", "--sigma", "(1,2", "--alpha", "1,2"],
    ["bij", "omr-inv", "--sigma", "2,1", "--alpha", "x"],
    ["bij", "fft", "--perm", ""],
    ["bij", "fft", "--perm", "1," + "9" * 4301],
    ["bij", "fft-inv", "--perm", "0,1"],
    ["bij", "delta", "--perm", "2,2"],
    ["bij", "delta-inv", "--path", "a b1"],
    ["bij", "delta-inv", "--path", "a x"],
    ["bij", "delta-inv", "--path", "a ab"],
    ["bij", "phi", "--perm", "3,1"],
    ["bij", "psi-prime", "--perm", "2,3,4,1"],
    ["bij", "psi-prime", "--perm", "2,1,4,3"],
    ["bij", "psi-prime", "--perm", "2,1"],
    ["count", "indecomposable", "--n", "0"],
    ["count", "indecomposable", "--n", "65"],
    ["count", "hypermaps", "--n", "0", "--labeled"],
    ["count", "hypermaps", "--n", "65"],
    ["count", "maps", "--m", "-1"],
    ["count", "maps", "--m", "65"],
    ["count", "stirling-indec", "--n", "4", "--k", "4"],
    ["count", "stirling-indec", "--n", "1", "--k", "1"],
    ["count", "stirling-indec", "--n", "65", "--k", "1"],
    ["table", "stirling-indec", "--max-n", "1"],
    ["table", "stirling-indec", "--max-n", "65"],
    ["table", "joint", "--max-n", "0"],
    ["table", "joint", "--max-n", "65"],
    ["poly", "A", "--n", "-1"],
    ["poly", "A", "--n", "65"],
    ["poly", "C", "--n", "0"],
    ["poly", "L", "--n", "0"],
    ["poly", "Lprime", "--n", "65"],
    ["poly", "M", "--m", "0"],
    ["poly", "Mprime", "--m", "65", "--format", "json"],
    ["prob", "transitive", "--n", "0"],
    ["prob", "transitive", "--n", "65"],
    ["verify", "--max-n", "0"],
    ["verify", "--max-n", "9"],
    ["verify", "--pair-max-n", "6"],
    ["verify", "--fpf-max-size", "5"],
    # usage errors: exit 2, usage text on stderr
    [],
    ["count"],
    ["count", "indecomposable"],
    ["count", "indecomposable", "--n", "abc"],
    ["count", "indecomposable", "--n", "3", "--k", "2"],
    ["count", "stirling-indec", "--n", "4"],
    ["no-such-command"],
    ["table"],
    ["table", "joint", "--max-n", "2", "--format", "xml"],
    ["bij"],
    ["bij", "omr"],
    ["bij", "omr", "--perm", "2,1", "--format", "csv"],
    ["bij", "omr-inv", "--sigma", "2,1"],
    ["bij", "no-such-bijection", "--perm", "2,1"],
    ["poly"],
    ["poly", "X", "--n", "3"],
    ["poly", "M", "--n", "3"],
    ["prob", "transitive", "--n", "3", "--format", "csv"],
    ["verify", "--inject-fault", "nope"],
    ["verify", "--format", "csv"],
    # help texts: exit 0 on stdout
    ["--help"],
    ["count", "--help"],
    ["count", "indecomposable", "--help"],
    ["count", "hypermaps", "--help"],
    ["count", "maps", "--help"],
    ["count", "stirling-indec", "-h"],
    ["table", "--help"],
    ["table", "stirling-indec", "--help"],
    ["table", "joint", "--help"],
    ["bij", "--help"],
    ["bij", "omr", "--help"],
    ["bij", "omr-inv", "--help"],
    ["bij", "fft", "--help"],
    ["bij", "fft-inv", "--help"],
    ["bij", "delta", "--help"],
    ["bij", "delta-inv", "--help"],
    ["bij", "phi", "--help"],
    ["bij", "psi-prime", "--help"],
    ["poly", "--help"],
    ["poly", "A", "--help"],
    ["poly", "C", "--help"],
    ["poly", "L", "--help"],
    ["poly", "Lprime", "--help"],
    ["poly", "M", "--help"],
    ["poly", "Mprime", "--help"],
    ["prob", "--help"],
    ["prob", "transitive", "--help"],
    ["verify", "--help"],
]


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    case = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if argv in DIGESTED:
        stdout = case.pop("stdout").encode()
        case["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        case["stdout_bytes"] = len(stdout)
    return case


def test_cli_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(DATA.read_text())
    assert [case["argv"] for case in golden] == CASES
    for case in golden:
        assert run_case(case["argv"]) == case


def test_every_command_and_group_has_a_help_case():
    # so a new subcommand cannot land with its help and usage text unpinned
    helped = {tuple(argv[:-1]) for argv in CASES if argv[-1:] in (["--help"], ["-h"])}
    commands = {words for words, *_ in _COMMANDS}
    groups = {words[:-1] for words in commands}  # () is the top level
    assert (commands | groups) - helped == set()


def test_version(monkeypatch):
    # not in the data file, which pins the output from before --version;
    # the flag is kept out of --help and the usage line, so those stay pinned
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(["--version"]) == {
        "argv": ["--version"], "code": 0, "stdout": "permaps 0.1.0\n", "stderr": ""
    }


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    DATA.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1) + "\n")
