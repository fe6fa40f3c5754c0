"""Self-test of the benchmark's checker and generator, at tiny sizes.

    python3 benchmarks/selftest.py

Real program outputs must pass the checker, and corrupted ones must not:
a polynomial with one coefficient changed, a bijection result that does
not round-trip, and a verify report whose failing check is the wrong one.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from permaps.cli import dispatch  # noqa: E402
from run import check_cold  # noqa: E402

REF = check.Reference()


def cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, buf.getvalue()


def rejects(fn, *args) -> bool:
    """The checker refuses the output, by reason or as unreadable."""
    try:
        return fn(*args) is not None
    except (ValueError, KeyError, TypeError, IndexError):
        return True


def test_reference_numbers() -> None:
    REF.grow(8)
    assert REF.c[1:8] == [1, 1, 3, 13, 71, 461, 3447]
    assert REF.i[1:6] == [1, 2, 10, 74, 706]
    assert REF.stirling[4] == [0, 6, 11, 6, 1]
    assert REF.triangle[4][1:4] == [6, 6, 1]


def test_real_outputs_pass() -> None:
    for argv in (
        ["poly", "L", "--n", "5"], ["poly", "Lprime", "--n", "5"], ["poly", "A", "--n", "6"],
        ["poly", "C", "--n", "6"], ["poly", "M", "--m", "4"], ["poly", "Mprime", "--m", "4"],
        ["table", "joint", "--max-n", "5"], ["table", "stirling-indec", "--max-n", "6"],
        ["count", "indecomposable", "--n", "7"], ["count", "maps", "--m", "3"],
        ["count", "stirling-indec", "--n", "6", "--k", "2"], ["prob", "transitive", "--n", "3"],
    ):
        formats = ("plain", "json") if argv[0] == "prob" else ("plain", "json", "csv")
        for fmt in formats:
            full = argv + ["--format", fmt]
            code, out = cli(*full)
            assert check_cold(REF, full, code, out) is None, full


def test_corrupted_polynomial_rejected() -> None:
    argv = ["poly", "Lprime", "--n", "5", "--format", "plain"]
    code, out = cli(*argv)
    assert out.startswith("x^4*y + ")
    bad = out.replace("x^4*y + ", "2*x^4*y + ", 1)
    assert "!=" in check_cold(REF, argv, code, bad)
    argv = ["table", "joint", "--max-n", "4", "--format", "json"]
    code, out = cli(*argv)
    rows = json.loads(out)
    rows[-1]["poly"][0]["c"] = str(int(rows[-1]["poly"][0]["c"]) + 1)
    assert rejects(check_cold, REF, argv, code, json.dumps(rows))
    argv = ["table", "stirling-indec", "--max-n", "5", "--format", "plain"]
    code, out = cli(*argv)
    assert rejects(check_cold, REF, argv, code, out.replace("5: 24", "5: 25"))


def _op(rng_seed: int, family: str, shape: str = "random") -> dict:
    for op in workloads.generate("bijection-batch", rng_seed, scale=0.06):
        if op["kind"] == family and op["shape"] == shape:
            return op
    raise AssertionError(f"no {family} op")


def test_bijection_round_trips_checked() -> None:
    for family in workloads.FAMILIES:
        shape = "many-cycles" if family == "psi-prime" else "many-maxima"
        op = _op(3, family, shape)
        result = child._round_trip(child.Tracer(False), op)
        assert check.check_bijection(family, op["input"], result) is None, family
        broken = dict(result, back=result["back"][1:] + result["back"][:1])
        assert "round trip" in check.check_bijection(family, op["input"], broken), family
    op = _op(3, "delta")
    result = child._round_trip(child.Tracer(False), op)
    word = list(result["path"])
    word[word.index("b0")] = "b1"
    assert check.check_bijection("delta", op["input"], dict(result, path=word)) is not None


def test_wrong_verify_report_rejected() -> None:
    base = ["verify", "--max-n", "4", "--pair-max-n", "3", "--fpf-max-size", "6"]
    for fmt in ("plain", "json"):
        code, out = cli(*base, "--format", fmt)
        assert check.check_verify(None, fmt, code, out) is None
        fcode, fout = cli(*base, "--inject-fault", workloads.FAULT, "--format", fmt)
        assert check.check_verify(workloads.FAULT, fmt, fcode, fout) is None
        assert rejects(check.check_verify, None, fmt, fcode, fout)
    rows = json.loads(fout)
    for row in rows:
        row["status"] = "fail" if row["check"] == "map-counts" else "pass"
    assert "failing checks ['map-counts']" in check.check_verify(workloads.FAULT, "json", 1, json.dumps(rows))
    code, out = cli(*base, "--format", "plain")
    assert rejects(check.check_verify, None, "plain", code, out.replace("PASS map-counts", "FAIL map-counts"))


def test_generator_is_seeded() -> None:
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 5, 0.2), workloads.generate(name, 5, 0.2)
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(workloads.generate(name, 6, 0.2))


def main() -> int:
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
