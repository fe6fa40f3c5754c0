"""Smoke tests of the comparison tools that the parity claims rest on."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _side_by_side(*args) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "side_by_side.py"), src, src, "--rounds", "1", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_side_by_side_times_equal_outputs():
    # a permutation, a Hypermap, a VerifyReport of CheckResults, a pair of
    # polynomials and a series in z: each side's values are its own
    # classes, so they compare by their fields or terms
    result = _side_by_side(
        "hypermap.psi_inverse(hypermap.psi(perm.Permutation((2, 3, 1))))",
        "hypermap.psi(perm.Permutation((2, 3, 1)))",
        "oracle.verify_suite(2, 2, 4)",
        "enumpoly.L_family(3)",
        "enumpoly.arques_beraud_check(2)",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 5 and all("b/a min" in line for line in lines)


def test_side_by_side_times_cold_commands():
    result = _side_by_side("--cold", "count", "indecomposable", "--n", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("permaps count indecomposable --n 3: a median ")
    assert result.stdout.endswith(" | b won 0/1\n") or result.stdout.endswith(" | b won 1/1\n")


def test_side_by_side_cold_keeps_bytecode_out_of_the_trees(tmp_path):
    # with bytecode writes on, every cold run still caches outside the tree
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "side_by_side.py"), str(src), str(src),
         "--rounds", "2", "--cold", "count", "indecomposable", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert not list(src.rglob("__pycache__"))


def test_side_by_side_stops_on_differing_outputs():
    # each side is its own package object
    result = _side_by_side("id(pm)")
    assert result.returncode != 0
    assert "outputs differ" in result.stderr


def test_replay_bijections_prints_one_ratio_line():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_bijections.py"), src, src,
         "--seeds", "1", "--passes", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ratios = [line for line in result.stdout.splitlines() if " b/a: " in line]
    assert len(ratios) == 1
    _, tail, family = ratios[0].split(" | ")
    label, *per_pass = tail.split()
    assert label == "tail" and len(per_pass) == 1 and float(per_pass[0]) > 0
    label, *pairs = family.split()
    names, values = pairs[::2], pairs[1::2]
    assert label == "family" and "delta" in names and len(names) == len(values)
    assert all(float(v) > 0 for v in values)
