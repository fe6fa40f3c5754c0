"""Smoke tests of the comparison tools that the parity claims rest on."""

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
    result = _side_by_side("hypermap.psi_inverse(hypermap.psi(perm.Permutation((2, 3, 1))))")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and "b/a min" in lines[0]


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
