"""The benchmark's checker still accepts real outputs and rejects
corrupted ones, and every function it probes by name still exists, so
it cannot rot between benchmark runs."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SELFTEST = BENCHMARKS / "selftest.py"


def test_benchmark_selftest(child_env):
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _literal(path: Path, name: str):
    """The literal assigned to module-level ``name`` in ``path``, read
    without importing the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_probe_targets_exist():
    # a traced benchmark run looks each of these up by name: a FUNCTIONS
    # entry that is gone fails only that run, and a CLI_CALLS entry that
    # is gone is left untraced without a word
    for dotted in _literal(BENCHMARKS / "run.py", "FUNCTIONS"):
        module, *attrs = dotted.split(".")
        target = importlib.import_module(f"permaps.{module}")
        for attr in attrs:
            assert hasattr(target, attr), dotted
            target = getattr(target, attr)
    cli = importlib.import_module("permaps.cli")
    calls = _literal(BENCHMARKS / "child.py", "CLI_CALLS")
    assert [name for name in calls if not hasattr(cli, name)] == []
