import os
from pathlib import Path

import pytest

import permaps
from permaps import enumpoly


@pytest.fixture()
def child_env():
    """Environment for a child interpreter that imports the same ``permaps`` as this one."""
    root = str(Path(permaps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# the append-only enumpoly tables, each with the number of seed entries it starts from
_TABLES = {
    "_FACTORIALS": 1, "_DOUBLE_FACTORIALS": 1, "_A": 1, "_C": 2, "_C_COUNTS": 2, "_I_COUNTS": 2,
    "_L": 1, "_M": 1, "_JOINT": 1,
}


@pytest.fixture
def fresh_tables(monkeypatch):
    """Counting tables cut back to their seeds for one test; calling the
    fixture's value cuts them back again.  The module's own tables return
    afterwards."""
    def reset():
        for name, seeds in _TABLES.items():
            monkeypatch.setattr(enumpoly, name, getattr(enumpoly, name)[:seeds])
    reset()
    return reset
