import doctest
from pathlib import Path

import permaps
import permaps.dyck
import permaps.enumpoly
import permaps.hypermap
import permaps.maps
import permaps.oracle
import permaps.perm


def test_doctests():
    total = 0
    for mod in (
        permaps,
        permaps.perm,
        permaps.hypermap,
        permaps.dyck,
        permaps.enumpoly,
        permaps.maps,
        permaps.oracle,
    ):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        total += result.attempted
    assert total > 0  # at least the permutation examples run


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0 and result.attempted > 0
