"""The package namespace: every public name, and no private one, resolved
lazily, so that a command imports only the modules it runs."""

import ast
import importlib
import subprocess
import sys

import pytest

import permaps

PUBLIC = {
    "__version__",
    # errors
    "PermapsError", "ParseError", "NotABijection", "SizeMismatch", "EmptyInput",
    "NotTransitive", "Decomposable", "SizeTooSmall", "NotFpf", "InvalidPath",
    "InvalidLabeling", "PlacementOutOfRange", "InternalMismatch", "LimitExceeded",
    # perm
    "Permutation", "CycleForm", "identity", "parse_permutation", "format_permutation",
    "format_cycles", "compose", "inverse", "cycles", "from_cycles", "lr_maxima",
    "rl_minima", "is_indecomposable", "blocks", "concat_blocks",
    "fundamental_transform", "fundamental_transform_inverse", "conjugate",
    # hypermap
    "PermPair", "Hypermap", "is_transitive", "psi", "satisfies_lemma1",
    "canonical_rooted_form", "psi_inverse", "rooted_isomorphic", "phi_bijection",
    "hypermap_to_text", "hypermap_from_text", "hypermap_to_json_dict",
    "hypermap_from_json_dict",
    # dyck
    "DELTA", "RV", "LabeledDyckPath", "validate_dyck", "is_primitive",
    "validate_labeling", "delta", "delta_inverse", "convert_label_scheme",
    "enum_dyck_paths", "enum_labelings", "count_labelings", "parse_labeled_path",
    "format_labeled_path",
    # enumpoly
    "BivariatePoly", "SeriesInZ", "stirling_number", "stirling_poly", "c_count",
    "c_count_by_cycles", "c_poly", "i_count", "double_factorial_odd", "L_family",
    "M_family", "L_of_path", "M_of_path", "joint_perm_poly", "transitive_probability",
    "arques_beraud_check",
    # maps
    "RootedMap", "is_fpf_involution", "psi_prime", "psi_prime_inverse", "map_count",
    "map_count_by_vertices", "map_to_json_dict",
    # oracle
    "enum_permutations", "enum_fpf_involutions", "DistributionTable",
    "joint_distribution", "count_transitive_pairs", "hypermap_census", "CheckResult",
    "VerifyReport", "FAULTS", "verify_suite",
}


def test_namespace_is_the_public_names():
    assert len(permaps.__all__) == len(set(permaps.__all__))
    assert set(permaps.__all__) == PUBLIC
    # the trusted constructors stay private to the package
    assert "_perm" not in permaps.__all__ and "_hypermap" not in permaps.__all__
    assert not hasattr(permaps, "_perm") and not hasattr(permaps, "_hypermap")


def test_owner_map_is_each_submodules_all():
    for sub, names in permaps._PUBLIC.items():
        assert names.split() == list(importlib.import_module(f"permaps.{sub}").__all__)
    # no name is listed under two submodules
    assert len(permaps._OWNER) == sum(len(names.split()) for names in permaps._PUBLIC.values())


# --- what a fresh interpreter imports ------------------------------------------------

_COMPUTING = {"perm", "hypermap", "dyck", "enumpoly", "maps", "oracle"}


def _python(env, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


# ``python -m permaps ARGV`` through runpy, as ``-m`` runs it, then the
# names in sys.modules on stderr
_RUN_MAIN = (
    "import runpy, sys\n"
    "sys.argv[0] = 'permaps'\n"
    "try:\n"
    "    runpy.run_module('permaps', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(sorted(sys.modules), file=sys.stderr)\n"
)


def _loaded(env, *argv) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run the CLI on argv in a fresh interpreter; every module loaded then."""
    done = _python(env, "-c", _RUN_MAIN, *argv)
    return done, set(ast.literal_eval(done.stderr.splitlines()[-1]))


def _imported(env, *argv) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run the CLI on argv in a fresh interpreter; the submodules it imported."""
    done, loaded = _loaded(env, *argv)
    return done, {name.split(".", 1)[1] for name in loaded if name.startswith("permaps.")}


def test_import_loads_no_submodule(child_env):
    code = "import sys, permaps; print(sorted(m for m in sys.modules if m.startswith('permaps')))"
    assert _python(child_env, "-c", code).stdout == "['permaps']\n"


def test_a_name_loads_only_its_own_submodule(child_env):
    code = (
        "import sys, permaps\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('permaps'))\n"
        "print(hasattr(permaps, 'typo'), hasattr(permaps, 'cli'), loaded())\n"
        "permaps.L_family\n"
        "print(loaded())\n"
    )
    done = _python(child_env, "-c", code)
    assert done.stdout == (
        "False False ['permaps']\n['permaps', 'permaps.enumpoly', 'permaps.errors']\n"
    )
    # a bijection's submodule loads its layers below, and no counting code
    done = _python(child_env, "-c", code.replace("L_family", "psi_prime"))
    assert done.stdout == (
        "False False ['permaps']\n"
        "['permaps', 'permaps.errors', 'permaps.hypermap', 'permaps.maps', 'permaps.perm']\n"
    )


def test_poly_command_loads_only_what_it_runs(child_env):
    done, loaded = _imported(child_env, "poly", "A", "--n", "3")
    assert done.returncode == 0
    assert done.stdout == "x^3 + 3*x^2 + 2*x\n"
    assert loaded == {"cli", "errors", "enumpoly"}


def test_version_loads_no_computing_submodule(child_env):
    done, loaded = _imported(child_env, "--version")
    assert (done.returncode, done.stdout) == (0, f"permaps {permaps.__version__}\n")
    assert not loaded & _COMPUTING


def test_bij_and_verify_load_their_modules(child_env):
    done, loaded = _imported(child_env, "bij", "delta", "--perm", "3,7,5,8,9,2,6,4,1")
    assert (done.returncode, done.stdout) == (0, "a a a a b0 a a a b0 b1 a a b0 b4 b2 b1 b1 b1\n")
    assert loaded & _COMPUTING == {"perm", "dyck"}
    done, loaded = _imported(child_env, "bij", "psi-prime", "--perm", "3,5,1,6,2,4")
    assert (done.returncode, done.stdout) == (0, "sigma=(1)(2,3)(4);alpha=(1,3)(2,4)\n")
    assert loaded & _COMPUTING == {"perm", "hypermap", "maps"}
    argv = ["verify", "--max-n", "3", "--pair-max-n", "3", "--fpf-max-size", "4"]
    done, loaded = _imported(child_env, *argv, "--inject-fault", "skip-canonicalization")
    assert done.returncode == 1 and "FAIL" in done.stdout
    assert loaded >= _COMPUTING


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["verify", "--max-n", "3", "--pair-max-n", "2", "--fpf-max-size", "4"], 80),
        (["poly", "C", "--n", "5"], 70),
    ],
    ids=["verify", "poly"],
)
def test_commands_keep_to_their_import_budget(child_env, argv, budget):
    # counted beyond what a bare interpreter loads (site's imports vary by
    # install); dataclasses would bring inspect, and json serves JSON only
    bare = _python(child_env, "-c", "import sys; print(sorted(sys.modules))")
    bare = set(ast.literal_eval(bare.stdout))
    done, loaded = _loaded(child_env, *argv)
    extra = loaded - bare
    assert done.returncode == 0, done.stderr
    assert not extra & {"dataclasses", "inspect", "json"}
    assert len(extra) <= budget, sorted(extra)
    done, loaded = _loaded(child_env, *argv, "--format", "json")
    assert done.returncode == 0 and not loaded & {"dataclasses", "inspect"}


def test_star_import_and_dir_list_the_public_names(child_env):
    code = (
        "import permaps\n"
        "ns = {}\n"
        "exec('from permaps import *', ns)\n"
        "ns.pop('__builtins__')\n"
        "assert set(ns) == set(permaps.__all__), set(ns) ^ set(permaps.__all__)\n"
        "assert set(permaps.__all__) <= set(dir(permaps))\n"
        "print(len(permaps.__all__))\n"
    )
    done = _python(child_env, "-c", code)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{len(PUBLIC)}\n", "")
