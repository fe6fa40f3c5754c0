"""Exact combinatorics of indecomposable permutations, rooted hypermaps
and labeled Dyck paths: counting sequences and polynomial families with
integer/rational arithmetic throughout, the size-preserving bijections
tying the three families together, and an exhaustive small-size
verification suite.

The namespace is ``__version__`` plus every submodule's ``__all__``.
Submodules load on first use (PEP 562): ``import permaps`` imports none
of them, ``permaps.<submodule>`` imports that one, and any other public
name imports the one submodule that ``_PUBLIC`` lists it under.
``_PUBLIC`` repeats each submodule's ``__all__`` so that no name needs
a search; ``tests/test_namespace.py`` checks the two against each other.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_PUBLIC = {
    "errors": "PermapsError ParseError NotABijection SizeMismatch EmptyInput NotTransitive "
    "Decomposable SizeTooSmall NotFpf InvalidPath InvalidLabeling PlacementOutOfRange "
    "InternalMismatch LimitExceeded",
    "perm": "Permutation CycleForm identity parse_permutation format_permutation "
    "format_cycles compose inverse cycles from_cycles lr_maxima rl_minima "
    "is_indecomposable blocks concat_blocks fundamental_transform "
    "fundamental_transform_inverse conjugate",
    "hypermap": "PermPair Hypermap is_transitive psi satisfies_lemma1 canonical_rooted_form "
    "psi_inverse rooted_isomorphic phi_bijection hypermap_to_text hypermap_from_text "
    "hypermap_to_json_dict hypermap_from_json_dict",
    "dyck": "DELTA RV LabeledDyckPath validate_dyck is_primitive validate_labeling delta "
    "delta_inverse convert_label_scheme enum_dyck_paths enum_labelings "
    "count_labelings parse_labeled_path format_labeled_path",
    "enumpoly": "BivariatePoly SeriesInZ double_factorial_odd stirling_poly stirling_number "
    "c_count c_count_by_cycles c_poly i_count L_of_path L_family M_of_path M_family "
    "joint_perm_poly transitive_probability arques_beraud_check",
    "maps": "RootedMap is_fpf_involution psi_prime psi_prime_inverse map_count "
    "map_count_by_vertices map_to_json_dict",
    "oracle": "enum_permutations enum_fpf_involutions DistributionTable joint_distribution "
    "count_transitive_pairs hypermap_census CheckResult VerifyReport FAULTS verify_suite",
}
_OWNER = {name: sub for sub, names in _PUBLIC.items() for name in names.split()}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _PUBLIC:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_OWNER[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
