"""The package namespace: every public name, and no private one."""

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
