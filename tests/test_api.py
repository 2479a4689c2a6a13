"""The package's public names."""

import ryser

PUBLIC = [
    "__version__",
    "FiniteField",
    "ProjectivePlane",
    "bruck_ryser_excluded",
    "build_plane",
    "truncate",
    "PartiteHypergraph",
    "degree_stats",
    "is_intersecting",
    "read_rhg",
    "write_rhg",
    "CoverResult",
    "MatchingResult",
    "cover_number",
    "matching_number",
    "verify_ryser_ratio",
    "ConstructionSpec",
    "DegreeProfile",
    "build_extension",
    "extract_pair_subhypergraph",
    "profile_count",
    "select_f_by_profile",
    "select_f_default",
    "uniformize",
    "validate_spec",
    "classify_extensions",
    "degree_fingerprint",
    "exact_isomorphic",
    "maximal_closure_description",
    "minimize",
]

# independent oracles that only the tests call; they live in tests/oracles.py
ORACLES = [
    "brute_force_cover_oracle",
    "enumerate_candidates_brute",
    "intersection_size_profile",
    "cover_mirror",
]


def test_public_names_are_pinned():
    assert ryser.__all__ == PUBLIC
    assert all(hasattr(ryser, name) for name in PUBLIC)


def test_no_module_of_the_package_defines_a_test_oracle():
    modules = [ryser, ryser.analysis, ryser.construct, ryser.hypergraph, ryser.solver]
    assert [(m.__name__, name) for m in modules for name in ORACLES if hasattr(m, name)] == []
