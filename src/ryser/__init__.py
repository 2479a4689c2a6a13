"""Exact construction and verification toolkit for Ryser-extremal
intersecting partite hypergraphs: finite fields, projective planes and
their truncations, the anchored extension construction, an exhaustive
cover/matching solver with certificates, and analysis utilities."""

__version__ = "0.1.0"

from .gf import FiniteField
from .plane import ProjectivePlane, bruck_ryser_excluded, build_plane, truncate
from .hypergraph import (
    PartiteHypergraph,
    degree_stats,
    is_intersecting,
    read_rhg,
    write_rhg,
)
from .solver import (
    CoverResult,
    MatchingResult,
    cover_number,
    matching_number,
    verify_ryser_ratio,
)
from .construct import (
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    extract_pair_subhypergraph,
    profile_count,
    select_f_by_profile,
    select_f_default,
    uniformize,
    validate_spec,
)
from .analysis import (
    classify_extensions,
    degree_fingerprint,
    exact_isomorphic,
    maximal_closure_description,
    minimize,
)

__all__ = [
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
