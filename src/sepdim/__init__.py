"""Pairwise-suitable permutation families and separation dimension of graphs."""

from .exact import (
    ExactSearchResult,
    SearchBudgetExceeded,
    exact_separation_dimension,
)
from .families import (
    PermutationFamily,
    SeparationWitness,
    family_from_json,
    family_to_json,
    separates,
    verify_k_suitable,
    verify_pairwise_suitable,
    verify_pairwise_suitable_sampled,
)
from .graphs import (
    DegeneracyOrder,
    Graph,
    GraphFormatError,
    check_star_forest,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    load_graph,
    serialize_graph,
    star_forest_decomposition,
    subdivide,
    subdivision_mids,
)
from .lowerbound import (
    HarnessReport,
    MonotoneSubsetResult,
    common_monotone_subset,
    extract_realizer,
    extraction_floor,
    lower_bound_harness,
    normalize_lower_bound_family,
)
from .posets import (
    IntervalOrder,
    Poset,
    PosetDimensionResult,
    canonical_interval_order,
    exact_poset_dimension,
    height,
    interval_order_from,
    is_linear_extension,
    is_realizer,
    realizer_heuristic,
)
from .starcover import (
    DegenerateCoverResult,
    certify_star_cover,
    construct_sigma,
    degenerate_family,
    random_k_degenerate_graph,
)
from .subdivided import (
    SubdividedBoundResult,
    colored_subdivision_family,
    interval_height,
    subdivision_family,
)
from .suitable3 import (
    Suitable3Result,
    build_3_suitable_for,
    certify_3_suitable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
