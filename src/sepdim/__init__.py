"""Pairwise-suitable permutation families and separation dimension of graphs."""

from .exact import (
    ExactSearchResult,
    SearchBudgetExceeded,
    exact_pi_subdivided_clique,
    exact_separation_dimension,
    randomized_family_search,
)
from .families import (
    Permutation,
    PermutationFamily,
    SeparationWitness,
    embedding_from_family,
    family_from_embedding,
    family_from_json,
    family_to_json,
    separates,
    verify_auto,
    verify_k_suitable,
    verify_pairwise_suitable,
    verify_pairwise_suitable_sampled,
)
from .graphs import (
    DegeneracyOrder,
    Graph,
    GraphFormatError,
    Star,
    StarForest,
    SubdivisionMap,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    load_graph,
    partition_into_forests,
    serialize_graph,
    star_forest_decomposition,
    subdivide,
)
from .lowerbound import (
    HarnessReport,
    MonotoneSubsetResult,
    best_monotone_subset,
    common_monotone_subset,
    extract_realizer,
    extraction_floor,
    lower_bound_harness,
    normalize_lower_bound_family,
)
from .posets import (
    DimensionBudgetExceeded,
    IntervalOrder,
    Poset,
    PosetDimensionResult,
    Realizer,
    canonical_interval_order,
    closed_canonical_isomorphism,
    exact_poset_dimension,
    height,
    interval_order_from,
    interval_order_from_json,
    interval_order_to_json,
    is_linear_extension,
    is_realizer,
    poset_from_json,
    poset_to_json,
    realizer_from_json,
    realizer_heuristic,
    realizer_to_json,
)
from .starcover import (
    DegenerateCoverResult,
    construct_sigma,
    degenerate_family,
    random_k_degenerate_graph,
    star_roots,
)
from .subdivided import (
    SubdividedBoundResult,
    colored_subdivision_family,
    interval_height,
    subdivision_family,
)
from .suitable3 import (
    Suitable3Result,
    build_3_suitable,
    build_3_suitable_for,
    exact_min_3_suitable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
