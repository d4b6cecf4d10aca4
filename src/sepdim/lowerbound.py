"""Lower-bound extraction for subdivided cliques.

From any pairwise-suitable family of K_n^{1/2} one can pull a set X of
original vertices that every member orders the same way (up to
reversal), normalize the family so each mid vertex sits between its
endpoints, and read one linear extension of the canonical interval
order C_|X| off every member.  Pairwise suitability forces those
extensions to form a realizer, so the family size is at least
dim(C_|X|).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations

import numpy as np

from .exact import DEFAULT_BUDGET, SEARCH_VERTEX_MAX, exact_separation_dimension
from .families import PermutationFamily, verify_pairwise_suitable
from .graphs import Graph, make_edge, subdivide, subdivision_mids
from .posets import (
    SearchBudgetExceeded,
    canonical_interval_order,
    exact_poset_dimension,
    is_realizer,
)
from .subdivided import colored_subdivision_family


def longest_increasing_indices(seq: list[int]) -> list[int]:
    """Indices of one longest strictly increasing subsequence (patience sorting)."""
    tails: list[int] = []  # values of pile tops
    tail_idx: list[int] = []
    back: list[int] = [-1] * len(seq)
    for i, x in enumerate(seq):
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
            tail_idx.append(i)
        else:
            tails[j] = x
            tail_idx[j] = i
        back[i] = tail_idx[j - 1] if j else -1
    if not tail_idx:
        return []
    out = []
    i = tail_idx[-1]
    while i != -1:
        out.append(i)
        i = back[i]
    return out[::-1]


def longest_monotone_indices(seq: list[int]) -> tuple[list[int], int]:
    """Longest increasing or decreasing index set; ties favor increasing.

    Returns (indices, direction) with direction +1 for increasing.
    """
    inc = longest_increasing_indices(seq)
    dec = longest_increasing_indices([-x for x in seq])
    if len(inc) >= len(dec):
        return inc, 1
    return dec, -1


@dataclass(frozen=True)
class MonotoneSubsetResult:
    """Vertices ordered by the reference member; directions[i] is +1 when
    member i lists them in that order and -1 when it lists them reversed."""

    vertices: tuple[int, ...]
    directions: tuple[int, ...]


def common_monotone_subset(fam: PermutationFamily, target) -> MonotoneSubsetResult:
    """Subset of `target` that every member orders the same way or reversed.

    The first member fixes the reference order; each later member keeps a
    longest subsequence that it orders monotonely.
    """
    if not len(fam):
        raise ValueError("family must have at least one member")
    pos = {v: j for j, v in enumerate(fam.ground_set)}
    target = sorted(set(target))
    if any(v not in pos for v in target):
        raise ValueError("target is not contained in the ground set")
    ranks = fam.rank_matrix.tolist()
    current = sorted((pos[v] for v in target), key=ranks[0].__getitem__)
    directions = [1]
    for row in ranks[1:]:
        indices, direction = longest_monotone_indices([row[j] for j in current])
        current = [current[i] for i in indices]
        directions.append(direction)
    return MonotoneSubsetResult(tuple(fam.ground_set[j] for j in current), tuple(directions))


def best_monotone_subset(fam: PermutationFamily, target) -> MonotoneSubsetResult:
    """Largest extraction over member orderings (the greedy refinement is
    order-sensitive); deterministic tie-break by enumeration order.

    Beyond six members only cyclic rotations are tried.
    """
    r = len(fam)
    if not r:
        raise ValueError("family must have at least one member")
    if r <= 6:
        orderings = iter_permutations(range(r))
    else:
        orderings = (tuple(range(s, r)) + tuple(range(s)) for s in range(r))
    best: MonotoneSubsetResult | None = None
    for perm in orderings:
        reordered = PermutationFamily(fam.ground_set, fam.orders[list(perm)])
        result = common_monotone_subset(reordered, target)
        if best is None or len(result.vertices) > len(best.vertices):
            best, best_perm = result, perm
    # directions come in the reordered members' order; give them fam's
    directions = [0] * r
    for i, d in zip(best_perm, best.directions):
        directions[i] = d
    return MonotoneSubsetResult(best.vertices, tuple(directions))


def normalize_lower_bound_family(
    fam: PermutationFamily, g: Graph, subset: MonotoneSubsetResult
) -> PermutationFamily:
    """Reverse and relocate members of a family of g^{1/2} so mids sit
    between their endpoints.

    Members with direction -1 are reversed, so all of them list
    `subset.vertices` in the reference order, which is checked (ValueError
    otherwise); then each mid vertex of an edge inside the subset is
    moved next to the endpoint it strayed past.  The result is
    re-verified pairwise suitable; the relocation is safe for suitable
    families, so a failure here signals an implementation bug.
    """
    xs = subset.vertices
    mid_of = dict(zip(g.edges, subdivision_mids(g)))
    members = fam.id_orders()
    for order, direction in zip(members, subset.directions, strict=True):
        if direction < 0:
            order.reverse()
    index = {v: j for j, v in enumerate(fam.ground_set)}
    # each member's ranks of xs, negated where it was reversed: O(r * |X|)
    ranks = fam.rank_matrix[:, [index[x] for x in xs]] * np.array(subset.directions)[:, None]
    if (np.diff(ranks, axis=1) <= 0).any():
        raise ValueError("a member does not list the subset in the order its direction states")

    pairs = [
        (s, t) for s in range(len(xs)) for t in range(s + 1, len(xs))
        if make_edge(xs[s], xs[t]) in mid_of
    ]
    for order in members:
        for s, t in pairs:
            u = mid_of[make_edge(xs[s], xs[t])]
            iu = order.index(u)
            i_lo = order.index(xs[s])
            i_hi = order.index(xs[t])
            if iu > i_hi:
                order.pop(iu)
                order.insert(order.index(xs[t]), u)
            elif iu < i_lo:
                order.pop(iu)
                order.insert(order.index(xs[s]) + 1, u)

    normalized = PermutationFamily.build(fam.ground_set, members)
    witness = verify_pairwise_suitable(normalized, subdivide(g))
    if not witness.ok:
        raise AssertionError(f"normalization broke pairwise suitability: {witness}")
    return normalized


def extract_realizer(
    fam: PermutationFamily, g: Graph, xs: tuple[int, ...]
) -> tuple[tuple, ...]:
    """One linear extension of C_|xs| per member of a family of g^{1/2},
    ordered by mid ranks.

    For a normalized suitable family the extensions must reverse every
    incomparable pair, so the result is checked to be a realizer.
    """
    p = len(xs)
    cn = canonical_interval_order(p)

    pos = {v: j for j, v in enumerate(fam.ground_set)}
    mid_of = dict(zip(g.edges, subdivision_mids(g)))
    mids = [pos[mid_of[make_edge(xs[a - 1], xs[b - 1])]] for a, b in cn.intervals]
    realizer = tuple(
        tuple(cn.intervals[i] for i in row)
        for row in np.argsort(fam.rank_matrix[:, mids], axis=1).tolist()
    )
    if not is_realizer(realizer, cn.poset):
        raise AssertionError("extracted extensions do not realize the canonical order")
    return realizer


def extraction_floor(target_size: int, r: int) -> int:
    """Subset size that `common_monotone_subset` always reaches with r members.

    The first member keeps all f_1 = target_size vertices.  By
    Erdős–Szekeres every sequence of f distinct values has a monotone
    subsequence of ceil(sqrt(f)), so f_{j+1} = ceil(sqrt(f_j)).
    """
    if r < 1:
        raise ValueError("family size must be at least 1")
    if target_size < 1:
        raise ValueError("target size must be at least 1")
    f = target_size
    for _ in range(r - 1):
        f = math.isqrt(f - 1) + 1
    return f


def canonical_dimension_lower_bound(p: int) -> int:
    """ceil(log2 log2 (p-1)), the known dim(C_p) lower bound (0 for tiny p)."""
    if p < 3:
        return 1 if p == 2 else 0
    inner = math.log2(p - 1)
    if inner <= 1:
        return 1
    return max(1, math.ceil(math.log2(inner)))


@dataclass(frozen=True)
class HarnessReport:
    n: int
    pi: int | None
    exact: bool
    family: PermutationFamily | None
    subset: MonotoneSubsetResult | None
    floor: int | None
    floor_met: bool | None
    normalized: PermutationFamily | None
    realizer: tuple[tuple, ...] | None
    canonical_dimension: int | None
    canonical_lower_bound: int | None
    bound_holds: bool | None


def lower_bound_harness(n: int, budget: int = DEFAULT_BUDGET) -> HarnessReport:
    """Run the full extraction pipeline on K_n^{1/2}.

    The family is an exact-optimal one while K_n^{1/2}, with n + C(n, 2)
    vertices, is within `SEARCH_VERTEX_MAX` (10 vertices at n = 4, 15 at
    n = 5).  Above that the coloring construction, verified here, is
    used instead (construction-only mode).  Every family meets the floor:
    `extraction_floor` is what the extraction is guaranteed to keep.
    """
    if n < 1:
        raise ValueError("n must be positive")

    kn = Graph.from_edges(combinations(range(1, n + 1), 2), isolated=range(1, n + 1))
    if n + math.comb(n, 2) <= SEARCH_VERTEX_MAX:
        result = exact_separation_dimension(subdivide(kn), limit=6, budget=budget)
        family, pi, exact = result.witness, result.dimension, True
    else:
        built = colored_subdivision_family(kn)
        witness = verify_pairwise_suitable(built.family, built.subdivided)
        if not witness.ok:
            raise AssertionError(f"subdivision family failed verification: {witness}")
        family, pi, exact = built.family, None, False

    if not family:
        return HarnessReport(
            n, pi, exact, family, None, None, None, None, None, None, None, None
        )

    subset = best_monotone_subset(family, kn.vertices)
    floor = extraction_floor(n, len(family))
    floor_met = len(subset.vertices) >= floor
    normalized = normalize_lower_bound_family(family, kn, subset)
    realizer = extract_realizer(normalized, kn, subset.vertices)
    p = len(subset.vertices)
    dim_cp = None
    if p <= 7:
        try:
            dim_res = exact_poset_dimension(canonical_interval_order(p).poset, limit=4)
            dim_cp = dim_res.dimension
        except SearchBudgetExceeded:
            dim_cp = None
    lower = canonical_dimension_lower_bound(p)
    reference = dim_cp if dim_cp is not None else lower
    bound_holds = None if reference is None else len(family) >= reference
    return HarnessReport(
        n, pi, exact, family, subset, floor, floor_met,
        normalized, realizer, dim_cp, lower, bound_holds,
    )
