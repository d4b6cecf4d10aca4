"""Lower-bound extraction for subdivided cliques.

From any pairwise-suitable family of K_n^{1/2} one can pull a set X of
original vertices that every member orders the same way (up to
reversal), normalize the family so each mid vertex sits between its
endpoints, and read one linear extension of the canonical interval
order C_|X| off every member.  Pairwise suitability forces those
extensions to form a realizer, so the family size is at least
dim(C_|X|).

X comes from one greedy pass over the members in family order, which
always keeps `extraction_floor` vertices.  No member ordering is
searched: on every harness input checked (n = 3-40, 64, 65, 100) no
ordering kept more than the greedy pass.  A search belongs here only
with an input on which it wins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exact import DEFAULT_BUDGET, SEARCH_VERTEX_MAX, exact_separation_dimension
from .families import PermutationFamily, verify_pairwise_suitable
from .graphs import Graph, make_edge, subdivide, subdivision_mids
from .posets import canonical_interval_order, exact_poset_dimension, is_realizer
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


def normalize_lower_bound_family(
    fam: PermutationFamily, g: Graph, subset: MonotoneSubsetResult
) -> PermutationFamily:
    """Reverse and relocate members of a family of g^{1/2} so mids sit
    between their endpoints.  A family over another ground set, or a
    subset vertex outside g, is refused with ValueError.

    Members with direction -1 are reversed, so all of them list
    `subset.vertices` in the reference order, which is checked (ValueError
    otherwise); then each mid vertex of an edge inside the subset is
    moved next to the endpoint it strayed past.  The result is
    re-verified pairwise suitable; the relocation is safe for suitable
    families, so a failure here signals an implementation bug.

    One sort does the whole pass: with (s, t) the k-th subset pair in
    lexicographic order, a mid after x_t sorts as (rank(x_t), -1, k), one
    before x_s as (rank(x_s), +1, -k), and every other vertex as (rank, 0,
    0): a later move lands nearer its endpoint than the earlier ones.
    """
    directions = np.array(subset.directions)
    if directions.shape != (len(fam),):
        raise ValueError("subset needs exactly one direction per family member")
    mid_of = _mid_of(fam, g, subset.vertices)
    index = {v: j for j, v in enumerate(fam.ground_set)}
    xs = [index[x] for x in subset.vertices]
    # ranks negated in reversed members, so every member lists xs increasingly
    ranks = fam.rank_matrix * directions[:, None]
    if (np.diff(ranks[:, xs], axis=1) <= 0).any():
        raise ValueError("a member does not list the subset in the order its direction states")

    pairs = [
        (a, b, index[mid_of[e]]) for (a, x), (b, y) in combinations(zip(xs, subset.vertices), 2)
        if (e := make_edge(x, y)) in mid_of
    ]
    lo, hi, mid = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    at = ranks[:, mid]
    tag = (at < ranks[:, lo]).astype(np.int64) - (at > ranks[:, hi])
    anchor, tags, ties = ranks.copy(), np.zeros_like(ranks), np.zeros_like(ranks)
    anchor[:, mid] = np.where(tag > 0, ranks[:, lo], np.where(tag < 0, ranks[:, hi], at))
    tags[:, mid] = tag
    ties[:, mid] = -tag * np.arange(len(pairs))

    normalized = PermutationFamily(fam.ground_set, np.lexsort((ties, tags, anchor)))
    witness = verify_pairwise_suitable(normalized, subdivide(g))
    if not witness.ok:
        raise AssertionError(f"normalization broke pairwise suitability: {witness}")
    return normalized


def extract_realizer(
    fam: PermutationFamily, g: Graph, xs: tuple[int, ...]
) -> tuple[tuple, ...]:
    """One linear extension of C_|xs| per member of a family of g^{1/2},
    ordered by mid ranks.  A family over another ground set, or a vertex
    of xs outside g, is refused with ValueError.

    For a normalized suitable family the extensions must reverse every
    incomparable pair, so the result is checked to be a realizer.
    """
    mid_of = _mid_of(fam, g, xs)
    cn = canonical_interval_order(len(xs))
    pos = {v: j for j, v in enumerate(fam.ground_set)}
    mids = [pos[mid_of[make_edge(xs[a - 1], xs[b - 1])]] for a, b in cn.elements]
    realizer = tuple(
        tuple(cn.elements[i] for i in row)
        for row in np.argsort(fam.rank_matrix[:, mids], axis=1).tolist()
    )
    if not is_realizer(realizer, cn):
        raise AssertionError("extracted extensions do not realize the canonical order")
    return realizer


def _mid_of(fam: PermutationFamily, g: Graph, vertices) -> dict:
    """{edge: its mid} of g, once `fam` is checked to be over g^{1/2}
    (g's vertices, then its mids) and `vertices` to be vertices of g."""
    mids = subdivision_mids(g)
    if fam.ground_set != g.vertices + tuple(mids):
        raise ValueError("family ground set is not the vertex set of g^(1/2)")
    if not set(vertices) <= set(g.vertices):
        raise ValueError("subset has a vertex outside the graph")
    return dict(zip(g.edges, mids))


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
    subset: MonotoneSubsetResult | None = None
    floor: int | None = None
    normalized: PermutationFamily | None = None
    realizer: tuple[tuple, ...] | None = None
    canonical_dimension: int | None = None
    canonical_lower_bound: int | None = None


def lower_bound_harness(n: int, budget: int = DEFAULT_BUDGET) -> HarnessReport:
    """Run the full extraction pipeline on K_n^{1/2}.

    The family is an exact-optimal one while K_n^{1/2}, with n + C(n, 2)
    vertices, is within `SEARCH_VERTEX_MAX` (10 vertices at n = 4, 15 at
    n = 5).  Above that the coloring construction is used, and checked
    only as the normalized family (construction-only mode).  Every family
    meets the floor, as `extraction_floor` is what the extraction keeps,
    and has at least dim(C_p) members (the log-log bound when p > 7).
    Both are asserted: a miss raises AssertionError naming the check, so
    every returned report meets both.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if budget < 0:
        raise ValueError("budget must be non-negative")

    kn = Graph.from_edges(combinations(range(1, n + 1), 2), isolated=range(1, n + 1))
    if n + math.comb(n, 2) <= SEARCH_VERTEX_MAX:
        result = exact_separation_dimension(subdivide(kn), limit=6, budget=budget)
        family, pi, exact = result.witness, result.dimension, True
    else:
        family, pi, exact = colored_subdivision_family(kn).family, None, False

    if not family:
        return HarnessReport(n, pi, exact, family)

    subset = common_monotone_subset(family, kn.vertices)
    p = len(subset.vertices)
    floor = extraction_floor(n, len(family))
    if p < floor:
        raise AssertionError(f"extraction floor: kept {p} vertices, below the floor {floor}")
    normalized = normalize_lower_bound_family(family, kn, subset)
    realizer = extract_realizer(normalized, kn, subset.vertices)
    dim_cp = None
    if p <= 7:  # C_7 takes 117 search nodes
        dim_cp = exact_poset_dimension(canonical_interval_order(p), limit=4).dimension
    lower = canonical_dimension_lower_bound(p)
    bound = lower if dim_cp is None else dim_cp
    if len(family) < bound:
        raise AssertionError(
            f"dimension bound: {len(family)} members, below the bound {bound} on dim(C_{p})"
        )
    return HarnessReport(n, pi, exact, family, subset, floor, normalized, realizer, dim_cp, lower)
