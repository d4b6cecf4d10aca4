"""Pairwise-suitable families for k-degenerate graphs via star forests.

The pipeline decomposes the graph into at most 2k spanning star forests,
builds one 3-suitable base family over the vertex-id universe (r
members: the exact minimum for n <= 6, else the Kleitman-Spencer lex-xor
base, 6 members at n = 17-1024 and 7 at 1025-32768), and then emits, per
star forest and base member, a block permutation and its block-reversed
twin.  Any disjoint edge pair is separated inside the family of the
forest owning one of the edges.

`certify_star_cover` checks a result against the premises of that
argument, in time linear in the family size, instead of checking every
disjoint edge pair: the forests cover the edges, the base is 3-suitable
(`suitable3.certify_3_suitable`), and every member is the block order
the argument describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .families import GROUP_WORDS, PermutationFamily
from .graphs import Graph, check_star_forest, star_forest_decomposition, degeneracy_order
from .suitable3 import Suitable3Result, build_3_suitable_for, certify_3_suitable


def _block_keys(roots: np.ndarray, base_ranks: np.ndarray) -> np.ndarray:
    """(s*2r, n) sort keys of the members of s star forests, stacked
    (s, n) roots or one forest as (n,), in family order, one distinct
    int64 per position: row 2(S*r + i) packs (ρ_i(root), is_root, ρ_i(v))
    and the next row, its twin's, (−ρ_i(root), is_root, ρ_i(v)), where
    ρ_i is row i of the (r, n) base rank matrix `base_ranks` and root is
    v's star root in forest S."""
    r, n = base_ranks.shape
    roots = roots.reshape(-1, n)
    within = (roots == np.arange(n))[:, None] * n + base_ranks  # 1..2n
    block = np.take(base_ranks, roots, axis=1).swapaxes(0, 1)
    block *= 2 * n + 1
    keys = np.empty((len(roots), r, 2, n), dtype=np.int64)
    np.add(block, within, out=keys[:, :, 0])
    np.subtract(within, block, out=keys[:, :, 1])
    return keys.reshape(-1, n)


def construct_sigma(roots: np.ndarray, base_ranks: np.ndarray) -> np.ndarray:
    """The 2r members of each of s star forests, as (s*2r, n) rows of
    positions in family order, from one argsort.

    `roots` holds s stacked star forests from `star_forest_decomposition`
    (the position of each vertex's star root), or one forest as (n,), and
    `base_ranks` the (r, n) rank matrix of the base family.  Row
    2(S*r + i) is the block permutation of base member i over forest S:
    stars form blocks ordered by the base rank of their root, the leaves
    of a block follow their own base rank and the root comes last.  The
    next row, its twin, reverses the block order.
    """
    return np.argsort(_block_keys(roots, base_ranks), axis=1)


def _forest_groups(s: int, r: int, n: int) -> range:
    """First forests of the groups that key, sort and check together: as
    many forests as fit GROUP_WORDS key cells, at least one."""
    return range(0, s, max(1, GROUP_WORDS // max(2 * r * n, 1)))


@dataclass(frozen=True)
class DegenerateCoverResult:
    """A star-cover family and what it was built from: the degeneracy k,
    the 3-suitable base and the (s, n) stacked root arrays of the star
    forests; member 2(S*r + i) and its twin come from forest S and base
    member i."""

    family: PermutationFamily
    degeneracy: int
    base: Suitable3Result
    roots: np.ndarray = field(compare=False)

    @property
    def forest_count(self) -> int:
        return self.roots.shape[0]

    @property
    def base_size(self) -> int:
        return len(self.base.family)


def degenerate_family(g: Graph) -> DegenerateCoverResult:
    """Pairwise-suitable family of size 2 * (#star forests) * r for g.

    r is the size of the 3-suitable base family over the vertex ids; the
    number of star forests is at most twice the degeneracy k, so the
    family has at most 4*k*r members.  The members are made one group of
    forests at a time (`_forest_groups`), one `construct_sigma` each.
    """
    d = degeneracy_order(g)
    n = g.num_vertices
    roots = star_forest_decomposition(g, d)
    roots.flags.writeable = False
    base = build_3_suitable_for(g.vertices)
    # the base family shares g's ground set, so its positions are g's
    ranks = base.family.rank_matrix
    per_forest = 2 * len(ranks)
    orders = np.empty((per_forest * len(roots), n), dtype=np.int64)
    groups = _forest_groups(len(roots), len(ranks), n)
    for S in groups:
        orders[S * per_forest:(S + groups.step) * per_forest] = construct_sigma(roots[S:S + groups.step], ranks)
    return DegenerateCoverResult(PermutationFamily(g.vertices, orders), d.k, base, roots)


def certify_star_cover(g: Graph, result: DegenerateCoverResult) -> None:
    """Raise AssertionError, naming the failed premise, unless `result`
    is a star-cover family of g whose pairwise suitability follows from
    the construction's proof.  O(s*r*n + m), one vectorised pass per
    group of star forests (`_forest_groups`), which names the first
    forest with a member out of its block order.

    Premises: base, the base is 3-suitable over g's positions
    (`certify_3_suitable`); cover, there are s <= 2k star forests, each
    a spanning star forest of g, whose leaf-root pairs cover E(g), and
    2*s*r members; members, member 2(S*r + i) lists the positions in
    strictly increasing (ρ_i(root), is_root, ρ_i(v)) and its twin in
    strictly increasing (−ρ_i(root), is_root, ρ_i(v)), roots of forest S.

    Why they imply pairwise suitability.  Take disjoint edges e, f.  By
    cover, e = ρℓ is a leaf-root pair of some forest S: ℓ a leaf of the
    star A rooted at ρ.  The members of S list each star as one block,
    its leaves in base order and its root last; the block order is the
    base order of the roots, reversed in the twin.
      f = xy outside A, in stars rooted at β_x and β_y (perhaps equal):
        3-suitability gives a base member with β_x and β_y (or β_x and
        any third position) before ρ, and its block permutation lists
        both blocks before A.
      x a leaf of A, y in another star rooted at β: a base member puts x
        before ℓ; in its block permutation or in the twin, whichever
        lists y's block first, x and y come before ℓ and the last of A,
        ρ.
      x and y both leaves of A: a base member puts x and y before ℓ, and
        ρ ends the block.
    In each case e and f are separated.  f cannot contain ρ or ℓ.
    """
    fam, base, roots = result.family, result.base, result.roots
    if fam.ground_set != g.vertices or base.family.ground_set != g.vertices:
        raise AssertionError("cover: the family or the base is not over the graph's vertices")
    certify_3_suitable(base)
    s, r = len(roots), len(base.family)
    if s > 2 * result.degeneracy or len(fam) != 2 * s * r:
        raise AssertionError(f"cover: {len(fam)} members from {s} star forests and {r} base "
                             f"members, not 2*s*r with s <= 2k = {2 * result.degeneracy}")
    try:
        covered = check_star_forest(g, roots)
    except ValueError as exc:
        raise AssertionError(f"cover: {exc}") from None
    if covered != g.num_edges:
        raise AssertionError("cover: an edge is a leaf-root pair of no star forest")
    ranks = base.family.rank_matrix
    groups = _forest_groups(s, r, g.num_vertices)
    for S in groups:
        rows = fam.orders[2 * S * r:2 * (S + groups.step) * r]
        keys = np.take_along_axis(_block_keys(roots[S:S + groups.step], ranks), rows, axis=1)
        ordered = (keys[:, 1:] > keys[:, :-1]).all(axis=1)
        if not ordered.all():
            bad = S + int(np.argmin(ordered)) // (2 * r)
            raise AssertionError(f"members: a member of star forest {bad} is not its block order")


def random_k_degenerate_graph(n: int, k: int, seed: int = 0) -> Graph:
    """Seeded k-degenerate test graph: vertex i joins up to k earlier ones."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    rng = random.Random(seed)
    edges = []
    for i in range(1, n):
        take = min(k, i)
        if take:
            count = rng.randint(1, take)
            for j in rng.sample(range(i), count):
                edges.append((j, i))
    return Graph.build(range(n), edges)
