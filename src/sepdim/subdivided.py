"""Pairwise-suitable families for fully subdivided graphs.

A proper colouring of G lists its classes consecutively as the vertex
order σ.  A 3-suitable family F of class orders (the scrambling
permutations of `suitable3`, so |F| grows as log log χ) is lifted to
G^{1/2}: each class order gives one member that lists the classes in
that order, keeps σ order inside each class and puts every mid vertex
right after its later endpoint.  Two pinned members, which place each
mid right after its σ-left or right before its σ-right endpoint,
complete a family of |F| + 2 members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import PermutationFamily
from .graphs import (
    Graph,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    subdivide,
    subdivision_mids,
)
from .posets import edge_intervals
from .suitable3 import Suitable3Result, build_3_suitable_for


def subdivision_family(g: Graph, classes) -> tuple[PermutationFamily, Suitable3Result]:
    """Family of |F| + 2 permutations of V(g^{1/2}) from a proper colouring.

    `classes` partitions the vertices into independent sets; listing them
    in the given order (and each class in its given order) is σ.  F is
    the family of class orders: the single swapped order for two
    classes, else `build_3_suitable_for` over the class indices (empty
    for at most one class).  Returns the family and F; an edgeless graph
    has no disjoint edge pairs and gets the empty family.

    Members, each listing the originals with every mid next to one of
    its endpoints (its anchor):
      lift of π in F: classes in π order, σ order inside a class, each
        mid right after its π-later endpoint;
      after_left: σ order, each mid right after its σ-left endpoint,
        mids of one anchor by descending σ-rank of their other endpoint;
      before_right: σ order, each mid right before its σ-right
        endpoint, mids of one anchor by ascending σ-rank of the other.

    Why it is pairwise suitable.  A disjoint pair of G^{1/2} is (u, m_e),
    (w, m_f) with e = uu', f = ww', u != w and e != f; c is the colour.
    1. c(w) not in {c(u), c(u')}: the lift with c(w) after both puts u,
       u' and m_e before all of class c(w), and m_f after w.  The case
       c(u) not in {c(w), c(w')} is symmetric.
    2. c(u) = c(w) = X.  If u' and w' lie on the same side of X in σ,
       u and w anchor m_e and m_f in after_left (both after X) or in
       before_right (both before), so the two anchor blocks separate
       the pair.  Otherwise X, c(u'), c(w') are distinct, and the lift
       with X last anchors m_e at u and m_f at w.
    3. c(u) = c(w') = X and c(u') = c(w) = Y != X.  Swapping the two
       edges swaps X and Y, so let X come first in σ, and let L be the
       lift that puts Y before X (the swapped order for two classes).
       If u != w', after_left lists u, m_e ... m_f, w when u is σ-before
       w', and L lists w ... w', m_f ... u, m_e otherwise.  If u = w',
       after_left lists u, m_e, m_f ... w when u' is σ-after w, and
       before_right lists u ... m_e, u' ... m_f, w otherwise.
    Every case used a member of F that puts one class after one or two
    others, which a 3-suitable F has (and, for two classes, the swap).
    """
    n = g.num_vertices
    pos = {v: j for j, v in enumerate(g.vertices)}
    sigma = [pos.get(v, -1) for cls in classes for v in cls]
    if not all(map(len, classes)):
        raise ValueError("colour classes must be non-empty")
    if sorted(sigma) != list(range(n)):
        raise ValueError("colour classes do not cover exactly the graph's vertices")
    # σ-rank and colour of each original, by position in g.vertices
    rank = np.argsort(sigma)
    color = np.repeat(np.arange(len(classes)), list(map(len, classes)))[rank]
    ends = g.edge_positions
    if (color[ends[:, 0]] == color[ends[:, 1]]).any():
        raise ValueError("a colour class contains an edge")
    if len(classes) == 2:
        base = Suitable3Result(PermutationFamily((0, 1), np.array([[1, 0]])), "swap")
    else:
        base = build_3_suitable_for(range(len(classes)))
    # G^{1/2} lists the originals, then the mid of g.edges[i] at position n + i
    ground = g.vertices + tuple(subdivision_mids(g))
    if not g.num_edges:
        return PermutationFamily.build(ground, ()), base

    left, right = np.take_along_axis(ends, np.argsort(rank[ends], axis=1), axis=1).T
    zeros = np.zeros(n, dtype=np.int64)

    def member(key, anchor, side: int, tie) -> np.ndarray:
        """Originals by `key` (distinct per original); each mid right after
        (side 1) or before (side -1) its anchor, mids of one anchor by `tie`."""
        return np.lexsort((np.concatenate([zeros, tie]),
                           np.concatenate([zeros, np.full(len(tie), side)]),
                           np.concatenate([key, key[anchor]])))

    rows = []
    for place in base.family.rank_matrix:
        left_later = place[color[left]] > place[color[right]]
        later, other = np.where(left_later, left, right), np.where(left_later, right, left)
        rows.append(member(place[color] * n + rank, later, 1, rank[other]))
    rows.append(member(rank, left, 1, -rank[right]))
    rows.append(member(rank, right, -1, rank[left]))
    return PermutationFamily(ground, np.array(rows)), base


@dataclass(frozen=True)
class SubdividedBoundResult:
    family: PermutationFamily
    subdivided: Graph
    sigma: tuple[int, ...]
    num_classes: int
    interval_height: int
    base: Suitable3Result

    @property
    def realizer_size(self) -> int:
        """|F|, the number of lifted members (the family has |F| + 2)."""
        return len(self.base.family)


def interval_height(g: Graph, sigma) -> int:
    """Height of g's interval order under σ, a sequence that lists each
    vertex of g once (the order of its `edge_intervals`), by the greedy
    interval schedule: take intervals by right end, keeping each that
    starts at or after the last kept end."""
    chain, last = 0, 0
    for right, left in sorted((b, a) for a, b in edge_intervals(g, sigma)):
        if left >= last:
            chain, last = chain + 1, right
    return chain


def colored_subdivision_family(g: Graph) -> SubdividedBoundResult:
    """Suitable family for g^{1/2} lifted from the greedy colour classes.

    The classes come from a greedy colouring along the degeneracy order;
    listed consecutively they also cap the height of g's interval order
    under σ at (#classes - 1), which the result reports.  The family is
    not verified here: callers check it against `subdivided`.
    """
    classes = color_classes(greedy_coloring(g, degeneracy_order(g)))
    sigma = tuple(v for cls in classes for v in cls)
    family, base = subdivision_family(g, classes)
    h = interval_height(g, sigma)
    if g.num_edges:
        if h > len(classes) - 1:
            raise AssertionError("interval order height exceeds the coloring bound")
        if len(family) != len(base.family) + 2:
            raise AssertionError("subdivision family size differs from |F| + 2")
    return SubdividedBoundResult(family, subdivide(g), sigma, len(classes), h, base)
