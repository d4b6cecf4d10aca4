"""Pairwise-suitable families for fully subdivided graphs.

A proper colouring of G lists its classes consecutively as the vertex
order σ.  A 3-suitable family F of class orders (the scrambling
permutations of `suitable3`, so |F| grows as log log χ) is lifted to
G^{1/2}: each class order gives one member that lists the classes in
that order, keeps σ order inside each class and puts every mid vertex
right after its later endpoint.  Two pinned members, which place each
mid right after its σ-left or right before its σ-right endpoint,
complete a family of |F| + 2 members.  Every member is one argsort of
an int64 key per position of G^{1/2} (`_lift_keys`).

`certify_subdivision_family` checks a family against the premises of
that construction's proof in O(|F| * (n + m)), instead of checking every
disjoint pair of G^{1/2}: the classes are a proper colouring, F is
3-suitable (or the swap of two classes), the family has |F| + 2 members
over V(G^{1/2}), and the re-derived keys increase along every member."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import PermutationFamily
from .graphs import (
    Graph,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    order_ranks,
    subdivision_mids,
)
from .suitable3 import Suitable3Result, build_3_suitable_for, certify_3_suitable


def _lift_keys(g: Graph, classes, orders: np.ndarray) -> np.ndarray:
    """(|F| + 2, n + m) sort keys of the members of `subdivision_family`,
    one distinct int64 per position of g^{1/2} and member; `orders` is
    F's (|F|, c) array of class indices, one class order π per row.
    Raises ValueError unless `classes` partition g's vertices into
    non-empty independent sets.

    A key packs (anchor key, side, tie) as anchor key * (2n + 1) + slot:
    an original has slot n; a mid after its anchor has slot n + 1 + tie,
    one before it slot tie, with 0 <= tie < n.  The anchor key of an
    original is its σ-rank in the pinned members and, in a lift, its
    position among the originals of that lift (the start of its class in
    π order plus its rank inside the class), which orders the originals
    by (F-rank of the class, σ-rank).  Every key is below n * (2n + 1),
    so it fits in int64 for any n < 2^31, whatever the class count.
    """
    n = g.num_vertices
    sizes = list(map(len, classes))
    if not all(sizes):
        raise ValueError("colour classes must be non-empty")
    # σ-rank by position in g.vertices
    rank = order_ranks(g, [v for cls in classes for v in cls], "colour classes")
    # the class of each σ-rank, and each edge's σ-ranks, left end first
    of_rank = np.repeat(np.arange(len(sizes)), sizes)
    end_ranks = rank[g.edge_positions.T]
    rl, rr = np.minimum(*end_ranks), np.maximum(*end_ranks)
    if (of_rank[rl] == of_rank[rr]).any():
        raise ValueError("a colour class contains an edge")
    # by σ-rank r in class X: the lift anchor key is r + (start of X in π
    # order - start of X in σ), the start the sum of the sizes before X
    sizes = np.array(sizes, dtype=np.int64)
    in_order = sizes[orders]
    shift = np.empty_like(in_order)
    shift[np.arange(len(orders))[:, None], orders] = np.cumsum(in_order, axis=1) - in_order
    shift -= np.cumsum(sizes) - sizes
    anchor = np.empty((len(orders) + 2, n), dtype=np.int64)
    np.add(shift[:, of_rank], np.arange(n), out=anchor[:-2])
    anchor[-2:] = np.arange(n)
    w = 2 * n + 1
    keys = np.empty((len(anchor), n + len(rl)), dtype=np.int64)
    keys[:, :n] = anchor[:, rank] * w + n
    # lift: each mid right after its π-later endpoint, tie the other's σ-rank
    at_left, at_right = anchor[:-2, rl], anchor[:-2, rr]
    left_later = at_left > at_right
    keys[:-2, n:] = np.maximum(at_left, at_right) * w + (n + 1) + np.where(left_later, rr, rl)
    keys[-2, n:] = rl * w + 2 * n - rr  # after_left: descending σ-rank of the other
    keys[-1, n:] = rr * w + rl  # before_right: ascending σ-rank of the other
    return keys


def _class_family(num_classes: int) -> Suitable3Result:
    """F: the swap for two classes, else a 3-suitable family over the
    class indices (empty for at most one class)."""
    if num_classes == 2:
        return Suitable3Result(PermutationFamily((0, 1), np.array([[1, 0]])), "swap")
    return build_3_suitable_for(range(num_classes))


def subdivision_family(g: Graph, classes) -> tuple[PermutationFamily, Suitable3Result]:
    """Family of |F| + 2 permutations of V(g^{1/2}) from a proper colouring.

    `classes` partitions the vertices into independent sets; listing them
    in the given order (and each class in its given order) is σ.  F is
    the family of class orders: the single swapped order for two
    classes, else `build_3_suitable_for` over the class indices (empty
    for at most one class).  Returns the family and F; an edgeless graph
    has no disjoint edge pairs and gets the empty family.  Each member is
    one `np.argsort` of its row of `_lift_keys`: one key per position,
    packing (anchor key, side, tie) into an int64 below n * (2n + 1), so
    that no class count can overflow it.  `certify_subdivision_family`
    states the premises and proves the family pairwise suitable.

    Members, each listing the originals with every mid next to one of
    its endpoints (its anchor):
      lift of π in F: classes in π order, σ order inside a class, each
        mid right after its π-later endpoint, mids of one anchor by
        ascending σ-rank of their other endpoint;
      after_left: σ order, each mid right after its σ-left endpoint,
        mids of one anchor by descending σ-rank of their other endpoint;
      before_right: σ order, each mid right before its σ-right
        endpoint, mids of one anchor by ascending σ-rank of the other.
    """
    base = _class_family(len(classes))
    keys = _lift_keys(g, classes, base.family.orders)
    # G^{1/2} lists the originals, then the mid of edge i at position n + i
    ground = g.vertices + tuple(subdivision_mids(g))
    if not g.num_edges:
        return PermutationFamily.build(ground, ()), base
    return PermutationFamily(ground, np.argsort(keys, axis=1)), base


def certify_subdivision_family(g: Graph, classes, family: PermutationFamily,
                               base: Suitable3Result) -> None:
    """Raise AssertionError, naming the failed premise, unless `family`
    is the lift of `base` over `classes` that `subdivision_family`
    builds, so that the proof below makes it pairwise suitable for
    g^{1/2}.  O(|F| * (n + m)) after the check of F.

    Premises: classes, the classes partition V(g) into non-empty
    independent sets (a proper colouring, listed as σ); base, F is over
    the class indices and is 3-suitable (`certify_3_suitable`), or is
    the swap (1, 0) when there are two classes; family, the ground set
    is V(g^{1/2}) (the mid of edge i at position n + i) and there are
    |F| + 2 members when g has an edge, none otherwise; members, the
    keys of `_lift_keys`, re-derived from the classes and F, strictly
    increase along every row, so each member has the form the
    `subdivision_family` docstring gives.

    Why they imply pairwise suitability.  A disjoint pair of G^{1/2} is
    (u, m_e), (w, m_f) with e = uu', f = ww', u != w and e != f; c is
    the colour.
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
    c, fam = len(classes), base.family
    if fam.ground_set != tuple(range(c)):
        raise AssertionError(f"base: F is not over the {c} class indices")
    if c == 2:
        if fam.orders.tolist() != [[1, 0]]:
            raise AssertionError("base: F is not the swap of the two classes")
    else:
        certify_3_suitable(base)
    try:
        keys = _lift_keys(g, classes, fam.orders)
    except ValueError as exc:
        raise AssertionError(f"classes: {exc}") from None
    if family.ground_set != g.vertices + tuple(subdivision_mids(g)):
        raise AssertionError("family: the ground set is not the subdivided graph's vertices")
    want = len(fam) + 2 if g.num_edges else 0
    if len(family) != want:
        raise AssertionError(f"family: {len(family)} members, not {want}")
    listed = keys[np.arange(want)[:, None], family.orders]
    if not (listed[:, 1:] > listed[:, :-1]).all():
        raise AssertionError("members: a member does not list the positions by increasing key")


@dataclass(frozen=True)
class SubdividedBoundResult:
    """A subdivision family and what it was built from: the colour
    classes (σ lists them consecutively), F and the height of g's
    interval order under σ.  The family's ground set names the vertices
    of G^{1/2}; `subdivide(g)` builds that graph for a caller that needs
    its edges."""

    family: PermutationFamily
    classes: tuple[tuple[int, ...], ...]
    interval_height: int
    base: Suitable3Result

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(v for cls in self.classes for v in cls)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def realizer_size(self) -> int:
        """|F|, the number of lifted members (the family has |F| + 2)."""
        return len(self.base.family)


def interval_height(g: Graph, sigma) -> int:
    """Height of g's interval order under σ, a sequence that lists each
    vertex of g once: each edge is the open interval between the σ-ranks
    of its ends, and the greedy interval schedule takes the intervals by
    right end, keeping each that starts at or after the last kept end."""
    left, right = np.sort(order_ranks(g, sigma, "sigma")[g.edge_positions], axis=1).T
    by_right = np.argsort(right, kind="stable")
    chain, last = 0, 0
    for a, b in zip(left[by_right].tolist(), right[by_right].tolist()):
        if a >= last:
            chain, last = chain + 1, b
    return chain


def colored_subdivision_family(g: Graph) -> SubdividedBoundResult:
    """Suitable family for g^{1/2} lifted from the greedy colour classes.

    The classes come from a greedy colouring along the degeneracy order;
    listed consecutively they also cap the height of g's interval order
    under σ at (#classes - 1), which the result reports.  Everything
    here reads g's position arrays: neither G^{1/2} nor the id pairs
    `g.edges` are built.  The family is not checked here: callers
    certify it (`certify_subdivision_family`).
    """
    classes = tuple(color_classes(greedy_coloring(g, degeneracy_order(g))))
    family, base = subdivision_family(g, classes)
    h = interval_height(g, [v for cls in classes for v in cls])
    if g.num_edges and h > len(classes) - 1:
        raise AssertionError("interval order height exceeds the coloring bound")
    return SubdividedBoundResult(family, classes, h, base)
