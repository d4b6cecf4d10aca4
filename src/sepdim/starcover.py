"""Pairwise-suitable families for k-degenerate graphs via star forests.

The pipeline decomposes the graph into at most 2k spanning star forests,
builds one 3-suitable base family over the vertex-id universe, and then
emits, per star forest and base member, a block permutation and its
block-reversed twin.  Any disjoint edge pair is separated inside the
family of the forest owning one of the edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .families import Permutation, PermutationFamily
from .graphs import Graph, StarForest, star_forest_decomposition, degeneracy_order
from .suitable3 import Suitable3Result, build_3_suitable_for


@dataclass(frozen=True)
class StarLabeling:
    """Vertex labels: `star_key` is shared exactly within a star, `leaf_key`
    is injective within each star."""

    star_key: dict[int, int]
    leaf_key: dict[int, int]

    def validate(self, forest: StarForest) -> None:
        for star in forest.stars:
            keys = {self.leaf_key[v] for v in star.members}
            if len(keys) != len(star.members):
                raise ValueError("leaf labels collide within a star")
        roots = {self.star_key[star.root] for star in forest.stars}
        if len(roots) != len(forest.stars):
            raise ValueError("star labels collide across stars")
        for star in forest.stars:
            if any(self.star_key[v] != self.star_key[star.root] for v in star.members):
                raise ValueError("star label not constant within a star")


def star_labels(forest: StarForest) -> StarLabeling:
    """Label each vertex by its star's root id and by its own id."""
    star_key: dict[int, int] = {}
    leaf_key: dict[int, int] = {}
    for star in forest.stars:
        for v in star.members:
            star_key[v] = star.root
            leaf_key[v] = v
    return StarLabeling(star_key, leaf_key)


def construct_sigma(
    forest: StarForest, base: Permutation, labeling: StarLabeling
) -> tuple[Permutation, Permutation]:
    """Block permutation and its block-reversed twin for one star forest.

    Stars form blocks ordered by the base rank of their star label; the
    twin reverses the block order.  Within a block the non-root vertices
    follow the base rank of their leaf labels and the root comes last in
    both outputs.
    """
    blocks = []
    for star in forest.stars:
        label = labeling.star_key[star.root]
        inner = sorted(star.leaves, key=lambda v: base.rank(labeling.leaf_key[v]))
        blocks.append((base.rank(label), inner + [star.root]))
    blocks.sort(key=lambda item: item[0])
    forward = [v for _, block in blocks for v in block]
    backward = [v for _, block in reversed(blocks) for v in block]
    return Permutation(forward), Permutation(backward)


@dataclass(frozen=True)
class DegenerateCoverResult:
    family: PermutationFamily
    degeneracy: int
    forest_count: int
    base: Suitable3Result

    @property
    def base_size(self) -> int:
        return len(self.base.family)


def degenerate_family(g: Graph) -> DegenerateCoverResult:
    """Pairwise-suitable family of size 2 * (#star forests) * r for g.

    r is the size of the 3-suitable base family over the vertex ids; the
    number of star forests is at most twice the (recomputed) degeneracy,
    so the family has at most 4*k*r members.
    """
    if not g.vertices:
        raise ValueError("graph must have at least one vertex")
    k = degeneracy_order(g).k
    forests = star_forest_decomposition(g)
    base = build_3_suitable_for(g.vertices)
    members: list[Permutation] = []
    for forest in forests:
        labeling = star_labels(forest)
        for base_perm in base.family.members:
            forward, backward = construct_sigma(forest, base_perm, labeling)
            members.append(forward)
            members.append(backward)
    family = PermutationFamily.build(g.vertices, members)
    return DegenerateCoverResult(family, k, len(forests), base)


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
