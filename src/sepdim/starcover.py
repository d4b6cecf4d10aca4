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

import numpy as np

from .families import PermutationFamily
from .graphs import Graph, star_forest_decomposition, degeneracy_order
from .suitable3 import Suitable3Result, build_3_suitable_for


def construct_sigma(roots: np.ndarray, base_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block permutation and its block-reversed twin for one star forest.

    `roots` is one star forest from `star_forest_decomposition` (the
    position of each vertex's star root) and `base_rank` one base
    member's rank of each position; both outputs are rows of positions.
    Stars form blocks ordered by the base rank of their root; the twin
    reverses the block order.  Within a block the leaves follow their
    own base rank and the root comes last in both outputs.
    """
    is_root = roots == np.arange(roots.size)
    block = base_rank[roots]
    return np.lexsort((base_rank, is_root, block)), np.lexsort((base_rank, is_root, -block))


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
    number of star forests is at most twice the degeneracy k, so the
    family has at most 4*k*r members.
    """
    if not g.vertices:
        raise ValueError("graph must have at least one vertex")
    d = degeneracy_order(g)
    forests = star_forest_decomposition(g, d)
    base = build_3_suitable_for(g.vertices)
    # the base family shares g's ground set, so its positions are g's
    rows = []
    for roots in forests:
        for base_rank in base.family.rank_matrix:
            rows.extend(construct_sigma(roots, base_rank))
    n = g.num_vertices
    family = PermutationFamily(g.vertices, np.array(rows, dtype=np.int64).reshape(len(rows), n))
    return DegenerateCoverResult(family, d.k, len(forests), base)


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
