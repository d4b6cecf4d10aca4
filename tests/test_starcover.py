"""Block permutations and the k-degenerate family pipeline."""

import random

import numpy as np
import pytest

from sepdim.families import (
    Permutation,
    separates,
    verify_k_suitable,
    verify_pairwise_suitable,
)
from sepdim.graphs import Graph, Star, StarForest, degeneracy_order, star_forest_decomposition
from sepdim.starcover import (
    construct_sigma,
    degenerate_family,
    random_k_degenerate_graph,
    star_roots,
)


def forest_of(*stars):
    covered = tuple(
        sorted(
            tuple(sorted((s.root, leaf)))
            for s in stars
            for leaf in s.leaves
        )
    )
    return StarForest(tuple(stars), covered)


def sigma_orders(forest, base):
    """construct_sigma on ids: the forest's vertices and a base Permutation of them."""
    verts = sorted(base.order)
    positions = {v: j for j, v in enumerate(verts)}
    base_rank = np.array([base.rank(v) for v in verts])
    forward, backward = construct_sigma(star_roots(forest, positions), base_rank)
    return tuple(verts[j] for j in forward), tuple(verts[j] for j in backward)


class TestStarRoots:
    def test_leaves_point_at_their_root(self):
        forest = forest_of(Star(3, (1, 5)), Star(7, ()))
        assert star_roots(forest, {1: 0, 3: 1, 5: 2, 7: 3}).tolist() == [1, 1, 1, 3]

    def test_empty_forest_roots_itself(self):
        assert star_roots(forest_of(), {4: 0, 9: 1}).tolist() == [0, 1]


class TestConstructSigma:
    def test_two_blocks_identity_base(self):
        a, b, c, d, e = 1, 2, 3, 4, 5
        forest = forest_of(Star(a, (b, c)), Star(d, (e,)))
        base = Permutation((a, b, c, d, e))
        forward, backward = sigma_orders(forest, base)
        assert forward == (b, c, a, e, d)
        assert backward == (e, d, b, c, a)

    def test_single_block_twin_equal(self):
        forest = forest_of(Star(1, (2, 3)))
        base = Permutation((1, 2, 3))
        forward, backward = sigma_orders(forest, base)
        assert forward == backward == (2, 3, 1)

    def test_singleton_stars_follow_base(self):
        forest = forest_of(Star(1, ()), Star(2, ()))
        base = Permutation((2, 1))
        forward, backward = sigma_orders(forest, base)
        assert forward == (2, 1)
        assert backward == (1, 2)


class TestDegenerateFamily:
    def test_star_graph_no_disjoint_pairs(self):
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        result = degenerate_family(g)
        assert verify_pairwise_suitable(result.family, g).ok

    def test_p4_verified_and_sized(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 4)])
        result = degenerate_family(g)
        assert verify_pairwise_suitable(result.family, g).ok
        assert len(result.family.members) == 2 * result.forest_count * result.base_size
        assert len(result.family.members) <= 4 * result.degeneracy * result.base_size

    def test_k4_verified_and_sized(self):
        g = Graph.from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        result = degenerate_family(g)
        assert verify_pairwise_suitable(result.family, g).ok
        assert len(result.family.members) == 2 * result.forest_count * result.base_size

    def test_deterministic(self):
        g = random_k_degenerate_graph(30, 2, seed=5)
        a = degenerate_family(g)
        b = degenerate_family(g)
        assert a.family == b.family

    def test_base_family_is_three_suitable(self):
        g = random_k_degenerate_graph(20, 2, seed=1)
        result = degenerate_family(g)
        assert verify_k_suitable(result.base.family, 3)

    def test_single_vertex(self):
        g = Graph.build([7], [])
        result = degenerate_family(g)
        assert len(result.family.members) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            degenerate_family(Graph.build([], []))


class TestClaimCaseReplay:
    """Any disjoint pair must be separated inside the sub-family of the
    star forest owning one of its edges, split by the four cases of the
    covering argument."""

    @pytest.mark.parametrize("seed", range(5))
    def test_owning_forest_separates(self, seed):
        rng = random.Random(seed)
        g = random_k_degenerate_graph(rng.randint(8, 18), rng.randint(1, 3), seed=seed)
        result = degenerate_family(g)
        forests = star_forest_decomposition(g, degeneracy_order(g))
        r = result.base_size
        edges = g.edges
        cases_seen = set()
        for i, e in enumerate(edges):
            owner = next(
                fi for fi, f in enumerate(forests) if e in set(f.covered_edges)
            )
            forest = forests[owner]
            sub_members = result.family.members[owner * 2 * r:(owner + 1) * 2 * r]
            star = forest.star_of[e[0]]
            assert set(e) <= set(star.members)
            for f in edges[i + 1:]:
                if set(e) & set(f):
                    continue
                inside = sum(1 for v in f if v in star.members)
                cases_seen.add(inside)
                assert any(separates(m, e, f) for m in sub_members)
        # the analysis distinguishes 0, 1, and 2 endpoints inside the star
        assert cases_seen <= {0, 1, 2}


class TestRandomKDegenerate:
    def test_degeneracy_bounded(self):
        from sepdim.graphs import degeneracy_order

        for seed in range(5):
            for k in (1, 2, 3):
                g = random_k_degenerate_graph(25, k, seed=seed)
                assert degeneracy_order(g).k <= k
                assert g.num_vertices == 25

    def test_seeded_reproducible(self):
        assert random_k_degenerate_graph(40, 2, seed=3) == random_k_degenerate_graph(40, 2, seed=3)
