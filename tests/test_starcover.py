"""Block permutations and the k-degenerate family pipeline."""

import random

import numpy as np
import pytest

from sepdim.families import (
    separates,
    verify_k_suitable,
    verify_pairwise_suitable,
)
from sepdim.graphs import Graph, degeneracy_order, star_forest_decomposition
from sepdim.starcover import (
    construct_sigma,
    degenerate_family,
    random_k_degenerate_graph,
)


def sigma_orders(root_of, base):
    """construct_sigma on ids: `root_of` maps each leaf to its star's root,
    every other vertex of the base order (a tuple of ids) roots itself."""
    verts = sorted(base)
    positions = {v: j for j, v in enumerate(verts)}
    roots = np.array([positions[root_of.get(v, v)] for v in verts])
    base_rank = np.array([base.index(v) + 1 for v in verts])
    forward, backward = construct_sigma(roots, base_rank)
    return tuple(verts[j] for j in forward), tuple(verts[j] for j in backward)


def decompose(g):
    return [f.tolist() for f in star_forest_decomposition(g, degeneracy_order(g))]


class TestStarRoots:
    """Root arrays are positions in g.vertices."""

    def test_leaves_point_at_their_root(self):
        # vertices 1, 2, 3, 5, 9: centre 5 keeps all three leaves, 9 roots itself
        g = Graph.from_edges([(5, 1), (5, 2), (5, 3)], isolated=[9])
        assert decompose(g) == [[3, 3, 3, 3, 4]]

    def test_single_edge_star_rooted_at_smaller_id(self):
        # 7 is peeled before 8, so 8 is the centre, yet 7 roots the star
        g = Graph.from_edges([(5, 1), (5, 2), (5, 3), (7, 8)], isolated=[9])
        assert decompose(g) == [[3, 3, 3, 3, 4, 4, 6]]

    def test_empty_forest_roots_itself(self):
        assert decompose(Graph.build([4, 9], [])) == []
        # 7 lies on no edge, so it roots itself in every star forest
        forests = decompose(Graph.from_edges([(1, 3), (3, 5)], isolated=[7]))
        assert forests == [[0, 1, 1, 3], [0, 0, 2, 3]]


class TestConstructSigma:
    def test_two_blocks_identity_base(self):
        a, b, c, d, e = 1, 2, 3, 4, 5
        base = (a, b, c, d, e)
        forward, backward = sigma_orders({b: a, c: a, e: d}, base)
        assert forward == (b, c, a, e, d)
        assert backward == (e, d, b, c, a)

    def test_single_block_twin_equal(self):
        base = (1, 2, 3)
        forward, backward = sigma_orders({2: 1, 3: 1}, base)
        assert forward == backward == (2, 3, 1)

    def test_singleton_stars_follow_base(self):
        base = (2, 1)
        forward, backward = sigma_orders({}, base)
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
        assert len(result.family) == 2 * result.forest_count * result.base_size
        assert len(result.family) <= 4 * result.degeneracy * result.base_size

    def test_k4_verified_and_sized(self):
        g = Graph.from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        result = degenerate_family(g)
        assert verify_pairwise_suitable(result.family, g).ok
        assert len(result.family) == 2 * result.forest_count * result.base_size

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
        assert len(result.family) == 0

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
        ids = g.vertices
        pos = {v: j for j, v in enumerate(ids)}
        r = result.base_size
        orders = result.family.id_orders()
        edges = g.edges
        cases_seen = set()
        for i, e in enumerate(edges):
            a, b = pos[e[0]], pos[e[1]]
            # e belongs to the forest where one endpoint is the other's root
            owner = next(
                fi for fi, roots in enumerate(forests) if roots[a] == b or roots[b] == a
            )
            roots = forests[owner]
            sub_members = orders[owner * 2 * r:(owner + 1) * 2 * r]
            star = {ids[j] for j in np.flatnonzero(roots == roots[a])}
            assert set(e) <= star
            for f in edges[i + 1:]:
                if set(e) & set(f):
                    continue
                inside = sum(1 for v in f if v in star)
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
