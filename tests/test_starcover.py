"""Block permutations, the k-degenerate family pipeline and its certificate."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepdim.families import (
    PermutationFamily,
    separates,
    verify_k_suitable,
    verify_pairwise_suitable,
)
from sepdim.graphs import Graph, degeneracy_order, star_forest_decomposition, subdivide
from sepdim import starcover
from sepdim.starcover import (
    certify_star_cover,
    construct_sigma,
    degenerate_family,
    random_k_degenerate_graph,
)
from sepdim.suitable3 import Suitable3Result, lex_xor_orders


def sigma_orders(root_of, base):
    """construct_sigma on ids: `root_of` maps each leaf to its star's root,
    every other vertex of the base order (a tuple of ids) roots itself."""
    verts = sorted(base)
    positions = {v: j for j, v in enumerate(verts)}
    roots = np.array([positions[root_of.get(v, v)] for v in verts])
    base_rank = np.array([[base.index(v) + 1 for v in verts]])
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


class TestConstructSigmaBatch:
    def test_rows_equal_the_per_member_lexsorts(self):
        # the composite key orders positions as the three-key lexsort does
        for seed in range(6):
            g = random_k_degenerate_graph(40 + 20 * seed, 1 + seed % 3, seed=seed)
            result = degenerate_family(g)
            ranks = result.base.family.rank_matrix
            for forest in result.roots:
                rows = construct_sigma(forest, ranks)
                is_root = forest == np.arange(forest.size)
                for i, rank in enumerate(ranks):
                    block = rank[forest]
                    assert rows[2 * i].tolist() == np.lexsort((rank, is_root, block)).tolist()
                    assert rows[2 * i + 1].tolist() == np.lexsort((rank, is_root, -block)).tolist()

    def test_stacked_forests_equal_the_per_forest_rows(self):
        g = random_k_degenerate_graph(90, 3, seed=4)
        result = degenerate_family(g)
        ranks = result.base.family.rank_matrix
        per_forest = np.concatenate([construct_sigma(forest, ranks) for forest in result.roots])
        assert np.array_equal(construct_sigma(result.roots, ranks), per_forest)
        assert np.array_equal(per_forest, result.family.orders)


def group_caps(result):
    """GROUP_WORDS values giving the default groups, one forest and two
    forests per group, for star-cover results like `result`."""
    forest_words = 2 * result.base_size * result.roots.shape[1]
    return {"default": starcover.GROUP_WORDS, "one": forest_words, "two": 2 * forest_words}


def counted_sigma(monkeypatch):
    """The forest count of each `construct_sigma` call from now on."""
    calls, sigma = [], starcover.construct_sigma
    monkeypatch.setattr(starcover, "construct_sigma", lambda roots, ranks: calls.append(len(roots)) or sigma(roots, ranks))
    return calls


class TestForestGroups:
    """Members are made and certified one group of star forests at a
    time; the group size changes no member and no certificate verdict."""

    # 5 star forests of 6 base members: two forests per group leave one
    # forest alone in the last group
    GRAPH = dict(n=90, k=3, seed=4)

    @pytest.mark.parametrize("cap, groups", [("default", [5]), ("one", [1] * 5), ("two", [2, 2, 1])])
    def test_group_cap_keeps_the_orders(self, cap, groups, monkeypatch):
        g = random_k_degenerate_graph(**self.GRAPH)
        at_default = degenerate_family(g)
        monkeypatch.setattr(starcover, "GROUP_WORDS", group_caps(at_default)[cap])
        calls = counted_sigma(monkeypatch)
        capped = degenerate_family(g)
        assert calls == groups
        assert np.array_equal(capped.family.orders, at_default.family.orders)
        certify_star_cover(g, capped)

    @pytest.mark.parametrize("cap", ["default", "one", "two"])
    def test_swap_in_the_last_forest_is_named(self, cap, monkeypatch):
        g = random_k_degenerate_graph(**self.GRAPH)
        result = degenerate_family(g)
        monkeypatch.setattr(starcover, "GROUP_WORDS", group_caps(result)[cap])
        s, r = result.forest_count, result.base_size
        orders = result.family.orders.copy()
        last = 2 * (s - 1) * r
        orders[[last, last + 1]] = orders[[last + 1, last]]  # a member and its twin trade places
        swapped = dataclasses.replace(result, family=PermutationFamily(g.vertices, orders))
        with pytest.raises(AssertionError, match=f"^members: .* star forest {s - 1} "):
            certify_star_cover(g, swapped)


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
        assert a.family == b.family and a == b
        assert np.array_equal(a.roots, b.roots) and not a.roots.flags.writeable

    def test_base_family_is_three_suitable(self):
        g = random_k_degenerate_graph(20, 2, seed=1)
        result = degenerate_family(g)
        assert verify_k_suitable(result.base.family, 3)

    def test_single_vertex(self):
        g = Graph.build([7], [])
        result = degenerate_family(g)
        assert len(result.family) == 0

    def test_empty_graph_gets_the_empty_family(self):
        g = Graph.build([], [])
        result = degenerate_family(g)
        certify_star_cover(g, result)
        assert len(result.family) == 0 and result.forest_count == 0


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


def certified(g, result) -> bool:
    try:
        certify_star_cover(g, result)
    except AssertionError:
        return False
    return True


def rebuilt(g, result, base=None, roots=None):
    """`result` with its members rebuilt by `construct_sigma` from a
    (mutated) base or root stack, so that only the base or the cover
    premise can object to it."""
    base = result.base if base is None else base
    roots = result.roots if roots is None else roots
    rows = [construct_sigma(forest, base.family.rank_matrix) for forest in roots]
    orders = np.concatenate(rows) if rows else np.empty((0, g.num_vertices), dtype=np.int64)
    return dataclasses.replace(result, family=PermutationFamily(g.vertices, orders), base=base, roots=roots)


def mutant(g, result, kind, rng):
    """One mutant of a star-cover result, or None where `kind` does not apply."""
    fam, n = result.family, g.num_vertices
    if kind == "swap":  # two positions of one member trade places
        if not len(fam) or n < 2:
            return None
        orders = fam.orders.copy()
        i, (a, b) = rng.randrange(len(fam)), rng.sample(range(n), 2)
        orders[i, [a, b]] = orders[i, [b, a]]
        return dataclasses.replace(result, family=PermutationFamily(fam.ground_set, orders))
    if kind == "drop":  # one member left out
        if not len(fam):
            return None
        orders = np.delete(fam.orders, rng.randrange(len(fam)), axis=0)
        return dataclasses.replace(result, family=PermutationFamily(fam.ground_set, orders))
    if kind == "flip":  # one flip bit of a lex-xor base, base rows and members rebuilt
        if result.base.flips is None:
            return None
        flips = result.base.flips.copy()
        i, p = rng.randrange(flips.shape[0]), rng.randrange(flips.shape[1])
        flips[i, p] = not flips[i, p]
        base = Suitable3Result(PermutationFamily(g.vertices, lex_xor_orders(flips, n)), "kleitman-spencer", flips)
        return rebuilt(g, result, base=base)
    # "reroot": in a forest with a leaf, one leaf points at another vertex, members rebuilt
    roots = result.roots.copy()
    leaves = roots != np.arange(n)
    forests = np.flatnonzero(leaves.any(axis=1)).tolist()
    if not forests:
        return None
    s = rng.choice(forests)
    v = rng.choice(np.flatnonzero(leaves[s]).tolist())
    roots[s, v] = rng.choice([u for u in range(n) if u != roots[s, v]])
    return rebuilt(g, result, roots=roots)


MUTANTS = ("swap", "drop", "flip", "reroot")


@st.composite
def degenerate_graphs(draw, max_n=60):
    """k-degenerate graphs, n <= max_n and k <= 4, some on sparse ids."""
    n, k, seed = draw(st.integers(1, max_n)), draw(st.integers(1, 4)), draw(st.integers(0, 10**6))
    g = random_k_degenerate_graph(n, k, seed=seed)
    if draw(st.booleans()):
        ids = sorted(random.Random(seed).sample(range(10 * n), n))
        g = Graph.build(ids, [(ids[u], ids[v]) for u, v in g.edges])
    return g


class TestCertificate:
    @settings(max_examples=80, deadline=None)
    @given(degenerate_graphs())
    def test_constructed_families_are_certified_and_suitable(self, g):
        result = degenerate_family(g)
        certify_star_cover(g, result)
        assert verify_pairwise_suitable(result.family, g).ok

    @pytest.mark.parametrize("n", range(2, 10))
    def test_subdivided_cliques_are_certified_and_suitable(self, n):
        g = subdivide(Graph.from_edges([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]))
        result = degenerate_family(g)
        certify_star_cover(g, result)
        assert verify_pairwise_suitable(result.family, g).ok

    @settings(max_examples=120, deadline=None)
    @given(degenerate_graphs(), st.sampled_from(MUTANTS), st.randoms(use_true_random=False))
    def test_certified_mutants_are_suitable(self, g, kind, rng):
        bad = mutant(g, degenerate_family(g), kind, rng)
        if bad is not None and certified(g, bad):
            assert verify_pairwise_suitable(bad.family, g).ok

    @pytest.mark.parametrize("kind", ["drop", "flip", "reroot"])
    def test_mutants_the_exhaustive_check_refuses_are_refused(self, kind):
        # one mutation rarely breaks a family of 2sr members, so mutations
        # pile up until the exhaustive check refuses; every step is a mutant
        refused = 0
        for seed in range(20):
            rng = random.Random(seed)
            g = random_k_degenerate_graph(rng.randint(12, 40), 1 + seed % 4, seed=seed)
            bad = degenerate_family(g)
            for _ in range(150):
                bad = mutant(g, bad, kind, rng)
                if bad is None:
                    break
                if not verify_pairwise_suitable(bad.family, g).ok:
                    refused += 1
                    assert not certified(g, bad), (seed, kind)
                    break
        assert refused >= 10

    def test_swaps_and_drops_are_always_refused(self):
        # the block keys are distinct, so a swap breaks their strict order
        # whatever the exhaustive verdict; a drop breaks 2*s*r
        for seed in range(30):
            rng = random.Random(seed)
            g = random_k_degenerate_graph(rng.randint(4, 40), 1 + seed % 4, seed=seed)
            result = degenerate_family(g)
            for kind in ("swap", "drop"):
                assert not certified(g, mutant(g, result, kind, rng)), (seed, kind)

    def test_each_premise_is_named(self):
        g = random_k_degenerate_graph(30, 2, seed=4)
        result = degenerate_family(g)
        flips = result.base.flips.copy()
        flips[:, 1] = flips[:, 0]  # two equal columns miss (0, 1) and (1, 0)
        base = Suitable3Result(PermutationFamily(g.vertices, lex_xor_orders(flips, 30)), "kleitman-spencer", flips)
        with pytest.raises(AssertionError, match="^base: two flip columns"):
            certify_star_cover(g, rebuilt(g, result, base=base))
        fewer = dataclasses.replace(result, roots=result.roots[1:])
        with pytest.raises(AssertionError, match="^cover: "):
            certify_star_cover(g, rebuilt(g, fewer))
        orders = result.family.orders.copy()
        orders[[0, 1]] = orders[[1, 0]]  # a member and its twin trade places
        swapped = dataclasses.replace(result, family=PermutationFamily(g.vertices, orders))
        with pytest.raises(AssertionError, match="^members: .* star forest 0 "):
            certify_star_cover(g, swapped)

    def test_family_over_other_vertices_is_refused(self):
        g = random_k_degenerate_graph(12, 2, seed=2)
        other = Graph.build([v + 1 for v in g.vertices], [(u + 1, v + 1) for u, v in g.edges])
        with pytest.raises(AssertionError, match="^cover: "):
            certify_star_cover(other, degenerate_family(g))
