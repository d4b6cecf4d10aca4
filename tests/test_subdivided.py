"""Families for fully subdivided graphs lifted from colour classes."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sepdim.families import verify_pairwise_suitable
from sepdim.graphs import (
    Graph,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    subdivide,
    subdivision_mids,
)
from sepdim.posets import height, interval_order_from
from sepdim.subdivided import colored_subdivision_family, interval_height, subdivision_family


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def greedy_classes(g):
    return color_classes(greedy_coloring(g, degeneracy_order(g)))


def verified_family(g, classes):
    fam, base = subdivision_family(g, classes)
    gsub = subdivide(g)
    assert fam.ground_set == gsub.vertices
    assert verify_pairwise_suitable(fam, gsub).ok
    if g.edges:
        assert len(fam) == len(base.family) + 2
    return fam


def random_proper_classes(g, rng):
    """A random proper colouring (not a greedy one), classes and their
    insides in random order."""
    palette = rng.randint(1, 6)
    adjacency = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    color = {}
    for v in rng.sample(list(g.vertices), g.num_vertices):
        used = {color[w] for w in adjacency[v] if w in color}
        free = [c for c in range(palette + len(used)) if c not in used]
        color[v] = rng.choice(free[:palette])
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    out = [rng.sample(cls, len(cls)) for cls in classes.values()]
    rng.shuffle(out)
    return out


class TestSubdivisionFamily:
    def test_path_three_permutations(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert len(verified_family(g, [(1, 3), (2,)])) == 3

    def test_single_edge(self):
        g = Graph.from_edges([(1, 2)])
        assert len(verified_family(g, [(1,), (2,)])) == 3

    def test_exact_sizes(self):
        assert len(verified_family(Graph.from_edges([(1, 2)]), [(2,), (1,)])) == 3
        assert len(verified_family(cycle(4), [(1, 3), (2, 4)])) == 3
        assert len(verified_family(complete(3), [(1,), (2,), (3,)])) == 5
        assert len(verified_family(Graph.build([1, 2, 3], []), [(1, 2, 3)])) == 0

    def test_invalid_classes_rejected(self):
        for classes in (
            [(1, 2), (3,)],            # a class holds the edge 1-2
            [(1,), (2,)],              # vertex 3 is missing
            [(1,), (2,), (3,), (1,)],  # vertex 1 twice
            [(1,), (2,), (3,), ()],    # an empty class
            [(1,), (2,), (3, 4)],      # 4 is not a vertex
        ):
            with pytest.raises(ValueError, match="class"):
                subdivision_family(complete(3), classes)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ground_set_is_the_subdivided_graph(self, data):
        # sparse ids, some of them isolated (possibly the largest, which
        # moves every mid id): the family is over exactly subdivide(g)
        ids = sorted(data.draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=10)))
        pairs = list(combinations(ids, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=15)) if pairs else []
        g = Graph.build(ids, edges)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        verified_family(g, random_proper_classes(g, rng))
        verified_family(g, greedy_classes(g))

    def test_edgeless_and_empty_ground_sets(self):
        for g in (Graph.build([3, 8, 40], []), Graph.build([], [])):
            fam = verified_family(g, greedy_classes(g))
            assert len(fam) == 0

    def test_random_colourings(self):
        for seed in range(320):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            p = rng.random()
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
            g = Graph.build(range(1, n + 1), edges)
            verified_family(g, random_proper_classes(g, rng))

    def test_mid_between_neighbors_in_pinned_members(self):
        g = cycle(5)
        res = colored_subdivision_family(g)
        after_left, before_right = ({v: i for i, v in enumerate(m)} for m in res.family.id_orders()[-2:])
        for (u, v), mid in zip(g.edges, subdivision_mids(g)):
            su, sv = sorted((u, v), key=res.sigma.index)
            assert after_left[su] < after_left[mid]
            assert before_right[mid] < before_right[sv]


class TestColoredPipeline:
    def test_c4_family_size_three(self):
        res = colored_subdivision_family(cycle(4))
        assert res.num_classes == 2
        assert res.interval_height == 1
        assert res.realizer_size == 1 and res.base.generator == "swap"
        assert len(res.family) == 3

    def test_k3_size_five(self):
        res = colored_subdivision_family(complete(3))
        assert len(res.family) == 5

    def test_complete_graph_sizes(self):
        sizes = {}
        for n in (4, 7, 12, 40):
            res = colored_subdivision_family(complete(n))
            assert verify_pairwise_suitable(res.family, res.subdivided).ok
            sizes[n] = len(res.family)
        assert sizes == {4: 5, 7: 6, 12: 7, 40: 8}

    def test_edgeless_empty_family(self):
        res = colored_subdivision_family(Graph.build([1, 2, 3], []))
        assert len(res.family) == 0

    def test_size_is_realizer_plus_two(self):
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(2, 25)
            edges = {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(1, 2 * n))
            }
            g = Graph.build(range(1, n + 1), edges)
            res = colored_subdivision_family(g)
            assert verify_pairwise_suitable(res.family, res.subdivided).ok
            if g.edges:
                assert len(res.family) == res.realizer_size + 2

    def test_height_below_class_count(self):
        for seed in range(10):
            rng = random.Random(100 + seed)
            n = rng.randint(2, 30)
            edges = {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(1, 3 * n))
            }
            g = Graph.build(range(1, n + 1), edges)
            res = colored_subdivision_family(g)
            assert res.interval_height <= res.num_classes - 1

    def test_sigma_orders_color_classes_consecutively(self):
        g = complete(4)
        res = colored_subdivision_family(g)
        coloring = greedy_coloring(g, degeneracy_order(g))
        seen_colors = [coloring[v] for v in res.sigma]
        assert seen_colors == sorted(seen_colors)

    def test_greedy_classes_give_the_pipeline_family(self):
        g = cycle(7)
        assert subdivision_family(g, greedy_classes(g))[0] == colored_subdivision_family(g).family

    def test_deterministic(self):
        g = cycle(7)
        assert colored_subdivision_family(g).family == colored_subdivision_family(g).family


def test_interval_height_matches_poset_height():
    # the greedy chain over right endpoints against the height of the
    # materialised interval order, on seeded graphs and random orders
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        edges = {
            tuple(sorted(rng.sample(range(n), 2)))
            for _ in range(rng.randint(0, 3 * n))
        }
        g = Graph.build(range(n), edges)
        sigma = list(g.vertices)
        rng.shuffle(sigma)
        assert interval_height(g, sigma) == height(interval_order_from(g, sigma))
