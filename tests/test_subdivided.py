"""Families for fully subdivided graphs lifted from colour classes."""

import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepdim.families import PermutationFamily, verify_pairwise_suitable
from sepdim.graphs import (
    DegeneracyOrder,
    Graph,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    order_ranks,
    star_forest_decomposition,
    subdivide,
    subdivision_mids,
)
from sepdim.posets import height, interval_order_from
from sepdim.starcover import random_k_degenerate_graph
from sepdim.subdivided import (
    _class_family,
    certify_subdivision_family,
    colored_subdivision_family,
    interval_height,
    subdivision_family,
)


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def greedy_classes(g):
    return color_classes(greedy_coloring(g, degeneracy_order(g)))


def verified_family(g, classes):
    fam, base = subdivision_family(g, classes)
    certify_subdivision_family(g, classes, fam, base)
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
            assert verify_pairwise_suitable(res.family, subdivide(complete(n))).ok
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
            assert verify_pairwise_suitable(res.family, subdivide(g)).ok
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


@pytest.mark.parametrize("sigma,fault", [
    ((4, 3, 2, 1, 1), "repeated"),
    ((1, 2, 3, 4, 9), "cover"),
    ((1, 2, 3), "cover"),
])
def test_interval_height_refuses_what_the_poset_refuses(sigma, fault):
    # σ must list each vertex of the path 1-2-3-4 once, for both readers;
    # a repeated vertex and a miscover get the same wording
    g = Graph.from_edges([(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="does not match graph vertices") as from_height:
        interval_height(g, sigma)
    with pytest.raises(ValueError, match="does not match graph vertices") as from_poset:
        height(interval_order_from(g, sigma))
    assert str(from_height.value) == str(from_poset.value)


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


# every reader of a vertex order, each fed the order its own way (as a
# peel order, with k = n as a bound on the later neighbours)
ORDER_READERS = {
    "interval_height": interval_height,
    "interval_order_from": interval_order_from,
    "subdivision_family": lambda g, order: subdivision_family(g, [(v,) for v in order]),
    "star_forest_decomposition":
        lambda g, order: star_forest_decomposition(g, DegeneracyOrder(order, g.num_vertices)),
    "greedy_coloring": lambda g, order: greedy_coloring(g, DegeneracyOrder(order, g.num_vertices)),
}


@pytest.mark.parametrize("reader", sorted(ORDER_READERS))
@pytest.mark.parametrize("order", [
    (1, 2, 3, 4, 4),       # a repeated vertex
    (1, 2, 3),             # a missing one
    (1, 2, 3, 9),          # a foreign one
    (1.0, 2.0, 3.0, 4.0),  # floats equal to the ids
])
def test_every_order_reader_refuses_the_same_orders(reader, order):
    g = Graph.from_edges([(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match=" does not match graph vertices$"):
        ORDER_READERS[reader](g, order)


def test_ids_past_int64_are_ranked_exactly():
    # numpy would hold 2^63 and 2^63 + 2 beside 1 as one float64 value
    g = Graph.from_edges([(1, 2**63), (2**63, 2**63 + 2)])
    assert order_ranks(g, (2**63 + 2, 1, 2**63), "order").tolist() == [1, 2, 0]
    with pytest.raises(ValueError, match="^order does not match graph vertices$"):
        order_ranks(g, (1, 2.0**63, 2**63 + 2), "order")
    ids = [0, 5, 2**31, 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**70 - 1, 2**70]
    for seed in range(40):
        rng = random.Random(seed)
        edges = {tuple(sorted(rng.sample(ids, 2))) for _ in range(rng.randint(0, 20))}
        g = Graph.build(ids, edges)
        sigma = rng.sample(ids, len(ids))
        for reader in ORDER_READERS.values():
            reader(g, sigma)
        assert order_ranks(g, sigma, "sigma").tolist() == [sigma.index(v) for v in g.vertices]
        assert interval_height(g, sigma) == height(interval_order_from(g, sigma))


def reference_family(g, classes, base):
    """The lift of `base` over `classes` by one three-key `np.lexsort` per
    member (anchor key, side, tie), with no check of the classes: the
    reference for the packed keys of `subdivision_family`."""
    n = g.num_vertices
    pos = {v: j for j, v in enumerate(g.vertices)}
    rank = np.argsort([pos[v] for cls in classes for v in cls])
    color = np.repeat(np.arange(len(classes)), list(map(len, classes)))[rank]
    ground = g.vertices + tuple(subdivision_mids(g))
    if not g.num_edges:
        return PermutationFamily.build(ground, ())
    ends = g.edge_positions
    left, right = np.take_along_axis(ends, np.argsort(rank[ends], axis=1), axis=1).T
    zeros = np.zeros(n, dtype=np.int64)

    def member(key, anchor, side, tie):
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
    return PermutationFamily(ground, np.array(rows))


def sparse_degenerate(data, max_n=60):
    """A k-degenerate graph (k <= 4, n <= max_n) whose ids are spread over
    0..10^12 out of index order, and a seeded random generator."""
    n = data.draw(st.integers(1, max_n))
    k = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32))
    dense = random_k_degenerate_graph(n, k, seed=seed)
    rng = random.Random(seed)
    ids = rng.sample(range(10**12), n)
    edges = [(ids[u], ids[v]) for u, v in dense.edges]
    return Graph.build(ids, edges), rng


def refused(g, classes, family, base) -> bool:
    try:
        certify_subdivision_family(g, classes, family, base)
    except AssertionError:
        return True
    return False


class TestCertificate:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_certified_families_are_suitable(self, data):
        # random proper colourings, two classes among them, and the greedy
        # one: the certificate passes, and so does the exhaustive check
        g, rng = sparse_degenerate(data)
        for classes in (random_proper_classes(g, rng), greedy_classes(g)):
            fam, base = subdivision_family(g, classes)
            certify_subdivision_family(g, classes, fam, base)
            assert verify_pairwise_suitable(fam, subdivide(g)).ok

    def test_two_classes_take_the_swap(self):
        for seed in range(20):
            g = random_k_degenerate_graph(30, 1, seed=seed)
            classes = greedy_classes(g)
            assert len(classes) == 2
            fam, base = subdivision_family(g, classes)
            assert base.generator == "swap"
            certify_subdivision_family(g, classes, fam, base)
            assert verify_pairwise_suitable(fam, subdivide(g)).ok

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_keys_give_the_reference_family(self, data):
        g, rng = sparse_degenerate(data)
        for classes in (random_proper_classes(g, rng), greedy_classes(g)):
            fam, base = subdivision_family(g, classes)
            assert fam == reference_family(g, classes, base)

    @pytest.mark.parametrize("n", [10, 34, 1000])
    def test_keys_give_the_reference_family_on_seeded_graphs(self, n):
        for k in (1, 2, 3, 5):
            g = random_k_degenerate_graph(n, k, seed=1)
            classes = greedy_classes(g)
            singletons = [(v,) for v in reversed(g.vertices)]
            for cls in (classes, classes[::-1], singletons if n <= 34 else classes):
                fam, base = subdivision_family(g, cls)
                assert fam == reference_family(g, cls, base)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_swapped_positions_are_refused(self, data):
        g, rng = sparse_degenerate(data)
        classes = random_proper_classes(g, rng)
        fam, base = subdivision_family(g, classes)
        if not len(fam):
            return
        orders = fam.orders.copy()
        i = rng.randrange(len(orders))
        a, b = rng.sample(range(orders.shape[1]), 2)
        orders[i, [a, b]] = orders[i, [b, a]]
        mutant = PermutationFamily(fam.ground_set, orders)
        assert refused(g, classes, mutant, base)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_moved_mid_is_refused_when_unsuitable(self, data):
        # one mid moves from its anchor to just after its other endpoint
        g, rng = sparse_degenerate(data)
        classes = random_proper_classes(g, rng)
        fam, base = subdivision_family(g, classes)
        if not g.num_edges:
            return
        i, e = rng.randrange(len(fam)), rng.randrange(g.num_edges)
        row = fam.orders[i].tolist()
        a, b = g.edge_positions[e].tolist()
        mid = g.num_vertices + e
        at = row.index(mid)
        other = b if abs(at - row.index(a)) < abs(at - row.index(b)) else a
        row.remove(mid)
        row.insert(row.index(other) + 1, mid)
        orders = fam.orders.copy()
        orders[i] = row
        mutant = PermutationFamily(fam.ground_set, orders)
        assert refused(g, classes, mutant, base) or verify_pairwise_suitable(mutant, subdivide(g)).ok

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_dropped_member_is_refused_when_unsuitable(self, data):
        # a lift leaves the family and its class order leaves F (with its
        # flip row), so |family| = |F| + 2 still holds
        g, rng = sparse_degenerate(data)
        classes = random_proper_classes(g, rng)
        fam, base = subdivision_family(g, classes)
        if not len(base.family) or not g.num_edges:
            return
        j = rng.randrange(len(base.family))
        fewer = dataclasses.replace(
            base, family=PermutationFamily(base.family.ground_set, np.delete(base.family.orders, j, axis=0)),
            flips=None if base.flips is None else np.delete(base.flips, j, axis=0))
        mutant = PermutationFamily(fam.ground_set, np.delete(fam.orders, j, axis=0))
        assert refused(g, classes, mutant, fewer) or verify_pairwise_suitable(mutant, subdivide(g)).ok

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_improper_colouring_is_refused(self, data):
        # a vertex joins a neighbour's class; the family is lifted from
        # those classes all the same, by the unchecked reference
        g, rng = sparse_degenerate(data)
        if not g.num_edges:
            return
        classes = [list(cls) for cls in random_proper_classes(g, rng)]
        u, v = g.edges[rng.randrange(g.num_edges)]
        for cls in classes:
            if u in cls:
                cls.remove(u)
            if v in cls:
                cls.append(u)
        classes = [cls for cls in classes if cls]
        base = _class_family(len(classes))
        mutant = reference_family(g, classes, base)
        assert refused(g, classes, mutant, base)
        with pytest.raises(ValueError, match="class"):
            subdivision_family(g, classes)

    def test_premises_are_named(self):
        g = cycle(5)
        classes = greedy_classes(g)
        fam, base = subdivision_family(g, classes)
        edgeless = PermutationFamily.build(fam.ground_set, ())
        cases = [
            (classes[:-1], fam, base, "base"),
            (classes[:-1] + [classes[-1][:-1]], fam, base, "classes"),
            (classes, edgeless, base, "family"),
            (classes, PermutationFamily(fam.ground_set, fam.orders[:-1]), base, "family"),
            (classes, PermutationFamily(fam.ground_set, fam.orders[::-1]), base, "members"),
        ]
        for cls, family, f, premise in cases:
            with pytest.raises(AssertionError, match=f"^{premise}: "):
                certify_subdivision_family(g, cls, family, f)
        # two classes: F must be the swap
        c4 = cycle(4)
        two = greedy_classes(c4)
        fam, base = subdivision_family(c4, two)
        identity = dataclasses.replace(base, family=PermutationFamily((0, 1), np.array([[0, 1]])))
        with pytest.raises(AssertionError, match="^base: F is not the swap"):
            certify_subdivision_family(c4, two, fam, identity)
        with pytest.raises(AssertionError, match="^classes: "):
            certify_subdivision_family(c4, [two[0] + two[1][:1], two[1][1:]], fam, base)
