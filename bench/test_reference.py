"""Tests of the benchmark's reference checker (run: python3 -m pytest bench)."""

import random
from itertools import combinations

import numpy as np
import pytest

import reference as ref

C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]


def _clique(n):
    return [(u, v) for u, v in combinations(range(n), 2)]


def _slow_first_unseparated(edges, orders):
    """Pure-Python scan of all disjoint edge pairs in lexicographic order."""
    ranks = [{v: i for i, v in enumerate(o)} for o in orders]
    for e, f in combinations(sorted(edges), 2):
        if set(e) & set(f):
            continue
        if not any(max(r[e[0]], r[e[1]]) < min(r[f[0]], r[f[1]])
                   or max(r[f[0]], r[f[1]]) < min(r[e[0]], r[e[1]]) for r in ranks):
            return e, f
    return None


def _random_graph(rng, n, m):
    edges = _clique(n)
    rng.shuffle(edges)
    return list(range(n)), sorted(edges[:m])


def test_c4_suitable_family_and_counterexample():
    vertices = [1, 2, 3, 4]
    assert ref.first_unseparated(vertices, C4, [[1, 2, 3, 4], [2, 3, 1, 4]]) is None
    assert ref.first_unseparated(vertices, C4, [[1, 2, 3, 4]]) == ((1, 4), (2, 3))


def test_planted_non_suitable_family_is_rejected():
    rng = random.Random(7)
    vertices, edges = _random_graph(rng, 30, 90)
    orders = ref.suitable_random_family(vertices, edges, np.random.default_rng(7))
    assert ref.first_unseparated(vertices, edges, orders) is None
    # Plant: interleave one disjoint pair (a, b) | (c, d) as a < c < b < d in every member.
    e, f = next((e, f) for e, f in combinations(edges, 2) if not set(e) & set(f))
    planted = []
    for order in orders:
        order = list(order)
        slots = sorted(order.index(v) for v in (*e, *f))
        for slot, v in zip(slots, (e[0], f[0], e[1], f[1])):
            order[slot] = v
        planted.append(order)
    found = ref.first_unseparated(vertices, edges, planted)
    assert found is not None
    assert found <= (e, f)
    assert found == _slow_first_unseparated(edges, planted)


@pytest.mark.parametrize("seed", range(20))
def test_matches_slow_scan_on_random_families(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    vertices, edges = _random_graph(rng, n, rng.randint(2, len(_clique(n))))
    orders = [rng.sample(vertices, n) for _ in range(rng.randint(1, 4))]
    assert ref.first_unseparated(vertices, edges, orders) == _slow_first_unseparated(edges, orders)


def test_pairs_cross_block_boundaries():
    rng = random.Random(3)
    vertices, edges = _random_graph(rng, 40, ref.PAIR_BLOCK + 60)
    pairs = np.concatenate(list(ref.pair_blocks(vertices, edges)))
    assert len(pairs) == ref.count_disjoint_pairs(edges)
    keys = [tuple(int(vertices[i]) for i in row) for row in pairs]
    assert keys == sorted(keys)


def test_rejects_orders_that_are_not_permutations():
    with pytest.raises(ValueError):
        ref.first_unseparated([1, 2, 3, 4], C4, [[1, 2, 3, 3]])


@pytest.mark.parametrize("edges, dim", [
    (_clique(3), 0),
    ([(0, 1), (1, 2), (2, 3)], 1),
    (C4, 2),
    (_clique(4), 3),
    (_clique(5), 3),
    (_clique(6), 4),
])
def test_brute_force_separation_dimension(edges, dim):
    vertices = sorted({v for e in edges for v in e})
    assert ref.separation_dimension(vertices, edges) == dim


def test_brute_force_subdivided_triangle():
    sub_vertices, sub_edges, _ = ref.subdivide([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert ref.separation_dimension(sub_vertices, sub_edges) == 2


def test_degeneracy_and_coloring():
    assert ref.degeneracy(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)]) == 1
    assert ref.degeneracy(range(6), [(i, (i + 1) % 6) for i in range(6)]) == 2
    assert ref.degeneracy(range(5), _clique(5)) == 4
    assert ref.is_proper_coloring([1, 2, 3, 4], C4, {1: 1, 2: 2, 3: 1, 4: 2})
    assert not ref.is_proper_coloring([1, 2, 3, 4], C4, {1: 1, 2: 1, 3: 2, 4: 2})
    assert not ref.is_proper_coloring([1, 2, 3, 4], C4, {1: 1, 2: 2, 3: 1})


def test_subdivide_numbers_mids_in_edge_order():
    vertices, edges, mids = ref.subdivide([1, 2, 7], [(1, 2), (2, 7)])
    assert mids == [((1, 2), 8), ((2, 7), 9)]
    assert vertices == [1, 2, 7, 8, 9]
    assert edges == [(1, 8), (2, 8), (2, 9), (7, 9)]


def test_interval_realizer():
    intervals = ref.canonical_intervals(3)
    good = [[(1, 3), (1, 2), (2, 3)], [(1, 2), (2, 3), (1, 3)]]
    assert ref.is_interval_realizer(intervals, good)
    assert not ref.is_interval_realizer(intervals, good[:1])
    assert not ref.is_interval_realizer(intervals, [[(2, 3), (1, 2), (1, 3)], good[1]])


def test_edge_list_round_trip():
    text = ref.edge_list_text([1, 2, 3, 5, 9], [(1, 5), (2, 3)])
    assert ref.parse_edge_list(text) == ([1, 2, 3, 5, 9], [(1, 5), (2, 3)])
