"""Exact separation-dimension search engine."""

import random
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepdim.exact import (
    SearchBudgetExceeded,
    exact_separation_dimension,
)
from sepdim.families import (
    disjoint_edge_pairs,
    separates,
    verify_pairwise_suitable,
)
from sepdim.graphs import Graph, subdivide
from sepdim.lowerbound import lower_bound_harness
from sepdim.posets import Poset, canonical_interval_order, exact_poset_dimension


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def _separated_by(ranks, e, f):
    """Boolean vector over rank rows: does each order separate e and f?"""
    re, rf = ranks[:, list(e)], ranks[:, list(f)]
    return (re.max(axis=1) < rf.min(axis=1)) | (rf.max(axis=1) < re.min(axis=1))


def brute_dimension(g):
    """Oracle: the separated-pair sets of all n! orders, then the smallest covering t."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    pairs = [([pos[v] for v in e], [pos[v] for v in f]) for e, f in disjoint_edge_pairs(g)]
    if not pairs:
        return 0
    ranks = np.argsort(np.asarray(list(permutations(range(len(pos))))), axis=1)
    seps = np.stack([_separated_by(ranks, e, f) for e, f in pairs], axis=1)
    masks = {int.from_bytes(np.packbits(row).tobytes(), "big") for row in seps}
    full = int.from_bytes(np.packbits(np.ones(len(pairs), dtype=bool)).tobytes(), "big")
    # a set inside another order's set never helps a smallest cover
    maximal = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    t = 1
    while not any(reduce(or_, c) == full for c in combinations(maximal, t)):
        t += 1
    return t


def brute_no_single_permutation(g):
    """Oracle: no one permutation separates all disjoint pairs."""
    pairs = list(disjoint_edge_pairs(g))
    for order in permutations(g.vertices):
        if all(separates(order, e, f) for e, f in pairs):
            return False
    return True


class TestGroundTruth:
    def test_k3_is_zero(self):
        r = exact_separation_dimension(complete(3), limit=3)
        assert r.dimension == 0 and len(r.witness) == 0

    def test_p4_is_one(self):
        r = exact_separation_dimension(path(4), limit=3)
        assert r.dimension == 1
        assert verify_pairwise_suitable(r.witness, path(4)).ok

    def test_c4_is_two_with_oracle(self):
        g = cycle(4)
        assert brute_no_single_permutation(g)  # oracle: one member impossible
        r = exact_separation_dimension(g, limit=3)
        assert r.dimension == 2
        assert verify_pairwise_suitable(r.witness, g).ok

    def test_k4_golden(self):
        r = exact_separation_dimension(complete(4), limit=4)
        assert r.dimension == 3
        assert verify_pairwise_suitable(r.witness, complete(4)).ok

    def test_k5_golden(self):
        r = exact_separation_dimension(complete(5), limit=4)
        assert r.dimension == 3
        assert verify_pairwise_suitable(r.witness, complete(5)).ok

    def test_k35_needs_three_on_eight_vertices(self):
        g = Graph.from_edges([(u, v) for u in (1, 2, 3) for v in range(4, 9)])
        assert exact_separation_dimension(g, limit=2).dimension is None
        r = exact_separation_dimension(g, limit=4)
        assert r.dimension == 3
        assert verify_pairwise_suitable(r.witness, g).ok

    def test_limit_zero_exceeded(self):
        r = exact_separation_dimension(complete(4), limit=0)
        assert r.dimension is None

    def test_limit_below_answer_exceeded(self):
        r = exact_separation_dimension(complete(4), limit=2)
        assert r.dimension is None

    def test_budget_error_is_distinct(self):
        with pytest.raises(SearchBudgetExceeded):
            exact_separation_dimension(complete(6), limit=4, budget=10)

    @pytest.mark.parametrize("run", [
        lambda budget: exact_separation_dimension(complete(4), limit=3, budget=budget),
        # no search runs on a star, a chain or K_12^{1/2}, and the value is still refused
        lambda budget: exact_separation_dimension(Graph.from_edges([(0, 1), (0, 2), (0, 3)]), 2, budget),
        lambda budget: exact_poset_dimension(canonical_interval_order(5).poset, limit=4, budget=budget),
        lambda budget: exact_poset_dimension(Poset.build([1, 2, 3], [(1, 2), (2, 3)]), 2, budget),
        lambda budget: lower_bound_harness(3, budget=budget),
        lambda budget: lower_bound_harness(12, budget=budget),
    ])
    def test_negative_budget_is_a_value_error(self, run):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            run(-1)
        run(10**6)

    def test_too_many_vertices_guarded(self):
        g = Graph.from_edges([(i, i + 1) for i in range(20)])
        with pytest.raises(SearchBudgetExceeded):
            exact_separation_dimension(g, limit=2)

    def test_deterministic_witness(self):
        a = exact_separation_dimension(cycle(5), limit=3)
        b = exact_separation_dimension(cycle(5), limit=3)
        assert a.witness == b.witness


class TestMonotonicity:
    def test_subgraph_monotone_random(self):
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(4, 6)
            edges = {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(3, 2 * n))
            }
            g = Graph.build(range(1, n + 1), edges)
            pi = exact_separation_dimension(g, limit=4).dimension
            for v in g.vertices:
                sub = Graph.build(set(g.vertices) - {v}, [e for e in g.edges if v not in e])
                assert exact_separation_dimension(sub, limit=4).dimension <= pi
            for e in g.edges:
                sub = Graph.build(g.vertices, set(g.edges) - {e})
                assert exact_separation_dimension(sub, limit=4).dimension <= pi


def _cross_check(g):
    r = exact_separation_dimension(g, limit=5)
    assert r.dimension == brute_dimension(g)
    assert len(r.witness) == r.dimension
    assert verify_pairwise_suitable(r.witness, g).ok


class TestEngineCrossCheck:
    def test_engine_agrees_with_brute_force_on_named_graphs(self):
        for g in [cycle(4), cycle(5), cycle(6), complete(4), complete(5), path(6)]:
            _cross_check(g)

    def test_cross_check_random_graphs(self):
        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(4, 7)
            mmax = n * (n - 1) // 2 if n <= 6 else int(1.6 * n)
            m = rng.randint(3, mmax)
            edges = set()
            while len(edges) < m:
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
            _cross_check(Graph.build(range(1, n + 1), edges))


class TestSubdividedClique:
    def test_k2_trivial(self):
        assert exact_separation_dimension(subdivide(complete(2)), limit=6).dimension == 0

    def test_k3_half_is_two(self):
        gsub = subdivide(complete(3))
        r = exact_separation_dimension(gsub, limit=6)
        assert r.dimension == 2
        assert verify_pairwise_suitable(r.witness, gsub).ok

    def test_k4_half_is_two(self):
        gsub = subdivide(complete(4))
        r = exact_separation_dimension(gsub, limit=6)
        assert r.dimension == 2
        assert verify_pairwise_suitable(r.witness, gsub).ok

    def test_guard_above_four(self):
        # K5^{1/2} has 15 vertices, above SEARCH_VERTEX_MAX = 12
        assert subdivide(complete(5)).num_vertices == 15
        with pytest.raises(SearchBudgetExceeded):
            exact_separation_dimension(subdivide(complete(5)), limit=6)


@st.composite
def small_graphs(draw, max_vertices=7):
    n = draw(st.integers(1, max_vertices))
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)))
    pairs = list(combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.build(ids, edges)


def test_isolated_vertices_leave_the_search():
    # C4 plus 8 isolated vertices: an earlier search tried every placement
    # of the isolated ones and ran out of a 2,000,000-node budget
    g = Graph.from_edges([(i, i % 4 + 1) for i in range(1, 5)], isolated=range(5, 13))
    r = exact_separation_dimension(g, limit=3, budget=10_000)
    assert r.dimension == 2
    assert r.witness.ground_set == g.vertices
    assert all(m[4:] == list(range(5, 13)) for m in r.witness.id_orders())
    assert verify_pairwise_suitable(r.witness, g).ok


def test_cost_does_not_depend_on_labels():
    # a 10-vertex lollipop (C5 plus a 5-vertex tail) under 30 relabellings
    # onto ids 1..100; a search that built members vertex by vertex in id
    # order needed 43 nodes on most of them and up to 170,727 on others
    shape = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 1) for i in range(4, 9)]
    for seed in range(30):
        ids = random.Random(seed).sample(range(1, 101), 10)
        g = Graph.from_edges([(ids[u], ids[v]) for u, v in shape])
        r = exact_separation_dimension(g, limit=3, budget=1_000)
        assert r.dimension == 2, seed
        assert verify_pairwise_suitable(r.witness, g).ok, seed


@pytest.mark.parametrize("edges", [
    [(u, v) for u in range(1, 5) for v in range(5, 9)],
    [(i + 1, (i + 1) % 5 + 1) for i in range(5)] + [(i + 6, (i + 2) % 5 + 6) for i in range(5)]
    + [(i + 1, i + 6) for i in range(5)],
], ids=["k44", "petersen"])
def test_three_members_on_eight_and_ten_vertices(edges):
    g = Graph.from_edges(edges)
    assert exact_separation_dimension(g, limit=2).dimension is None
    r = exact_separation_dimension(g, limit=3)
    assert r.dimension == 3
    assert verify_pairwise_suitable(r.witness, g).ok


def test_complete_graph_dimension_nondecreasing():
    values = []
    for n in (3, 4, 5, 6):
        r = exact_separation_dimension(complete(n), limit=5)
        if r.witness is not None and len(r.witness):
            assert verify_pairwise_suitable(r.witness, complete(n)).ok
        values.append(r.dimension)
    assert values == sorted(values)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_vertices=6))
def test_dimension_matches_brute_force(g):
    # sparse ids, and every vertex an edge list misses is isolated
    _cross_check(g)
