"""Posets, interval orders, realizers, exact dimension, heuristic."""

import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from sepdim.graphs import Graph
from sepdim.posets import (
    IntervalOrder,
    Poset,
    PosetError,
    SearchBudgetExceeded,
    canonical_interval_order,
    exact_poset_dimension,
    height,
    interval_order_from,
    is_linear_extension,
    is_realizer,
    realizer_heuristic,
)


def brute_dimension(p: Poset, limit: int) -> int | None:
    """Independent oracle: try all tuples of linear extensions."""
    exts = [
        order
        for order in permutations(p.elements)
        if is_linear_extension(order, p)
    ]
    from itertools import combinations_with_replacement

    for t in range(1, limit + 1):
        for combo in combinations_with_replacement(exts, t):
            if is_realizer(tuple(combo), p):
                return t
    return None


class TestPoset:
    def test_transitive_closure(self):
        p = Poset.build([1, 2, 3], [(1, 2), (2, 3)])
        assert p.less(1, 3)

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            Poset.build([1, 2], [(1, 2), (2, 1)])

    def test_reflexive_rejected(self):
        with pytest.raises(PosetError):
            Poset.build([1], [(1, 1)])

    def test_incomparable_pairs(self):
        p = Poset.build([1, 2, 3], [(1, 3)])
        assert p.incomparable_pairs() == [(1, 2), (2, 3)]


class TestHeight:
    def test_antichain(self):
        p = Poset.build(range(5), [])
        assert height(p) == 1

    def test_canonical_chain(self):
        for n in (3, 4, 6):
            assert height(canonical_interval_order(n).poset) == n - 1

    def test_empty(self):
        assert height(Poset.build([], [])) == 0


class TestIntervalOrder:
    def test_from_path_identity(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        order = interval_order_from(g, (1, 2, 3))
        assert order.intervals == ((1, 2), (2, 3))
        assert order.poset.less((1, 2), (2, 3))

    def test_from_triangle(self):
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3)])
        order = interval_order_from(g, (1, 2, 3))
        assert order.intervals == ((1, 2), (1, 3), (2, 3))
        assert order.poset.relation == frozenset({((1, 2), (2, 3))})

    def test_edgeless(self):
        g = Graph.build([1, 2], [])
        order = interval_order_from(g, (1, 2))
        assert order.intervals == ()

    @pytest.mark.parametrize("sigma,match", [
        ((1, 2, 2, 3), "repeated"),
        ((1, 2), "cover"),
        ((1, 2, 3, 4), "cover"),
        ((1, 2, 4), "cover"),
    ])
    def test_rejects_orders_off_the_vertex_set(self, sigma, match):
        g = Graph.from_edges([(1, 2), (2, 3)])
        with pytest.raises(ValueError, match=match):
            interval_order_from(g, sigma)

    def test_canonical_counts(self):
        assert len(canonical_interval_order(2)) == 1
        assert len(canonical_interval_order(4)) == 6

    def test_canonical_rejects_small(self):
        with pytest.raises(ValueError):
            canonical_interval_order(1)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(PosetError):
            IntervalOrder.build([(2, 2)])


class TestIsRealizer:
    def test_chain_single_extension(self):
        p = Poset.build([1, 2, 3], [(1, 2), (2, 3)])
        assert is_realizer(((1, 2, 3),), p)

    def test_antichain_needs_reversal(self):
        p = Poset.build([1, 2], [])
        assert not is_realizer(((1, 2),), p)
        assert is_realizer(((1, 2), (2, 1)), p)

    def test_invalid_extension(self):
        p = Poset.build([1, 2], [(1, 2)])
        assert not is_realizer(((2, 1),), p)


class TestExactDimension:
    def test_chain_is_one(self):
        p = Poset.build(range(5), [(i, i + 1) for i in range(4)])
        res = exact_poset_dimension(p, limit=3)
        assert res.dimension == 1

    def test_two_antichain(self):
        res = exact_poset_dimension(Poset.build([1, 2], []), limit=3)
        assert res.dimension == 2

    def test_singleton_and_empty(self):
        assert exact_poset_dimension(Poset.build([1], []), limit=2).dimension == 1
        assert exact_poset_dimension(Poset.build([], []), limit=2).dimension == 1

    def test_c3_with_oracle(self):
        p = canonical_interval_order(3).poset
        assert brute_dimension(p, 3) == 2  # oracle first
        res = exact_poset_dimension(p, limit=3)
        assert res.dimension == 2
        assert is_realizer(res.realizer, p)

    def test_c2_with_oracle(self):
        p = canonical_interval_order(2).poset
        assert brute_dimension(p, 2) == 1
        assert exact_poset_dimension(p, limit=2).dimension == 1

    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 3)]
    )
    def test_canonical_goldens(self, n, expected):
        p = canonical_interval_order(n).poset
        res = exact_poset_dimension(p, limit=4)
        assert res.dimension == expected
        assert is_realizer(res.realizer, p)

    @pytest.mark.parametrize("n,nodes", [(4, 12), (5, 49)])
    def test_budget_equal_to_node_count_suffices(self, n, nodes):
        # C_5 fails at t = 2 first, so its budget spans two searches
        p = canonical_interval_order(n).poset
        assert exact_poset_dimension(p, limit=4).nodes == nodes
        assert exact_poset_dimension(p, limit=4, budget=nodes).nodes == nodes
        with pytest.raises(SearchBudgetExceeded):
            exact_poset_dimension(p, limit=4, budget=nodes - 1)

    def test_exceeded_below_limit(self):
        p = Poset.build([1, 2], [])
        res = exact_poset_dimension(p, limit=1)
        assert res.exceeded and res.dimension is None

    def test_antichain_needs_no_recursion(self):
        # 20 pairwise overlapping intervals: one search level per
        # requirement met, deeper than a lowered recursion limit allows
        p = IntervalOrder.build([(i, 100 + i) for i in range(20)]).poset
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            res = exact_poset_dimension(p, limit=3)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.dimension, res.nodes) == (2, 381)
        assert is_realizer(res.realizer, p)

    def test_standard_example_s3(self):
        # dimension-3 poset: 3 minimal vs 3 maximal elements,
        # a_i below every b_j except b_i
        pairs = [
            (f"a{i}", f"b{j}") for i in range(3) for j in range(3) if i != j
        ]
        p = Poset.build([f"a{i}" for i in range(3)] + [f"b{j}" for j in range(3)], pairs)
        assert exact_poset_dimension(p, limit=4).dimension == 3


@st.composite
def small_posets(draw):
    # the drawn element order is a linear extension of every drawn pair
    elements = draw(st.lists(st.integers(0, 20), unique=True, max_size=5))
    pairs = [(x, y) for i, x in enumerate(elements) for y in elements[i + 1:]]
    relation = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Poset.build(elements, relation)


@settings(max_examples=80, deadline=None)
@given(small_posets())
def test_dimension_matches_brute_force(p):
    # at most 5 elements: dimension at most 2 (Hiraguchi), so limit 3 decides
    res = exact_poset_dimension(p, limit=3)
    assert res.dimension == brute_dimension(p, 3)
    assert is_realizer(res.realizer, p)


class TestHeuristic:
    def test_chain(self):
        order = IntervalOrder.build([(1, 2), (2, 3), (3, 4)])
        assert len(realizer_heuristic(order)) == 1

    def test_c3_matches_exact(self):
        order = canonical_interval_order(3)
        assert len(realizer_heuristic(order)) == 2

    def test_overlapping_antichain(self):
        order = IntervalOrder.build([(1, 10), (2, 11), (3, 12)])
        r = realizer_heuristic(order)
        assert len(r) == 2
        assert is_realizer(r, order.poset)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_valid_on_canonical(self, n):
        order = canonical_interval_order(n)
        r = realizer_heuristic(order)
        assert is_realizer(r, order.poset)
        exact = exact_poset_dimension(order.poset, limit=4).dimension
        assert len(r) >= exact

    def test_empty_and_single(self):
        assert len(realizer_heuristic(IntervalOrder.build([]))) == 1
        assert len(realizer_heuristic(IntervalOrder.build([(1, 2)]))) == 1


def test_dimension_monotone_in_n():
    dims = [
        exact_poset_dimension(canonical_interval_order(n).poset, limit=4).dimension
        for n in range(2, 8)
    ]
    assert all(b >= a for a, b in zip(dims, dims[1:]))
