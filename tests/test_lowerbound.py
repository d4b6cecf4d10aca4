"""Monotone subset extraction, normalization, and realizer extraction."""

import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sepdim import lowerbound
from sepdim.exact import exact_separation_dimension
from sepdim.families import PermutationFamily, SeparationWitness, verify_pairwise_suitable
from sepdim.graphs import Graph, make_edge, subdivide, subdivision_mids
from sepdim.lowerbound import (
    MonotoneSubsetResult,
    canonical_dimension_lower_bound,
    common_monotone_subset,
    extract_realizer,
    extraction_floor,
    longest_increasing_indices,
    longest_monotone_indices,
    lower_bound_harness,
    normalize_lower_bound_family,
)
from sepdim.posets import canonical_interval_order, exact_poset_dimension, is_realizer


def brute_longest_monotone(seq):
    """Independent oracle: scan all subsequences (small inputs only)."""
    best = 0
    n = len(seq)
    for size in range(n, 0, -1):
        for idxs in combinations(range(n), size):
            vals = [seq[i] for i in idxs]
            if vals == sorted(vals) or vals == sorted(vals, reverse=True):
                return size
    return best


class TestPatience:
    def test_known_sequence(self):
        seq = [2, 1, 4, 3, 5]
        idx = longest_increasing_indices(seq)
        vals = [seq[i] for i in idx]
        assert vals == sorted(vals) and len(vals) == 3

    @settings(max_examples=80)
    @given(st.permutations(list(range(8))))
    def test_matches_brute_oracle(self, seq):
        idx, direction = longest_monotone_indices(list(seq))
        vals = [seq[i] for i in idx]
        if direction > 0:
            assert vals == sorted(vals)
        else:
            assert vals == sorted(vals, reverse=True)
        assert len(idx) == brute_longest_monotone(list(seq))

    def test_empty(self):
        assert longest_increasing_indices([]) == []


def lists_monotonely(fam, subset):
    """Every member lists subset.vertices in order (+1) or reversed (-1)."""
    for order, direction in zip(fam.id_orders(), subset.directions, strict=True):
        ranks = [order.index(v) for v in subset.vertices][::direction]
        if ranks != sorted(ranks):
            return False
    return True


class TestCommonMonotoneSubset:
    def test_single_member_returns_target(self):
        fam = PermutationFamily.build(range(5), [(3, 1, 4, 0, 2)])
        res = common_monotone_subset(fam, range(5))
        assert set(res.vertices) == set(range(5))
        assert res.directions == (1,)

    def test_two_members_known_pair(self):
        fam = PermutationFamily.build(range(1, 6), [(1, 2, 3, 4, 5), (2, 1, 4, 3, 5)])
        res = common_monotone_subset(fam, range(1, 6))
        assert len(res.vertices) >= 3
        # every member restricted to the subset is monotone
        for member, direction in zip(fam.id_orders(), res.directions):
            ranks = [member.index(v) for v in res.vertices]
            expected = sorted(ranks) if direction > 0 else sorted(ranks, reverse=True)
            assert ranks == expected

    def test_identical_members_keep_everything(self):
        p = (4, 2, 0, 3, 1)
        fam = PermutationFamily.build(range(5), [p, p, p])
        res = common_monotone_subset(fam, range(5))
        assert len(res.vertices) == 5
        assert res.directions == (1, 1, 1)

    def test_erdos_szekeres_guarantee(self):
        # pairs of permutations of [m^2+1] share a monotone set of m+1
        for m in (3, 4, 5):
            size = m * m + 1
            for seed in range(20):
                rng = random.Random(seed * 31 + m)
                a = list(range(size))
                b = list(range(size))
                rng.shuffle(a)
                rng.shuffle(b)
                fam = PermutationFamily.build(range(size), [a, b])
                res = common_monotone_subset(fam, range(size))
                assert len(res.vertices) >= m + 1

    @settings(max_examples=150)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=8)
        )
    )
    def test_members_follow_their_directions(self, orders):
        fam = PermutationFamily.build(range(len(orders[0])), orders)
        assert lists_monotonely(fam, common_monotone_subset(fam, range(len(orders[0]))))


class TestExtractionFloor:
    def test_values(self):
        assert extraction_floor(3, 2) == 2  # ceil(sqrt(3)); (2, 3, 1) has no monotone triple
        assert extraction_floor(4, 2) == 2  # ceil(sqrt(4))
        assert extraction_floor(4, 3) == 2  # ceil(sqrt(ceil(sqrt(4))))
        assert extraction_floor(2, 1) == 2
        assert extraction_floor(17, 3) == 3  # ceil(sqrt(ceil(sqrt(17)))) = ceil(sqrt(5))
        assert extraction_floor(1, 4) == 1

    def test_exactness_against_floats(self):
        for target in range(1, 2000):
            for r in range(1, 5):
                f = target
                for _ in range(r - 1):
                    f = math.ceil(math.sqrt(f))
                assert extraction_floor(target, r) == f

    def test_two_member_floor_is_tight(self):
        # Erdős–Szekeres is tight: some second member keeps only the floor
        for size in range(1, 8):
            worst = min(
                len(longest_monotone_indices(list(seq))[0])
                for seq in permutations(range(size))
            )
            assert worst == extraction_floor(size, 2)

    @settings(max_examples=150)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=4)
        )
    )
    def test_extraction_always_meets_floor(self, orders):
        fam = PermutationFamily.build(range(len(orders[0])), orders)
        res = common_monotone_subset(fam, range(len(orders[0])))
        assert len(res.vertices) >= extraction_floor(len(orders[0]), len(orders))


def _list_normalize(fam, g, subset):
    """Test-only oracle: the normalization as list surgery on id orders.

    Each member is reversed where its direction is -1; then, pair by pair
    in lexicographic order, a mid after its right endpoint is moved just
    before it and a mid before its left endpoint just after it.
    """
    xs = subset.vertices
    mid_of = dict(zip(g.edges, subdivision_mids(g)))
    members = fam.id_orders()
    for order, direction in zip(members, subset.directions, strict=True):
        if direction < 0:
            order.reverse()
    pairs = [
        (s, t) for s in range(len(xs)) for t in range(s + 1, len(xs))
        if make_edge(xs[s], xs[t]) in mid_of
    ]
    for order in members:
        for s, t in pairs:
            u = mid_of[make_edge(xs[s], xs[t])]
            iu = order.index(u)
            if iu > order.index(xs[t]):
                order.pop(iu)
                order.insert(order.index(xs[t]), u)
            elif iu < order.index(xs[s]):
                order.pop(iu)
                order.insert(order.index(xs[s]) + 1, u)
    return PermutationFamily.build(fam.ground_set, members)


class TestNormalizeAndExtract:
    def _k3_setup(self):
        k3 = Graph.from_edges([(1, 2), (1, 3), (2, 3)])
        gsub = subdivide(k3)
        return exact_separation_dimension(gsub, limit=6).witness, gsub, k3

    def test_reversal_applied(self):
        fam, gsub, k3 = self._k3_setup()
        subset = common_monotone_subset(fam, k3.vertices)
        normalized = normalize_lower_bound_family(fam, k3, subset)
        xs = subset.vertices
        for member in normalized.id_orders():
            ranks = [member.index(x) for x in xs]
            assert ranks == sorted(ranks)

    def test_mids_between_endpoints(self):
        fam, gsub, k3 = self._k3_setup()
        mid_of = dict(zip(k3.edges, subdivision_mids(k3)))
        subset = common_monotone_subset(fam, k3.vertices)
        normalized = normalize_lower_bound_family(fam, k3, subset)
        xs = subset.vertices
        for member in normalized.id_orders():
            rank = {v: i for i, v in enumerate(member)}
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    lo, hi = sorted((xs[i], xs[j]))
                    mid = mid_of[(lo, hi)]
                    assert rank[xs[i]] < rank[mid] < rank[xs[j]]

    def test_normalization_preserves_suitability(self):
        fam, gsub, k3 = self._k3_setup()
        subset = common_monotone_subset(fam, k3.vertices)
        normalized = normalize_lower_bound_family(fam, k3, subset)
        assert verify_pairwise_suitable(normalized, gsub).ok

    def test_relocation_example(self):
        # mid placed after its right endpoint must move to its immediate
        # predecessor and keep the family suitable
        g = Graph.from_edges([(1, 2)])
        (mid,) = subdivision_mids(g)
        fam = PermutationFamily.build(subdivide(g).vertices, [(1, 2, mid)])
        normalized = normalize_lower_bound_family(fam, g, MonotoneSubsetResult((1, 2), (1,)))
        assert normalized.id_orders() == [[1, mid, 2]]

    def test_reversal_follows_directions(self):
        # a member with direction -1 is reversed before relocation
        g = Graph.from_edges([(1, 2)])
        (mid,) = subdivision_mids(g)
        fam = PermutationFamily.build(subdivide(g).vertices, [(mid, 2, 1)])
        normalized = normalize_lower_bound_family(fam, g, MonotoneSubsetResult((1, 2), (-1,)))
        assert normalized.id_orders() == [[1, mid, 2]]

    def test_direction_that_disagrees_with_a_member_is_refused(self):
        # (mid, 2, 1) lists the subset (1, 2) reversed, so +1 is wrong
        g = Graph.from_edges([(1, 2)])
        (mid,) = subdivision_mids(g)
        fam = PermutationFamily.build(subdivide(g).vertices, [(mid, 2, 1)])
        with pytest.raises(ValueError, match="direction"):
            normalize_lower_bound_family(fam, g, MonotoneSubsetResult((1, 2), (1,)))
        two = PermutationFamily.build(subdivide(g).vertices, [(1, mid, 2), (1, 2, mid)])
        with pytest.raises(ValueError, match="direction"):
            normalize_lower_bound_family(two, g, MonotoneSubsetResult((1, 2), (1, -1)))

    def test_direction_list_of_wrong_length_is_refused(self):
        g = Graph.from_edges([(1, 2)])
        (mid,) = subdivision_mids(g)
        fam = PermutationFamily.build(subdivide(g).vertices, [(1, mid, 2), (2, mid, 1)])
        for directions in ((1,), (1, -1, 1)):
            with pytest.raises(ValueError, match="one direction per family member"):
                normalize_lower_bound_family(fam, g, MonotoneSubsetResult((1, 2), directions))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.permutations(list(range(1, n + 1 + math.comb(n, 2)))),
                         min_size=1, max_size=3),
            )
        )
    )
    def test_matches_list_surgery(self, case):
        # random families are not suitable, so the re-verification is stubbed
        n, orders = case
        kn = Graph.from_edges(combinations(range(1, n + 1), 2))
        fam = PermutationFamily.build(subdivide(kn).vertices, orders)
        subset = common_monotone_subset(fam, kn.vertices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lowerbound, "verify_pairwise_suitable", lambda *_: SeparationWitness(True))
            normalized = normalize_lower_bound_family(fam, kn, subset)
        assert normalized == _list_normalize(fam, kn, subset)

    def test_extract_realizer_p2(self):
        g = Graph.from_edges([(1, 2)])
        (mid,) = subdivision_mids(g)
        fam = PermutationFamily.build(subdivide(g).vertices, [(1, mid, 2)])
        realizer = extract_realizer(fam, g, (1, 2))
        assert len(realizer) == 1

    def test_extract_realizer_k3(self):
        fam, gsub, k3 = self._k3_setup()
        subset = common_monotone_subset(fam, k3.vertices)
        normalized = normalize_lower_bound_family(fam, k3, subset)
        realizer = extract_realizer(normalized, k3, subset.vertices)
        p = len(subset.vertices)
        assert is_realizer(realizer, canonical_interval_order(p))
        dim = exact_poset_dimension(canonical_interval_order(p), limit=4).dimension
        assert len(fam) >= dim


class TestHarness:
    def test_n2_trivial(self):
        rep = lower_bound_harness(2)
        assert rep.pi == 0 and rep.subset is None

    def test_n3_full_pipeline(self):
        rep = lower_bound_harness(3)
        assert rep.exact and rep.pi == 2
        assert rep.floor == 2 and rep.floor_met
        assert rep.realizer is not None
        assert rep.bound_holds

    def test_construction_only_mode(self):
        rep = lower_bound_harness(8)
        assert not rep.exact
        assert rep.realizer is not None
        assert rep.bound_holds

    def test_construction_mode_verifies_once(self, monkeypatch):
        # only the normalized family is checked exhaustively
        calls = []

        def counted(fam, g):
            calls.append(len(fam))
            return verify_pairwise_suitable(fam, g)

        monkeypatch.setattr(lowerbound, "verify_pairwise_suitable", counted)
        rep = lower_bound_harness(12)
        assert not rep.exact and rep.bound_holds and rep.floor_met
        assert calls == [len(rep.normalized)]


def test_canonical_lower_bound_values():
    assert canonical_dimension_lower_bound(2) == 1
    assert canonical_dimension_lower_bound(3) == 1
    assert canonical_dimension_lower_bound(5) == 1
    assert canonical_dimension_lower_bound(17) == 2
