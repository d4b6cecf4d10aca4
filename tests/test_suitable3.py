"""3-suitable family builders: the minimum table and the Kleitman-Spencer base."""

import math
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from sepdim.families import PermutationFamily, verify_k_suitable
from sepdim.posets import _dimension_dfs, _topo_indices
from sepdim.suitable3 import (
    EXACT_LIMIT,
    Suitable3Result,
    _kleitman_spencer_flips,
    build_3_suitable_for,
    certify_3_suitable,
    lex_xor_orders,
)


def brute_is_3_suitable(orders, n):
    """Independent oracle over explicit rank lookups."""
    for triple in combinations(range(1, n + 1), 3):
        for a in triple:
            others = [x for x in triple if x != a]
            if not any(
                all(order.index(x) < order.index(a) for x in others)
                for order in orders
            ):
                return False
    return True


def build_over(n):
    """The base over the ids 1..n."""
    return build_3_suitable_for(range(1, n + 1))


def engine_minimum(n):
    """The exact engine on the empty order over 0..n-1, one requirement
    "x and y before a" per 3-set {a, x, y} and designated a: the fewest
    members from 3 up to n, and their smallest-first extensions, sorted."""
    requirements = [
        ((tuple(v for v in triple if v != a), (a,)),)
        for triple in combinations(range(n), 3)
        for a in triple
    ]
    t, relations, _ = _dimension_dfs([0] * n, requirements, 3, n, 100_000)
    return t, sorted(_topo_indices(up, n) for up in relations)


class TestBuilders:
    def test_n2_empty(self):
        res = build_over(2)
        assert len(res.family) == 0

    def test_n3_size_three(self):
        res = build_over(3)
        assert len(res.family) == 3
        assert verify_k_suitable(res.family, 3)

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 16, 33, 64, 65, 76])
    def test_verified_and_oracle(self, n):
        res = build_over(n)
        assert verify_k_suitable(res.family, 3)
        if n <= 8:
            orders = res.family.id_orders()
            assert brute_is_3_suitable(orders, n)

    def test_deterministic(self):
        a = build_over(16)
        b = build_over(16)
        assert a.family == b.family and a.generator == b.generator

    def test_large_uses_spencer(self):
        res = build_3_suitable_for(range(200))
        assert res.generator == "kleitman-spencer"
        # spot-check suitability on a sampled sub-universe via restriction
        import random

        rng = random.Random(0)
        sample = sorted(rng.sample(range(200), 8))
        orders = res.family.id_orders()
        for triple in combinations(sample, 3):
            for a in triple:
                others = [x for x in triple if x != a]
                assert any(
                    all(m.index(x) < m.index(a) for x in others)
                    for m in orders
                )

    def test_arbitrary_id_universe(self):
        ids = (3, 17, 40, 41, 99)
        res = build_3_suitable_for(ids)
        assert res.family.ground_set == ids
        assert verify_k_suitable(res.family, 3)

    def test_size_at_most_greedy_bound(self):
        # never larger than 1 + b + C(b, 2), b = bit length of n - 1
        for n in (8, 16, 32):
            res = build_over(n)
            bits = max(1, (n - 1).bit_length())
            assert len(res.family) <= 1 + bits + bits * (bits - 1) // 2


class TestExactMinimum:
    def test_n2_zero(self):
        assert len(build_over(2).family) == 0

    def test_n3_is_three_with_oracle(self):
        # oracle: no family of size <= 2 is 3-suitable for [3]
        perms = [list(p) for p in permutations([1, 2, 3])]
        for i in range(len(perms)):
            for j in range(i, len(perms)):
                assert not brute_is_3_suitable([perms[i], perms[j]], 3)
        fam = build_over(3).family
        assert len(fam) == 3
        assert verify_k_suitable(fam, 3)
        # the bound-subdivision goldens hash these bytes
        assert fam.id_orders() == [[1, 2, 3], [1, 3, 2], [2, 3, 1]]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_smaller_family_with_oracle(self, n):
        # relabelling [n] maps any family to one whose first member is
        # the identity, so fixing it loses no family
        value = len(build_over(n).family)
        identity = list(range(1, n + 1))
        perms = [list(p) for p in permutations(identity)]
        for rest in combinations_with_replacement(perms, value - 2):
            assert not brute_is_3_suitable([identity, *rest], n)

    @pytest.mark.parametrize("n, size", [(1, 0), (2, 0), (3, 3), (4, 3), (5, 4), (6, 4)])
    def test_exact_sizes(self, n, size):
        res = build_over(n)
        assert res.generator == "exact" and res.flips is None
        assert len(res.family) == size
        assert brute_is_3_suitable(res.family.id_orders(), n)

    def test_n4_golden(self):
        fam = build_over(4).family
        assert len(fam) == 3
        assert verify_k_suitable(fam, 3)
        assert fam.id_orders() == [[1, 2, 3, 4], [1, 4, 3, 2], [2, 4, 3, 1]]

    def test_n5_golden(self):
        fam = build_over(5).family
        assert len(fam) == 4
        assert verify_k_suitable(fam, 3)
        assert fam.id_orders() == [[1, 2, 3, 4, 5], [1, 2, 3, 5, 4], [1, 4, 5, 3, 2], [2, 4, 5, 3, 1]]

    def test_guard(self):
        # the table ends at six ids; seven get the Kleitman-Spencer base
        assert EXACT_LIMIT == 6
        assert build_over(6).generator == "exact"
        assert build_over(7).generator == "kleitman-spencer"

    def test_builder_never_beats_exact_minimum(self):
        # the engine finds the table's size, and the table's rows as its witness
        for n in (3, 4, 5):
            t, members = engine_minimum(n)
            assert len(build_over(n).family) == t
            assert build_3_suitable_for(range(n)).family.orders.tolist() == members


@pytest.mark.parametrize(
    "n, size",
    [(7, 4), (8, 4), (9, 5), (16, 5), (17, 6), (64, 6), (65, 6), (1024, 6),
     (1025, 7), (20000, 7), (32768, 7), (32769, 8)],
)
def test_kleitman_spencer_base_size(n, size):
    res = build_over(n)
    assert res.generator == "kleitman-spencer"
    assert len(res.family) == size


def _least_t(n, columns):
    """Per n (at most 2^20), the least t >= 2 with 2^columns(t) >= n."""
    capacity = [min(2 ** columns(t), 2**21) for t in range(2, 12)]
    return 2 + np.searchsorted(capacity, n)


def test_kleitman_spencer_rows_against_spencer():
    # Spencer's columns are {0} | B over the (t-2)//2-subsets B of 1..t-2;
    # both formulas serve only n > EXACT_LIMIT
    n = np.arange(EXACT_LIMIT + 1, 2**20 + 1)
    ours = _least_t(n, lambda t: math.comb(t - 1, (t + 1) // 2))
    spencer = _least_t(n, lambda t: math.comb(t - 2, (t - 2) // 2))
    assert (ours <= spencer).all()
    # one row fewer at t = 4, 5 (n = 7-16) and t = 6, 7 (n = 65-32768)
    assert n[ours < spencer].tolist() == [*range(7, 17), *range(65, 32769)]
    # the builder's matrix on both sides of every step, and at the end
    step = np.flatnonzero(np.diff(ours))
    for at in sorted({*n[step].tolist(), *n[step + 1].tolist(), 2**20}):
        flips = _kleitman_spencer_flips(at)
        t = flips.shape[0]
        assert t == ours[at - n[0]]
        layer = list(combinations(range(t - 1), (t + 1) // 2))
        assert [tuple(np.flatnonzero(~column).tolist()) for column in flips.T] == layer


def test_builder_size_at_least_exact_minimum_n6():
    built = build_3_suitable_for([3, 9, 12, 40, 41, 57])
    t, members = engine_minimum(6)
    assert len(built.family) == t == 4
    assert built.family.orders.tolist() == members
    assert verify_k_suitable(built.family, 3)


def lex_xor_base(flips, n):
    flips = np.array(flips, dtype=bool)
    return Suitable3Result(PermutationFamily(tuple(range(n)), lex_xor_orders(flips, n)), "kleitman-spencer", flips)


def certified(base) -> bool:
    try:
        certify_3_suitable(base)
    except AssertionError:
        return False
    return True


class TestBaseCertificate:
    @pytest.mark.parametrize("n", list(range(3, 80)) + [100, 150, 200, 300])
    def test_agrees_with_the_triple_walk(self, n):
        base = build_over(n)
        assert (base.flips is None) == (n <= EXACT_LIMIT)
        certify_3_suitable(base)
        assert verify_k_suitable(base.family, 3)

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 33, 64, 65])
    def test_certified_flip_mutants_are_three_suitable(self, n):
        flips = build_over(n).flips
        refused = 0
        for i, p in np.ndindex(flips.shape):
            bad = flips.copy()
            bad[i, p] = not bad[i, p]
            base = lex_xor_base(bad, n)
            if certified(base):
                assert verify_k_suitable(base.family, 3), (i, p)
            else:
                refused += 1
        assert refused

    def test_missing_pattern_is_refused(self):
        # columns 0 and 1 never show (1, 1): position 0 is never after both 1 and 2
        base = lex_xor_base([[0, 0], [0, 1], [1, 0], [0, 0]], 4)
        with pytest.raises(AssertionError, match="^base: two flip columns miss"):
            certify_3_suitable(base)
        assert not verify_k_suitable(base.family, 3)
        flips = build_over(100).flips.copy()
        flips[:, 3] = flips[:, 2]
        with pytest.raises(AssertionError, match="^base: two flip columns miss"):
            certify_3_suitable(lex_xor_base(flips, 100))

    def test_other_premises_are_named(self):
        with pytest.raises(AssertionError, match="^base: a flip column takes only one value"):
            certify_3_suitable(lex_xor_base([[0, 0], [0, 1], [0, 0], [0, 1]], 4))
        with pytest.raises(AssertionError, match="^base: the flip matrix"):
            certify_3_suitable(lex_xor_base([[0, 0], [0, 1], [1, 0], [1, 1]], 5))
        base = build_over(20)
        orders = base.family.orders.copy()
        orders[0, [0, 1]] = orders[0, [1, 0]]
        moved = Suitable3Result(PermutationFamily(base.family.ground_set, orders), "spencer", base.flips)
        with pytest.raises(AssertionError, match="^base: a member does not list"):
            certify_3_suitable(moved)
        with pytest.raises(AssertionError, match="^base: 20 elements and no flip matrix"):
            certify_3_suitable(Suitable3Result(base.family, "spencer"))
        with pytest.raises(AssertionError, match="^base: the exact base is not 3-suitable"):
            certify_3_suitable(Suitable3Result(PermutationFamily.build([1, 2, 3], [(1, 2, 3)]), "exact"))
