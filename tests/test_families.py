"""Separation predicates, suitability verification, embeddings, serialization."""

import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sepdim import families
from sepdim.families import (
    BLOCK_ROWS,
    DENSE_MEMBERS,
    ID_TABLE_SPAN,
    PermutationFamily,
    SeparationWitness,
    _family_arrays,
    _family_from_lists,
    _lane_words,
    _scan_order,
    disjoint_edge_pairs,
    family_from_json,
    family_to_json,
    separates,
    verify_k_suitable,
    verify_pairwise_suitable,
    verify_pairwise_suitable_sampled,
)
from sepdim.graphs import Graph


def brute_verify(fam, g):
    """Independent oracle: nested loops over pairs and members."""
    edges = g.edges
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if set(e) & set(f):
                continue
            if not any(separates(m, e, f) for m in fam.id_orders()):
                return (e, f)
    return None


def rng_order(n, seed):
    """A seeded random order of range(n)."""
    return random.Random(seed).sample(range(n), n)


C4 = Graph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
K3 = Graph.from_edges([(1, 2), (1, 3), (2, 3)])


class TestSeparates:
    def test_blocks_in_order(self):
        p = (10, 11, 12, 13)
        assert separates(p, (10, 11), (12, 13))

    def test_interleaved(self):
        p = (1, 3, 2, 4)
        assert not separates(p, (1, 2), (3, 4))

    def test_nested(self):
        p = (1, 3, 4, 2)
        assert not separates(p, (1, 2), (3, 4))

    def test_non_disjoint_rejected(self):
        p = (1, 2, 3)
        with pytest.raises(ValueError, match="disjoint"):
            separates(p, (1, 2), (2, 3))

    def test_outside_domain_rejected(self):
        p = (1, 2, 3, 4)
        with pytest.raises(ValueError, match="domain"):
            separates(p, (1, 2), (3, 9))

    @given(st.permutations(list(range(6))))
    def test_symmetric_and_reversal_invariant(self, p):
        e, f = (0, 1), (2, 3)
        assert separates(p, e, f) == separates(p, f, e)
        assert separates(p, e, f) == separates(p[::-1], e, f)


class TestVerifyPairwiseSuitable:
    def test_k3_empty_family_ok(self):
        fam = PermutationFamily.build([1, 2, 3], ())
        assert verify_pairwise_suitable(fam, K3).ok

    def test_c4_single_identity_counterexample(self):
        fam = PermutationFamily.build([1, 2, 3, 4], [(1, 2, 3, 4)])
        witness = verify_pairwise_suitable(fam, C4)
        assert not witness.ok
        assert witness.counterexample == ((1, 4), (2, 3))

    def test_c4_two_members_ok(self):
        fam = PermutationFamily.build(
            [1, 2, 3, 4], [(1, 2, 3, 4), (2, 3, 4, 1)]
        )
        assert brute_verify(fam, C4) is None  # oracle first
        assert verify_pairwise_suitable(fam, C4).ok

    def test_ground_set_mismatch(self):
        fam = PermutationFamily.build([1, 2, 3], [(1, 2, 3)])
        with pytest.raises(ValueError, match="ground set"):
            verify_pairwise_suitable(fam, C4)

    def test_matches_brute_oracle_on_randoms(self):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(4, 9)
            edges = {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(2, 2 * n))
            }
            g = Graph.build(range(n), edges)
            members = []
            for _ in range(rng.randint(0, 3)):
                order = list(range(n))
                rng.shuffle(order)
                members.append(order)
            fam = PermutationFamily.build(range(n), members)
            expected = brute_verify(fam, g)
            witness = verify_pairwise_suitable(fam, g)
            assert witness.ok == (expected is None)
            assert witness.counterexample == expected

    def test_sampled_counterexample_is_unseparated(self):
        found = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(2, 3 * n))}
            g = Graph.build(range(n), edges)
            members = [rng.sample(range(n), n) for _ in range(rng.randint(0, 3))]
            fam = PermutationFamily.build(range(n), members)
            witness = verify_pairwise_suitable_sampled(fam, g, 40, seed=seed)
            if brute_verify(fam, g) is None:
                assert witness.ok
            elif not witness.ok:
                found += 1
                e, f = witness.counterexample
                assert e in g.edges and f in g.edges and not set(e) & set(f)
                assert not any(separates(p, e, f) for p in fam.id_orders())
        assert found > 10

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("members", [0, 2])
    def test_fewer_than_two_edges_ok(self, m, members):
        g = Graph.build(range(5), [(0, 1)][:m])
        fam = PermutationFamily.build(range(5), [rng_order(5, s) for s in range(members)])
        assert verify_pairwise_suitable(fam, g) == SeparationWitness(True)
        assert verify_pairwise_suitable_sampled(fam, g, 10, seed=0).ok

    @pytest.mark.parametrize("samples", [0, 1, 10**6])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sampled_is_the_exhaustive_check(self, samples, seed):
        # the sampled name ignores its sample count and seed
        suitable = PermutationFamily.build([1, 2, 3, 4], [(1, 2, 3, 4), (2, 3, 4, 1)])
        failing = PermutationFamily.build([1, 2, 3, 4], [(1, 3, 2, 4)])
        for fam in (suitable, failing):
            expected = verify_pairwise_suitable(fam, C4)
            assert verify_pairwise_suitable_sampled(fam, C4, samples, seed) == expected
        assert verify_pairwise_suitable(suitable, C4).ok
        assert not verify_pairwise_suitable(failing, C4).ok

    def test_empty_family_many_blocks(self):
        # no member: the first disjoint pair, with shared-vertex pairs skipped
        rng = random.Random(11)
        edges = {tuple(sorted(rng.sample(range(60), 2))) for _ in range(2 * BLOCK_ROWS + 40)}
        g = Graph.build(range(60), edges)
        fam = PermutationFamily.build(range(60), [])
        assert g.num_edges > 2 * BLOCK_ROWS
        assert verify_pairwise_suitable(fam, g).counterexample == brute_verify(fam, g)

    @pytest.mark.parametrize("size", [1, DENSE_MEMBERS - 1, DENSE_MEMBERS + 4])
    @pytest.mark.parametrize("where", ["late block", "block boundary"])
    def test_planted_pair_found_in_any_block(self, where, size):
        # Paths 10t - 10t+5 - 10t+6, scrambled in every member but one
        # (the first past the dense prefix when there is one), which keeps
        # each path contiguous and so alone separates every two disjoint
        # path edges; then fresh vertices x, x+1, x+2, x+3 that every
        # member lists last, in that order, and two edges e = (x, x+2),
        # f = (x+1, x+3) on them.  (e, f) is the only unseparated pair.
        paths = BLOCK_ROWS + 20
        # late: after every path edge; boundary: right after (10t, 10t+5)
        # of path t = BLOCK_ROWS / 2 - 1, the 2t + 1 = BLOCK_ROWS - 1st edge
        x = 10 * paths if where == "late block" else 10 * (BLOCK_ROWS // 2 - 1) + 1
        planted = [x, x + 1, x + 2, x + 3]
        e, f = (x, x + 2), (x + 1, x + 3)
        g = Graph.build(
            [10 * t + i for t in range(paths) for i in (0, 5, 6)] + planted,
            [(10 * t, 10 * t + 5) for t in range(paths)]
            + [(10 * t + 5, 10 * t + 6) for t in range(paths)] + [e, f],
        )
        rng = random.Random(5)
        members = []
        for k in range(size):
            blocks = [[10 * t, 10 * t + 5, 10 * t + 6][:: rng.choice((1, -1))] for t in range(paths)]
            rng.shuffle(blocks)
            flat = [v for b in blocks for v in b]
            if k != max(size - 4, 0):
                rng.shuffle(flat)
            members.append(flat + planted)
        fam = PermutationFamily.build(g.vertices, members)
        i, j = g.edges.index(e), g.edges.index(f)
        assert g.num_edges > 2 * BLOCK_ROWS
        if where == "late block":
            assert i // BLOCK_ROWS == j // BLOCK_ROWS >= 2
        else:
            assert (i, j) == (BLOCK_ROWS - 1, BLOCK_ROWS)
        assert verify_pairwise_suitable(fam, g).counterexample == (e, f)
        sampled = verify_pairwise_suitable_sampled(fam, g, 200_000, seed=1)
        assert sampled == SeparationWitness(False, (e, f))

    def test_memory_bounded_by_block(self):
        # 4.5 million edge pairs: materialised as int64 rows they alone
        # would take over 100 MiB; a row block of 128 x 3022 takes a few.
        from sepdim.starcover import degenerate_family, random_k_degenerate_graph

        g = random_k_degenerate_graph(1500, 3, seed=1)
        fam = degenerate_family(g).family
        assert g.num_edges == 3022
        tracemalloc.start()
        try:
            witness = verify_pairwise_suitable(fam, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness.ok
        assert peak < 64 * 2**20

    def test_counterexample_is_lex_smallest(self):
        g = Graph.from_edges([(1, 2), (3, 4), (5, 6)])
        fam = PermutationFamily.build(range(1, 7), [(1, 3, 2, 4, 5, 6)])
        witness = verify_pairwise_suitable(fam, g)
        assert witness.counterexample == ((1, 2), (3, 4))

    def test_reversal_closure(self):
        fam = PermutationFamily.build(
            [1, 2, 3, 4], [(1, 2, 3, 4), (2, 3, 4, 1)]
        )
        for i in range(2):
            members = fam.id_orders()
            members[i].reverse()
            flipped = PermutationFamily.build(fam.ground_set, members)
            assert verify_pairwise_suitable(flipped, C4).ok

    def test_sampled_agrees_on_ok_families(self):
        rng = random.Random(7)
        n = 30
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(80)}
        g = Graph.build(range(n), edges)
        # a family that is certainly suitable: enough random + structured members
        from sepdim.starcover import degenerate_family

        fam = degenerate_family(g).family
        assert verify_pairwise_suitable(fam, g).ok
        assert verify_pairwise_suitable_sampled(fam, g, 20_000, seed=5).ok


# n on both sides of each lane-width step: lanes are n.bit_length() + 1
# bits wide, so q = 64 // (2 * width) members share a word: 8 below n = 8,
# then 6, 5, 4, 4 up to 127, 3 up to 511, 2 up to 2^15 - 1 and 1 from 2^15
LANE_BOUNDARIES = [n for k in range(3, 16) for n in (2**k - 1, 2**k)]


def members_per_word(n):
    return 64 // (2 * (n.bit_length() + 1))


def test_members_per_word_steps():
    assert [members_per_word(n) for n in (7, 8, 127, 128, 511, 512, 2**15 - 1, 2**15, 2**31 - 1)] \
        == [8, 6, 4, 3, 3, 2, 2, 1, 1]


class TestPackedLanes:
    @pytest.mark.parametrize("n", LANE_BOUNDARIES)
    def test_lane_words_match_comparisons(self, n):
        # intervals with ends at 1, 2, n - 1 and n, ties included: every
        # (i, j) keeps all guard bits iff each packed member overlaps them
        rng = np.random.default_rng(n)
        values = np.concatenate([[1, 2, n - 1, n], rng.integers(1, n + 1, 12)])
        ends = rng.choice(values, (2, DENSE_MEMBERS, 40))
        lo, hi = ends.min(axis=0), ends.max(axis=0)
        q = members_per_word(n)
        for size in sorted({0, 1, q - 1, q, min(q + 1, DENSE_MEMBERS), DENSE_MEMBERS}):
            narrow = np.min_scalar_type(n)
            left, right, guards = _lane_words(lo[:size].astype(narrow), hi[:size].astype(narrow), n)
            assert left.shape == right.shape == (max(-(-size // q), 1), 40)
            words = left[:, :, None] - right[:, None, :]
            packed = np.bitwise_and.reduce(words & guards, axis=0) == guards
            expected = ((hi[:size, :, None] >= lo[:size, None, :])
                        & (hi[:size, None, :] >= lo[:size, :, None])).all(axis=0)
            assert (packed == expected).all()

    def test_matches_brute_oracle_at_lane_boundaries(self):
        # Edge vertices 0..c-1 (c = 10, or n when smaller) and n - c
        # isolated ones.  Each member is one base order of the edge vertices
        # with a few adjacent swaps (two in the dense prefix, six past it),
        # split around the isolated block, so edge ranks reach 1 and n and
        # members agree often enough to leave counterexamples.  The oracle
        # runs on the members restricted to the edge vertices: separation
        # depends only on their relative order.
        seen = {"inside": 0, "past": 0, "sifted": 0}
        for n in LANE_BOUNDARIES:
            rng = random.Random(n)
            c = min(n, 10)
            edges = {tuple(sorted(rng.sample(range(c), 2))) for _ in range(12)}
            g, core = Graph.build(range(n), edges), Graph.build(range(c), edges)
            q = members_per_word(n)
            for size in sorted({1, q - 1, q, q + 1, DENSE_MEMBERS + 3}):
                for _ in range(3):
                    base = rng.sample(range(c), c)
                    prefix = _scan_order(size)[:DENSE_MEMBERS]
                    rows, orders = [], []
                    for k in range(size):
                        order = base[:]
                        for _ in range(2 if k in prefix else 6):
                            t = rng.randrange(c - 1)
                            order[t], order[t + 1] = order[t + 1], order[t]
                        cut = rng.randint(0, c)
                        rows.append(order[:cut] + list(range(c, n)) + order[cut:])
                        orders.append(order)
                    fam = PermutationFamily(tuple(range(n)), np.array(rows, dtype=np.int64).reshape(size, n))
                    restricted = PermutationFamily.build(range(c), orders)
                    expected = brute_verify(restricted, core)
                    assert verify_pairwise_suitable(fam, g).counterexample == expected
                    if expected is not None:
                        seen["inside" if size <= DENSE_MEMBERS else "past"] += 1
                    if size > DENSE_MEMBERS:
                        # the members past the prefix change the outcome
                        dense = PermutationFamily(restricted.ground_set, restricted.orders[prefix])
                        seen["sifted"] += brute_verify(dense, core) != expected
        assert min(seen.values()) >= 5, seen


class TestKSuitable:
    def test_cyclic_rotations_three_suitable(self):
        fam = PermutationFamily.build(
            [1, 2, 3],
            [(1, 2, 3), (2, 3, 1), (3, 1, 2)],
        )
        assert verify_k_suitable(fam, 3)

    def test_single_member_not_three_suitable(self):
        fam = PermutationFamily.build([1, 2, 3], [(1, 2, 3)])
        assert not verify_k_suitable(fam, 3)

    def test_k1_vacuous(self):
        fam = PermutationFamily.build([1, 2, 3], [])
        assert verify_k_suitable(fam, 1)

    def test_k_above_ground_set_vacuous(self):
        fam = PermutationFamily.build([1, 2], [(1, 2)])
        assert verify_k_suitable(fam, 3)

    def test_matches_loop_reference(self):
        def reference(fam, k):
            # the definition: each element of each k-set is some member's last
            return all(
                len({max(subset, key=m.index) for m in fam.id_orders()}) == k
                for subset in itertools.combinations(fam.ground_set, k)
            )

        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            ids = sorted(rng.sample(range(100), n))
            fam = PermutationFamily.build(ids, [rng.sample(ids, n) for _ in range(rng.randint(0, 6))])
            for k in (2, 3, 4):
                expected = reference(fam, k)
                assert verify_k_suitable(fam, k) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestFamilyArray:
    def test_views_follow_orders(self):
        fam = PermutationFamily((3, 7, 9), np.array([[2, 0, 1], [0, 1, 2]]))
        assert fam.id_orders() == [[9, 3, 7], [3, 7, 9]]
        assert fam.rank_matrix.tolist() == [[2, 3, 1], [1, 2, 3]]
        assert fam == PermutationFamily.build([9, 7, 3], [(9, 3, 7), (3, 7, 9)])
        assert len(fam) == 2 and not fam.orders.flags.writeable

    @pytest.mark.parametrize("ground,orders", [
        ((1, 2, 3), [[0, 1, 1]]),        # a repeated position
        ((1, 2, 3), [[0, 1, 3]]),        # a position outside range(n)
        ((1, 2, 3), [[0, -1, 2]]),
        ((1, 2, 3), [[0, 1, 2**63]]),    # past int64: a uint64 array
        ((1, 2, 3), [[0, 1]]),           # a row of the wrong length
        ((1, 2, 3), [0, 1, 2]),          # not two-dimensional
        ((1, 2, 3), [[0.0, 1.0, 2.0]]),  # not integers
        ((2, 1, 3), [[0, 1, 2]]),        # ground set not sorted
        ((1, 1, 3), [[0, 1, 2]]),        # ground set with a repeat
        ((-1, 2, 3), [[0, 1, 2]]),       # negative id
        ((True, 2, 3), [[0, 1, 2]]),     # bool id
        ((1.0, 2, 3), [[0, 1, 2]]),      # float id
    ])
    def test_rejects_invalid(self, ground, orders):
        with pytest.raises(ValueError):
            PermutationFamily(ground, np.array(orders))

    @pytest.mark.parametrize("members", [[(1, 2, 2)], [(1, 2)], [(1, 2, 4)], [(1, 2, 3.0)], [(1, 2, True)]])
    def test_build_rejects_non_permutations(self, members):
        with pytest.raises(ValueError):
            PermutationFamily.build([1, 2, 3], members)

    def test_fresh_arrays_are_kept(self):
        orders = np.array([[2, 0, 1], [0, 1, 2]], dtype=np.int64)
        fam = PermutationFamily((3, 7, 9), orders)
        assert np.shares_memory(fam.orders, orders) and not orders.flags.writeable
        # a list, a read-only array, a view and another dtype are copied
        listed = [[2, 0, 1], [0, 1, 2]]
        assert PermutationFamily((3, 7, 9), listed).orders.tolist() == listed
        frozen = np.array(listed, dtype=np.int64)
        frozen.flags.writeable = False
        view = np.array(listed * 2, dtype=np.int64)[:2]
        for given in (frozen, view, np.array(listed, dtype=np.int32)):
            copied = PermutationFamily((3, 7, 9), given)
            assert not np.shares_memory(copied.orders, given) and copied == fam
        assert view.flags.writeable

    def test_refused_fresh_array_is_left_as_given(self):
        orders = np.array([[0, 1, 1]], dtype=np.int64)
        with pytest.raises(ValueError):
            PermutationFamily((1, 2, 3), orders)
        assert orders.tolist() == [[0, 1, 1]] and orders.flags.writeable

    def test_build_rejects_id_arrays(self):
        # build takes sequences of ids; an id array is refused, whatever its ids
        for ids in ([[-1, 2, 1, 0]], [[0, 1, 2, 15]], [[0, 1, 2, 16]]):
            with pytest.raises(ValueError, match="family member must be a list"):
                PermutationFamily.build((0, 1, 2, 15), np.array(ids))

    def test_read_from_compact_document_memory(self):
        # the reader's table gather is the one (r, n) order array made:
        # a copy of it would add 1.0 x its bytes
        rng = np.random.default_rng(0)
        fam = PermutationFamily(tuple(range(20000)), np.array([rng.permutation(20000) for _ in range(84)]))
        text = family_to_json(fam)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            read = family_from_json(text)[0]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert read == fam
        assert peak < 4.25 * fam.orders.nbytes


def embedding_from_family(fam: PermutationFamily) -> dict[int, tuple[int, ...]]:
    """Map each vertex to its rank vector across the members."""
    if not len(fam):
        raise ValueError("cannot embed with an empty family")
    return dict(zip(fam.ground_set, map(tuple, fam.rank_matrix.T.tolist())))


def family_from_embedding(points: dict[int, tuple[float, ...]]) -> PermutationFamily:
    """Read permutations off each coordinate axis, ties broken by vertex id."""
    if not points:
        raise ValueError("empty embedding")
    dims = {len(p) for p in points.values()}
    if len(dims) != 1:
        raise ValueError("inconsistent embedding dimensions")
    d = dims.pop()
    if d < 1:
        raise ValueError("embedding needs at least one dimension")
    verts = sorted(points)
    orders = [
        sorted(range(len(verts)), key=lambda j: (points[verts[j]][axis], j))
        for axis in range(d)
    ]
    return PermutationFamily(tuple(verts), np.array(orders, dtype=np.int64))


class TestEmbeddings:
    def test_single_member(self):
        fam = PermutationFamily.build([5, 6], [(5, 6)])
        assert embedding_from_family(fam) == {5: (1,), 6: (2,)}

    def test_two_members(self):
        fam = PermutationFamily.build([1, 2], [(1, 2), (2, 1)])
        assert embedding_from_family(fam) == {1: (1, 2), 2: (2, 1)}

    def test_round_trip(self):
        fam = PermutationFamily.build(
            [1, 2, 3], [(2, 1, 3), (3, 2, 1)]
        )
        back = family_from_embedding(embedding_from_family(fam))
        assert back == fam

    def test_empty_family_rejected(self):
        fam = PermutationFamily.build([1, 2], [])
        with pytest.raises(ValueError):
            embedding_from_family(fam)

    def test_tie_break_by_id(self):
        fam = family_from_embedding({1: (0.0,), 2: (0.0,)})
        assert fam.id_orders()[0] == [1, 2]

    def test_inconsistent_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            family_from_embedding({1: (0.0,), 2: (0.0, 1.0)})


class TestSerialization:
    def test_round_trip_bit_exact(self):
        fam = PermutationFamily.build(
            [0, 2, 5], [(2, 0, 5), (5, 2, 0)]
        )
        text = family_to_json(fam, generator="test", extra={"seed": 42})
        loaded, doc = family_from_json(text)
        assert loaded == fam
        assert doc["seed"] == 42 and doc["generator"] == "test"
        assert family_to_json(loaded, generator=doc["generator"], extra={"seed": doc["seed"]}) == text

    def test_inconsistent_document_rejected(self):
        with pytest.raises(ValueError):
            family_from_json('{"n": 5, "ground_set": [1], "permutations": [[1]]}')


@st.composite
def graphs_with_families(draw):
    """A graph on at most 7 (sparse) ids with 1-4 random member orders."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=7)))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(ids, 2))), unique=True))
    members = draw(st.lists(st.permutations(ids), min_size=1, max_size=4))
    return Graph.build(ids, edges), PermutationFamily.build(ids, members)


@settings(max_examples=300, deadline=None)
@given(graphs_with_families(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_verifiers_against_brute_oracle(graph_family, samples, seed):
    g, fam = graph_family
    expected = brute_verify(fam, g)
    witness = verify_pairwise_suitable(fam, g)
    assert witness.ok == (expected is None)
    assert witness.counterexample == expected
    assert verify_pairwise_suitable_sampled(fam, g, samples, seed) == witness


@settings(max_examples=60)
@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
def test_disjoint_pairs_generator_matches_definition(p1, p2):
    g = Graph.from_edges([(0, 1), (2, 3), (4, 5), (1, 6), (3, 5)])
    pairs = list(disjoint_edge_pairs(g))
    for e, f in pairs:
        assert not set(e) & set(f)
    assert pairs == sorted(pairs)


def test_scan_order_is_bit_reversed():
    assert _scan_order(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert _scan_order(6).tolist() == [0, 4, 2, 1, 5, 3]
    assert _scan_order(1).tolist() == [0] and _scan_order(0).tolist() == []
    for r in range(1, 70):
        assert sorted(_scan_order(r).tolist()) == list(range(r))


@settings(max_examples=150, deadline=None)
@given(graphs_with_families(), st.randoms(use_true_random=False), st.integers(1, 60),
       st.integers(0, 2**32 - 1))
def test_member_order_does_not_change_witnesses(graph_family, rnd, samples, seed):
    """The pair checks visit members in their own order; the verdict and the
    counterexample depend only on the set of members."""
    g, fam = graph_family
    rows = list(range(len(fam)))
    rnd.shuffle(rows)
    shuffled = PermutationFamily(fam.ground_set, fam.orders[rows])
    assert verify_pairwise_suitable(shuffled, g) == verify_pairwise_suitable(fam, g)
    assert verify_pairwise_suitable_sampled(shuffled, g, samples, seed) \
        == verify_pairwise_suitable_sampled(fam, g, samples, seed)


def test_member_order_on_star_cover_families():
    """Star-cover families (members grouped by forest), reversed and shuffled,
    some cut short so that counterexamples exist."""
    from sepdim.starcover import degenerate_family, random_k_degenerate_graph

    rng = random.Random(7)
    for seed in range(6):
        g = random_k_degenerate_graph(rng.randint(16, 40), 2 + seed % 2, seed=seed)
        fam = degenerate_family(g).family
        for keep in (len(fam), len(fam) // 3):
            part = PermutationFamily(fam.ground_set, fam.orders[:keep])
            expected = verify_pairwise_suitable(part, g)
            assert expected.counterexample == brute_verify(part, g)
            for rows in (list(range(keep))[::-1], rng.sample(range(keep), keep)):
                moved = PermutationFamily(fam.ground_set, part.orders[rows])
                assert verify_pairwise_suitable(moved, g) == expected


def json_reference(fam, generator="unspecified", extra=None):
    """The family document through json.dumps, the writer's specification."""
    doc = {"n": len(fam.ground_set), "ground_set": list(fam.ground_set),
           "permutations": fam.id_orders(), "seed": None, "generator": generator}
    doc.update(extra or {})
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def random_families(draw):
    """0-5 members over 0-12 sparse ids, some large."""
    ids = sorted(draw(st.sets(st.integers(0, 2**40), max_size=12)))
    members = draw(st.lists(st.permutations(ids), max_size=5))
    return PermutationFamily.build(ids, members)


FAMILY_KEYS = ["n", "ground_set", "permutations"]


@settings(max_examples=200, deadline=None)
@given(random_families(), st.text(max_size=6),
       st.none() | st.dictionaries(
           st.sampled_from(["seed", "a", "zz", "é"])
           | st.text(max_size=4).filter(lambda key: key not in FAMILY_KEYS), json_values, max_size=4))
def test_family_to_json_matches_json_dumps(fam, generator, extra):
    assert family_to_json(fam, generator=generator, extra=extra) \
        == json_reference(fam, generator, extra)


@pytest.mark.parametrize("key", FAMILY_KEYS)
def test_extra_may_not_set_the_familys_own_fields(key):
    # the written file would not hold its family
    fam = PermutationFamily.build([0, 1], [(1, 0)])
    with pytest.raises(ValueError, match=f"'{key}'"):
        family_to_json(fam, extra={key: 1})


def test_family_to_json_empty_family():
    for fam in (PermutationFamily.build([], []), PermutationFamily.build([3, 9], [])):
        assert family_to_json(fam) == json_reference(fam)
    assert family_to_json(PermutationFamily.build([], [()])) == \
        '{"generator":"unspecified","ground_set":[],"n":0,"permutations":[[]],"seed":null}\n'


@settings(max_examples=100, deadline=None)
@given(random_families(), st.integers(1, 40))
def test_family_parts_join_to_the_document(fam, part_chars):
    # however small the parts, they join to the one canonical text
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "JSON_PART_CHARS", part_chars)
        parts = list(families.family_json_parts(fam, generator="g", extra={"seed": 1}))
    assert "".join(parts) == json_reference(fam, "g", {"seed": 1})


def test_family_rows_parts():
    # a bench-size family is one rows part; a 10^6-id one is written a
    # few members at a time
    rng = np.random.default_rng(0)
    small = PermutationFamily(tuple(range(320)), np.array([rng.permutation(320) for _ in range(60)]))
    ids = np.array(list(map(str, small.ground_set)), dtype=object)
    assert len(list(families._rows_json(ids, small.orders))) == 1
    big = PermutationFamily(tuple(range(10**6)), np.tile(np.arange(10**6), (4, 1)))
    ids = np.array(list(map(str, big.ground_set)), dtype=object)
    parts = list(families._rows_json(ids, big.orders))
    assert len(parts) == 2
    assert max(map(len, parts)) < 2 * families.JSON_PART_CHARS


BENCH_KEYS = ["n", "ground_set", "permutations", "seed", "generator"]
PLAIN_STRINGS = ["true", "[[0,1]]", "null", "permutations"]
# JSON escapes their quotes, or non-ASCII text, with a backslash
ESCAPED_STRINGS = ['"permutations":[[1]]', '"ground_set":[0]', 'a"b', "é"]
# at most one per document; None, twelve times, for a clean one
DOCUMENT_FAULTS = [None] * 12 + ["indented", "escaped", "repeated key", "repeated key", "nested", "ragged",
                    "empty list", "empty row", "leading zero", "space", "unsorted", "repeated id",
                    "negative", "outside", "sparse", "19 digits", "2^63", "n + 1", "no n", "n as text"]


@st.composite
def family_documents(draw):
    """Family documents around the array reader's grammar: compact ones
    in sorted, bench or shuffled key order with extra fields, and ones
    with one fault that the reader must leave to the JSON path or that
    must raise the JSON path's error."""
    fault = draw(st.sampled_from(DOCUMENT_FAULTS))
    least = 2 if fault == "ragged" else 1  # two rows of at least one id to move one between
    size = draw(st.integers(least, 6))
    ids = draw(st.sets(st.integers(0, ID_TABLE_SPAN * size - 1), min_size=size, max_size=size))
    if draw(st.integers(0, 2)) == 2:  # the largest id at the dense-table limit
        ids.add(ID_TABLE_SPAN * (size + 1) + draw(st.integers(-1, 1)))
    ids |= {"sparse": {2**40}, "19 digits": {10**18}, "2^63": {2**63}}.get(fault, set())
    ids = sorted(ids)
    n = len(ids)
    members = [list(draw(st.permutations(ids))) for _ in range(draw(st.integers(least, 4)))]
    ground = list(ids)
    if fault == "unsorted":
        ground.reverse()
    elif fault == "repeated id":
        ground.append(ground[0])
    elif fault in ("negative", "outside"):
        members[-1][0] = -1 if fault == "negative" else ID_TABLE_SPAN * n + draw(st.integers(-1, 1))
    elif fault == "ragged":
        members[1].insert(0, members[0].pop())  # rows of n - 1 and n + 1 ids
    strings = st.text("ab :,[]{}", max_size=4) | st.sampled_from(PLAIN_STRINGS)
    if fault == "escaped":
        strings = st.text(max_size=2) | st.sampled_from(ESCAPED_STRINGS)
    doc = {"n": {"n + 1": n + 1, "n as text": str(n)}.get(fault, n), "ground_set": ground,
           "permutations": members, "seed": draw(st.none() | st.integers()), "generator": draw(strings)}
    if fault == "no n":
        del doc["n"]
    order = draw(st.sampled_from(["sorted", "bench", "shuffled"]))
    pairs = sorted(doc.items()) if order == "sorted" else [(k, doc[k]) for k in BENCH_KEYS if k in doc]
    if order == "shuffled":
        pairs = draw(st.permutations(pairs))
    keys = ["x", "zz", "", "é"] if fault == "escaped" else ["x", "zz", ""]
    extras = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers() | st.none() | strings), max_size=2))
    if fault == "repeated key":
        # the id lists twice as often: a repeat of the other keys reads the same either way
        extras.append((draw(st.sampled_from(["ground_set", "permutations", *BENCH_KEYS])),
                       draw(st.sampled_from([None, 7, "x", members[::-1], ids]))))
    elif fault == "nested":  # a compact list of lists in an inner object first
        pairs.insert(0, ("x", {"permutations": members[::-1]}))
        if draw(st.booleans()):
            pairs = [(k, None if k == "permutations" else v) for k, v in pairs]
    for pair in extras:
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    indent = 1 if fault == "indented" else None
    texts = [(k, json.dumps(v, indent=indent, separators=None if indent else (",", ":"))) for k, v in pairs]
    edits = {"leading zero": lambda v: re.sub(r"([\[,])([0-9])", r"\g<1>0\2", v, count=1),
             "space": lambda v: v.replace(",", ", ", 1), "empty row": lambda v: v[:-1] + ",[]]",
             "empty list": lambda v: "[]"}
    if fault in edits:
        texts = [(k, edits[fault](v) if k == "permutations" else v) for k, v in texts]
    colon, comma = (": ", ",\n ") if indent else (":", ",")
    return "{" + comma.join(json.dumps(k) + colon + v for k, v in texts) + "}" + draw(st.sampled_from(["", "\n"]))


def read_outcome(read, text):
    try:
        fam, fields = read(text)
    except ValueError as exc:
        return str(exc)
    return fam.ground_set, fam.orders.tolist(), fields


@settings(max_examples=600, deadline=None)
@given(family_documents())
# a repeated id list, the later one read by json.loads; rows of 2 and 4
# ids with n = 3, which flatten to 2 x 3
@example('{"generator":"","ground_set":[0,1],"n":2,"permutations":[[0,1]],"permutations":[[1,0]],"seed":null}')
@example('{"generator":"","ground_set":[0,1,2],"n":3,"permutations":[[0,1],[2,1,0,1]],"seed":null}')
# a nested object beside a compact top-level list, and a repeated seed:
# the array reader, json.loads taking the last seed
@example('{"generator":"","ground_set":[0,1],"n":2,"permutations":[[1,0]],"x":{"a":[[0,1]]},"seed":null}')
@example('{"generator":"","ground_set":[0,1],"n":2,"permutations":[[1,0]],"seed":1,"seed":2}')
# the only "permutations": sits in a nested object: the JSON path's error
@example('{"generator":"","ground_set":[0,1],"n":2,"x":{"permutations":[[1,0]]},"seed":null}')
# a second top-level key spelled with a space, after the compact list:
# the later null is the document's permutations, and the JSON path's error
@example('{"generator":"","ground_set":[0,1],"n":2,"permutations":[[1,0]],"permutations" :null,"seed":null}')
def test_family_reader_matches_json_lists(text):
    # the JSON-list path is the specification: the same family and
    # fields, or the same error, whichever path the document takes
    assert read_outcome(family_from_json, text) == read_outcome(_family_from_lists, text)


def test_compact_documents_take_the_array_reader():
    top = ID_TABLE_SPAN * 4 - 1  # the largest id the reader takes for n = 4
    fam = PermutationFamily.build([0, 3, 7, top], [(7, 0, top, 3), (3, 7, 0, top)])
    bench = json.dumps({"n": 4, "ground_set": list(fam.ground_set), "permutations": fam.id_orders(),
                        "seed": 1, "generator": "bench-random"}, separators=(",", ":"))
    for text in (family_to_json(fam, generator="test", extra={"seed": 5}), bench):
        read, fields = _family_arrays(text)
        assert read == fam
        assert family_from_json(text) == (fam, {"n": 4, "seed": fields["seed"], "generator": fields["generator"]})
    # indented: the JSON path; a nested object is a plain field value
    text = json.dumps(json.loads(bench), indent=1)
    assert _family_arrays(text) is None and family_from_json(text)[0] == fam
    text = bench.replace('"seed":1', '"seed":{"a":1}')
    assert _family_arrays(text) == _family_from_lists(text) \
        == (fam, {"n": 4, "seed": {"a": 1}, "generator": "bench-random"})
    # an id at the table limit, or of 19 digits: the JSON path
    for ids in ([1, ID_TABLE_SPAN * 2], [1, 10**18]):
        wide = PermutationFamily.build(ids, [ids[::-1]])
        assert _family_arrays(family_to_json(wide)) is None and family_from_json(family_to_json(wide))[0] == wide


def test_spaced_ground_set_takes_the_array_reader():
    # only the permutations list must be compact; json.loads reads the ground set
    fam = PermutationFamily.build([0, 2, 5], [(5, 0, 2), (2, 5, 0)])
    compact = family_to_json(fam)
    for ground in ('"ground_set": [0, 2, 5]', '"ground_set":\n  [0,\n   2, 5]\n'):
        text = compact.replace('"ground_set":[0,2,5]', ground)
        assert text != compact
        assert _family_arrays(text) == _family_from_lists(text) == (fam, {"n": 3, "seed": None,
                                                                          "generator": "unspecified"})


@pytest.mark.parametrize("ground,member,n", [([0, 2], (2, 0), "2.0"), ([4], (4,), "true")])
def test_readers_refuse_a_non_int_n(ground, member, n):
    # 2.0 == 2 and True == 1, but n is a count: compact or indented, the
    # document is inconsistent
    compact = family_to_json(PermutationFamily.build(ground, [member]))
    text = compact.replace(f'"n":{len(ground)},', f'"n":{n},')
    assert text != compact and _family_arrays(text) is None
    for doc in (text, json.dumps(json.loads(text), indent=1)):
        with pytest.raises(ValueError, match="inconsistent"):
            family_from_json(doc)


def test_compact_reader_memory():
    # the reader keeps a few byte masks and id arrays alive at a time;
    # json.loads of the id lists, or np.add.reduceat over a byte mask,
    # peaks at over 12 times the text
    rng = np.random.default_rng(0)
    fam = PermutationFamily(tuple(range(3000)), np.array([rng.permutation(3000) for _ in range(64)]))
    text = family_to_json(fam)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert family_from_json(text)[0] == fam
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)
