"""Graph container, IO, degeneracy, star forests, subdivision."""

import itertools
import random

import numpy as np
import pytest

from sepdim.graphs import (
    Graph,
    GraphFormatError,
    check_star_forest,
    color_classes,
    degeneracy_order,
    greedy_coloring,
    load_graph,
    make_edge,
    serialize_graph,
    star_forest_decomposition,
    subdivide,
    subdivision_mids,
)
from sepdim.starcover import random_k_degenerate_graph


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


class TestLoadGraph:
    def test_basic_parse(self):
        g = load_graph("1 2\n2 3")
        assert g.vertices == (1, 2, 3)
        assert g.edges == ((1, 2), (2, 3))

    def test_empty_document(self):
        g = load_graph("")
        assert g.vertices == () and g.edges == ()

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph("1 1")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph("1 2\n2 1")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="malformed"):
            load_graph("1 2 3")

    def test_comments_and_isolated(self):
        g = load_graph("# a comment\nv 7\n1 2\n")
        assert g.vertices == (1, 2, 7)
        assert g.edges == ((1, 2),)

    def test_round_trip_bit_exact(self):
        text = "v 9\n0 4\n1 2\n"
        g = load_graph(text)
        assert serialize_graph(g) == text
        assert serialize_graph(load_graph(serialize_graph(g))) == serialize_graph(g)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("-1 2")


class TestDegeneracy:
    def test_path_is_one_degenerate(self):
        assert degeneracy_order(path(4)).k == 1

    def test_complete_graph(self):
        assert degeneracy_order(complete(4)).k == 3

    def test_cycle(self):
        assert degeneracy_order(cycle(5)).k == 2

    def test_later_neighbor_bound(self):
        g = complete(5)
        d = degeneracy_order(g)
        pos = {v: i for i, v in enumerate(d.order)}
        for v in g.vertices:
            later = sum(1 for w in g.adjacency[v] if pos[w] > pos[v])
            assert later <= d.k

    def test_deterministic_tie_break(self):
        g = cycle(6)
        assert degeneracy_order(g).order == degeneracy_order(g).order
        assert degeneracy_order(g).order[0] == 1

    def test_density_oracle_small_random(self):
        # brute-force max average degree over all induced subgraphs
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.build(range(n), edges)
            best = 0.0
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    ss = set(sub)
                    m = sum(1 for u, v in edges if u in ss and v in ss)
                    best = max(best, 2 * m / size)
            assert degeneracy_order(g).k <= int(best) or (not edges and degeneracy_order(g).k == 0)


def covered_edges(g, roots):
    """The edges of a star forest as sorted vertex-id pairs: each leaf to its root."""
    ids = g.vertices
    return sorted(make_edge(ids[v], ids[r]) for v, r in enumerate(roots.tolist()) if v != r)


class TestForests:
    def test_empty_graph(self):
        g = Graph.build([], [])
        assert star_forest_decomposition(g, degeneracy_order(g)) == []

    def test_union_and_acyclicity_random(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(2, 30)
            edges = {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(0, 3 * n))
            }
            g = Graph.build(range(n), edges)
            d = degeneracy_order(g)
            forests = star_forest_decomposition(g, d)
            # every one of the k slots is nonempty and yields one or two star forests
            assert d.k <= len(forests) <= 2 * d.k
            all_edges = [e for f in forests for e in covered_edges(g, f)]
            assert len(all_edges) == len(set(all_edges)) == g.num_edges
            for forest in forests:
                assert _is_acyclic(covered_edges(g, forest))


def _is_acyclic(edges):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _component_is_star(vertices, edges):
    if len(edges) <= 1:
        return True
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    centers = [v for v, d in degree.items() if d >= 2]
    return len(centers) <= 1 and all(
        c in (u, v) for u, v in edges for c in centers
    )


class TestStarForests:
    def test_path_at_most_two(self):
        g = path(4)
        forests = star_forest_decomposition(g, degeneracy_order(g))
        assert 1 <= len(forests) <= 2

    def test_k4_at_most_six(self):
        g = complete(4)
        forests = star_forest_decomposition(g, degeneracy_order(g))
        assert len(forests) <= 6

    def test_single_edge_single_forest(self):
        g = Graph.from_edges([(1, 2)])
        forests = star_forest_decomposition(g, degeneracy_order(g))
        # a single-edge star is rooted at its smaller id
        assert [f.tolist() for f in forests] == [[0, 0]]
        assert forests[0].dtype == np.int64

    def test_partition_and_structure_random(self):
        for seed in range(10):
            rng = random.Random(1000 + seed)
            n = rng.randint(2, 40)
            edges = {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(0, 2 * n))
            }
            g = Graph.build(range(n), edges)
            d = degeneracy_order(g)
            forests = star_forest_decomposition(g, d)
            assert len(forests) <= 2 * d.k
            covered = [e for f in forests for e in covered_edges(g, f)]
            assert len(covered) == len(set(covered)) == g.num_edges
            for forest in forests:
                check_star_forest(g, forest)
                # structural star check on the covered edges themselves
                forest_edges = covered_edges(g, forest)
                comp = {}
                for u, v in forest_edges:
                    comp.setdefault(u, set()).add(v)
                    comp.setdefault(v, set()).add(u)
                seen = set()
                for start in comp:
                    if start in seen:
                        continue
                    stack, verts = [start], set()
                    while stack:
                        x = stack.pop()
                        if x in verts:
                            continue
                        verts.add(x)
                        stack.extend(comp[x])
                    seen |= verts
                    inside = [e for e in forest_edges if e[0] in verts]
                    assert _component_is_star(verts, inside)

    def test_root_arrays_sweep(self):
        """k-degenerate graphs (k = 1..4) and graphs with sparse ids given in shuffled order."""
        graphs = []
        for seed in range(160):
            rng = random.Random(seed)
            k = 1 + seed % 4
            graphs.append((random_k_degenerate_graph(rng.randint(1, 90), k, seed=seed), k))
        for seed in range(160):
            rng = random.Random(5000 + seed)
            n = rng.randint(1, 60)
            ids = rng.sample(range(10 * n), n)
            pairs = [rng.sample(ids, 2) for _ in range(rng.randint(0, 3 * n))] if n > 1 else []
            edges = list({make_edge(u, v) for u, v in pairs})
            rng.shuffle(edges)
            graphs.append((Graph.build(ids, edges), None))
        for g, k in graphs:
            d = degeneracy_order(g)
            if k is not None:
                assert d.k <= k
            forests = star_forest_decomposition(g, d)
            assert len(forests) <= 2 * d.k
            covered = [e for f in forests for e in covered_edges(g, f)]
            assert sorted(covered) == list(g.edges)
            for forest in forests:
                check_star_forest(g, forest)

    def test_check_rejects_non_star_forests(self):
        g = path(4)  # positions 0-1-2-3
        check_star_forest(g, np.array([1, 1, 1, 3]))
        with pytest.raises(ValueError, match="root"):
            check_star_forest(g, np.array([1, 2, 2, 3]))  # root 1 is a leaf of 2
        with pytest.raises(ValueError, match="edge"):
            check_star_forest(g, np.array([0, 1, 0, 3]))  # 2 is not adjacent to 0
        with pytest.raises(ValueError, match="one position"):
            check_star_forest(g, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="one position"):
            check_star_forest(g, np.array([0, 1, 2, 4]))


class TestSubdivide:
    def test_triangle_becomes_six_cycle(self):
        g = complete(3)
        gsub = subdivide(g)
        assert gsub.num_vertices == 6 and gsub.num_edges == 6
        assert all(len(gsub.adjacency[v]) == 2 for v in gsub.vertices)

    def test_k4_counts(self):
        gsub = subdivide(complete(4))
        assert gsub.num_vertices == 10 and gsub.num_edges == 12

    def test_single_edge_becomes_path(self):
        g = Graph.from_edges([(1, 2)])
        gsub = subdivide(g)
        assert gsub.num_vertices == 3 and gsub.num_edges == 2
        assert subdivision_mids(g) == range(3, 4)
        assert gsub.edges == ((1, 3), (2, 3))

    def test_mid_adjacency_and_degree_preservation(self):
        g = complete(4)
        gsub = subdivide(g)
        for (u, v), mid in zip(g.edges, subdivision_mids(g)):
            assert gsub.adjacency[mid] == frozenset({u, v})
        for v in g.vertices:
            assert len(gsub.adjacency[v]) == g.degree(v)

    def test_fresh_ids_above_max(self):
        g = Graph.from_edges([(3, 7)])
        assert subdivision_mids(g) == range(8, 9)

    def test_mids_follow_sorted_edges_above_isolated(self):
        # the isolated vertex 20 is the largest id, so mids start at 21
        g = Graph.build([2, 5, 9, 20], [(5, 9), (2, 9), (2, 5)])
        assert subdivision_mids(g) == range(21, 24)
        assert subdivide(g).adjacency[21] == frozenset({2, 5})
        assert subdivide(g).adjacency[23] == frozenset({5, 9})

    def test_edgeless_and_empty(self):
        g = Graph.build([4, 6], [])
        assert subdivision_mids(g) == range(7, 7) and subdivide(g) == g
        empty = Graph.build([], [])
        assert subdivision_mids(empty) == range(0, 0) and subdivide(empty) == empty


class TestGreedyColoring:
    def test_k4_needs_four(self):
        g = complete(4)
        coloring = greedy_coloring(g, degeneracy_order(g))
        assert len(set(coloring.values())) == 4

    def test_even_cycle_two(self):
        g = cycle(4)
        coloring = greedy_coloring(g, degeneracy_order(g))
        assert len(set(coloring.values())) == 2

    def test_edgeless_one(self):
        g = Graph.build([1, 2, 3], [])
        coloring = greedy_coloring(g, degeneracy_order(g))
        assert set(coloring.values()) == {1}

    def test_proper_and_bounded(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(2, 30)
            edges = {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(0, 3 * n))
            }
            g = Graph.build(range(n), edges)
            d = degeneracy_order(g)
            coloring = greedy_coloring(g, d)
            assert all(coloring[u] != coloring[v] for u, v in g.edges)
            assert len(set(coloring.values())) <= d.k + 1
            classes = color_classes(coloring)
            assert sorted(v for cls in classes for v in cls) == list(g.vertices)


def test_make_edge_rejects_loops():
    with pytest.raises(GraphFormatError):
        make_edge(2, 2)
