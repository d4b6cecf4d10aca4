"""Graph container, IO, degeneracy, star forests, subdivision."""

import heapq
import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sepdim.graphs import (
    ARRAY_PARSE_MIN_CHARS,
    DegeneracyOrder,
    Graph,
    GraphFormatError,
    _load_array,
    _load_lines,
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
from sepdim.families import verify_pairwise_suitable
from sepdim.starcover import certify_star_cover, degenerate_family, random_k_degenerate_graph


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def neighbours(g):
    """Each vertex id's neighbours as a frozenset, built from g.edges."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: frozenset(ns) for v, ns in adj.items()}


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


def parse_outcome(parse, text):
    """(vertices, edges, edge_positions) of the parsed graph, or the error message."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.vertices, g.edges, g.edge_positions.tolist()


ODD_TOKENS = ["+5", "1_0", "\u0663", "007", "-1", "x", "1.0", "2147483648", "99999999999"]


@st.composite
def edge_documents(draw):
    """Edge-list documents with v lines and edge lines over sparse or large
    ids, each in canonical form or with some of: tabs, runs of spaces,
    trailing spaces, CRLF, comments, blank lines, v lines after edges,
    repeated or reversed edges, self-loops, odd tokens, no final newline."""
    ids = draw(st.lists(st.integers(0, 60) | st.integers(0, 2**31 - 1) | st.integers(2**31, 2**34),
                        min_size=1, max_size=12))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=25))
    canonical = draw(st.booleans())
    if canonical:
        ids = [v for v in ids if v < 2**31]
        pairs = list({(min(p), max(p)) for p in pairs if p[0] != p[1] and max(p) < 2**31})
    declared = sorted(set(draw(st.lists(st.sampled_from(ids), max_size=6)))) if ids else []
    lines = [f"v {v}" for v in declared] + [f"{u} {v}" for u, v in pairs]
    if not canonical:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(lines)))
            lines.insert(i, draw(st.sampled_from(
                ["", "# note", "  ", "v 3", "4 4", "1 2 3", "v", f"{draw(st.sampled_from(ODD_TOKENS))} 8"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        tail = draw(st.sampled_from(["", " ", "\t"]))
        lines = [line.replace(" ", sep) + tail for line in lines]
    newline = "\r\n" if not canonical and draw(st.booleans()) else "\n"
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return canonical, text


class TestArrayParser:
    @settings(max_examples=400, deadline=None)
    @given(edge_documents())
    def test_array_parser_matches_line_parser(self, doc):
        canonical, text = doc
        expected = parse_outcome(_load_lines, text)
        fast = _load_array(text)
        if canonical:
            # canonical documents without self-loops or repeats take the array path
            assert fast is not None
        if fast is not None:
            assert (fast.vertices, fast.edges, fast.edge_positions.tolist()) == expected
            assert not fast.edge_positions.flags.writeable
        assert parse_outcome(load_graph, text) == expected
        long_text = "\n" * ARRAY_PARSE_MIN_CHARS + text  # forces load_graph past the size switch
        assert parse_outcome(load_graph, long_text) == parse_outcome(_load_lines, long_text)

    def test_fallbacks_keep_messages(self):
        body = "".join(f"{i} {i + 1}\n" for i in range(100))
        assert len(body) >= ARRAY_PARSE_MIN_CHARS
        for text, message in [
            (body + "7 7\n", "line 101: self-loop at vertex 7"),
            (body + "51 50\n", "line 101: duplicate edge (50, 51)"),
            (body + "1 2 3\n", "line 101: malformed line '1 2 3'"),
            (body + "-1 2\n", "line 101: malformed line '-1 2'"),
        ]:
            assert _load_array(text) is None
            with pytest.raises(GraphFormatError) as exc:
                load_graph(text)
            assert str(exc.value) == message

    def test_ids_past_31_bits_and_unicode_digits(self):
        big = "".join(f"{i} {2**31 + i}\n" for i in range(60))
        assert _load_array(big) is None
        assert load_graph(big).edges[0] == (0, 2**31)
        unicode = "".join(f"{i} {i + 1}\n" for i in range(60)) + "\u0663 70\n"
        assert _load_array(unicode) is None
        assert (3, 70) in load_graph(unicode).edges
        declared = "v 9999999999\n" + "".join(f"{i} {i + 1}\n" for i in range(60))
        assert _load_array(declared).vertices[-1] == 9999999999

    def test_empty_and_vertex_only_documents(self):
        assert _load_array("") == Graph.build((), ())
        assert _load_array("v 5\nv 2") == Graph.build((2, 5), ())


def peel_oracle(g):
    """The peel over a dict of neighbour sets: minimum residual degree,
    then smallest id."""
    adjacency = neighbours(g)
    degrees = {v: len(adjacency[v]) for v in g.vertices}
    alive, heap, order, k = set(g.vertices), [(d, v) for v, d in degrees.items()], [], 0
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v not in alive or d != degrees[v]:
            continue
        alive.remove(v)
        order.append(v)
        k = max(k, d)
        for w in adjacency[v] & alive:
            degrees[w] -= 1
            heapq.heappush(heap, (degrees[w], w))
    return tuple(order), k


def relabelled(edges, isolated=(), seed=0):
    """The graph of `edges` (and `isolated` vertices) under a seeded map
    onto sparse ids; seed 0 keeps the ids."""
    verts = sorted({x for e in edges for x in e} | set(isolated))
    ids = dict(zip(verts, random.Random(seed).sample(range(10 * len(verts) + 1), len(verts)) if seed else verts))
    return Graph.build(ids.values(), [(ids[u], ids[v]) for u, v in edges])


def k8_with_pendant_paths():
    """K8 on 0..7, a path of 3 hanging off each of 0..3 and a 12-cycle
    apart: the minimum degree climbs 0 -> 7 over empty buckets when the
    paths and the cycle are gone, then falls 7, 6, ..., 0 in the clique."""
    edges = list(itertools.combinations(range(8), 2))
    for a in range(4):
        tail = [a] + [100 + 10 * a + t for t in range(3)]
        edges += list(zip(tail, tail[1:]))
    edges += [(200 + t, 200 + (t + 1) % 12) for t in range(12)]
    return edges


def star_joined_to_path():
    """K1,40 with centre 0, whose centre ends a 30-vertex path: the leaves
    peel at degree 1 while the centre's degree falls 41 -> 1."""
    edges = [(0, leaf) for leaf in range(1, 41)]
    path_ids = [0] + list(range(100, 130))
    return edges + list(zip(path_ids, path_ids[1:]))


def cliques_in_a_chain():
    """K6, K4 and K7 joined by single edges: the minimum degree falls
    3 -> 1 through K4, climbs to 5 for K6 and falls to 0, then climbs
    over empty buckets to 6 for K7."""
    blocks = [range(0, 6), range(10, 14), range(20, 27)]
    edges = [e for b in blocks for e in itertools.combinations(b, 2)]
    return edges + [(5, 10), (13, 20)]


CASCADES = [k8_with_pendant_paths(), star_joined_to_path(), cliques_in_a_chain()]


@st.composite
def peel_graphs(draw):
    """Random graphs over sparse ids, or a cascade shape under a random relabelling."""
    if draw(st.booleans()):
        edges = draw(st.sampled_from(CASCADES))
        return relabelled(edges, isolated=(1000, 1001), seed=draw(st.integers(0, 2**16)))
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=1, max_size=40)))
    rnd, density = draw(st.randoms(use_true_random=False)), draw(st.floats(0.0, 0.6))
    return Graph.build(ids, [e for e in itertools.combinations(ids, 2) if rnd.random() < density])


@settings(max_examples=150, deadline=None)
@given(peel_graphs())
@example(relabelled(CASCADES[0])).via("cascade")
@example(relabelled(CASCADES[1])).via("cascade")
@example(relabelled(CASCADES[2], isolated=(40, 41))).via("cascade")
def test_csr_peel_matches_oracle_and_core_numbers(g):
    d = degeneracy_order(g)
    assert (d.order, d.k) == peel_oracle(g)
    oracle = nx.Graph()
    oracle.add_nodes_from(g.vertices)
    oracle.add_edges_from(g.edges)
    assert d.k == max(nx.core_number(oracle).values())
    indptr, indices = g.csr
    assert not indptr.flags.writeable and not indices.flags.writeable
    adjacency = neighbours(g)
    for i, v in enumerate(g.vertices):
        assert sorted(g.vertices[j] for j in indices[indptr[i]:indptr[i + 1]]) == sorted(adjacency[v])


def test_cascade_shapes_peel_as_described():
    d = degeneracy_order(relabelled(k8_with_pendant_paths()))
    # pendant paths from their free ends, then the cycle, then the clique
    assert d.k == 7 and d.order[:2] == (102, 101) and d.order[-8:] == tuple(range(8))
    d = degeneracy_order(relabelled(star_joined_to_path()))
    assert d.k == 1 and d.order[:41] == tuple(range(1, 41)) + (0,)
    d = degeneracy_order(relabelled(cliques_in_a_chain()))
    assert d.k == 6 and d.order == (11, 12, 10, 13, *range(6), *range(20, 27))


def test_order_from_another_graph_is_refused():
    g, other = path(5), Graph.from_edges([(1, 2), (2, 3), (3, 4), (4, 6)])
    refused = "^degeneracy order does not match graph vertices$"
    for d in [degeneracy_order(other), degeneracy_order(path(4)), DegeneracyOrder((1, 2, 3, 4, 2**70), 1)]:
        for use in (star_forest_decomposition, greedy_coloring):
            with pytest.raises(ValueError, match=refused):
                use(g, d)
    # a repeated vertex, and float ids equal to the path's
    for h, d in [(g, DegeneracyOrder((1, 2, 3, 4, 5, 5), 1)), (path(3), DegeneracyOrder((1.0, 2.0, 3.0), 1))]:
        for use in (star_forest_decomposition, greedy_coloring):
            with pytest.raises(ValueError, match=refused):
                use(h, d)


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
        adjacency = neighbours(g)
        for v in g.vertices:
            later = sum(1 for w in adjacency[v] if pos[w] > pos[v])
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

    def test_stacked_forests_count_covered_edges(self):
        for seed in range(40):
            g = random_k_degenerate_graph(2 + seed, 1 + seed % 4, seed=seed)
            forests = star_forest_decomposition(g, degeneracy_order(g))
            stacked = np.array(forests).reshape(-1, g.num_vertices)
            assert check_star_forest(g, stacked) == g.num_edges
            assert check_star_forest(g, stacked[1:]) == g.num_edges - (stacked[0] != np.arange(g.num_vertices)).sum()
            assert check_star_forest(g, np.concatenate([stacked, stacked])) == g.num_edges
        g = path(4)  # positions 0-1-2-3
        assert check_star_forest(g, np.array([[1, 1, 3, 3], [0, 2, 2, 3]])) == 3
        assert check_star_forest(g, np.array([1, 1, 1, 3])) == 2
        with pytest.raises(ValueError, match="root"):
            check_star_forest(g, np.array([[1, 1, 3, 3], [1, 2, 2, 3]]))
        with pytest.raises(ValueError, match="edge"):
            check_star_forest(g, np.array([[1, 1, 3, 3], [0, 1, 0, 3]]))
        with pytest.raises(ValueError, match="one position"):
            check_star_forest(g, np.array([[[1, 1, 3, 3]]]))

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


def star_forests_oracle(g, d):
    """Star forests by a per-edge level loop, the check on the pointer
    doubling: levels in a dict, one edge at a time in reverse peeling
    order of the child."""
    n = g.num_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    rank = np.argsort([index[v] for v in d.order])
    u, v = g.edge_positions.T
    child = np.where(rank[u] < rank[v], u, v)
    parent = u + v - child
    by_child = np.lexsort((parent, child))
    child, parent = child[by_child], parent[by_child]
    slot = np.arange(child.size) - np.searchsorted(child, child)
    cell, up = (slot * n + child).tolist(), (slot * n + parent).tolist()
    level = {}
    odd = np.zeros(child.size, dtype=bool)
    for e in np.argsort(-rank[child], kind="stable").tolist():
        above = level.get(up[e], 0)
        odd[e] = above % 2
        level[cell[e]] = above + 1
    forests = []
    for s, parity in itertools.product(range(d.k), (False, True)):
        mask = (slot == s) & (odd == parity)
        if mask.any():
            c, p = child[mask], parent[mask]
            flip = (np.bincount(p, minlength=n)[p] == 1) & (c < p)
            roots = np.arange(n, dtype=np.int64)
            roots[np.where(flip, p, c)] = np.where(flip, c, p)
            forests.append(roots)
    return forests


@st.composite
def forest_graphs(draw):
    """Degeneracy at most 5 over sparse ids with isolated vertices; or a
    path or caterpillar of 200-500 vertices, whose slot forests are
    hundreds of levels deep."""
    rnd = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["random", "path", "caterpillar"]))
    if shape == "random":
        n, k = draw(st.integers(1, 60)), draw(st.integers(0, 5))
        edges = [(i, j) for i in range(1, n) for j in rnd.sample(range(i), min(k, i)) if rnd.random() < 0.8]
        isolated = range(n, n + draw(st.integers(0, 4)))
        return relabelled(edges, isolated, seed=rnd.randrange(1, 2**16))
    n = draw(st.integers(200, 500))
    spine = n if shape == "path" else n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rnd.randrange(spine), leaf) for leaf in range(spine, n)]
    # ids in spine order keep the peel walking the spine from one end
    return relabelled(edges, seed=draw(st.sampled_from([0, rnd.randrange(1, 2**16)])))


@settings(max_examples=120, deadline=None)
@given(forest_graphs())
@example(path(400)).via("slot 0 is the path, 399 levels deep")
def test_star_forests_match_level_loop_oracle(g):
    d = degeneracy_order(g)
    forests, expected = star_forest_decomposition(g, d), star_forests_oracle(g, d)
    assert len(forests) == len(expected)
    for roots, want in zip(forests, expected):
        assert roots.dtype == np.int64 and roots.tolist() == want.tolist()


class TestSubdivide:
    def test_triangle_becomes_six_cycle(self):
        g = complete(3)
        gsub = subdivide(g)
        assert gsub.num_vertices == 6 and gsub.num_edges == 6
        assert all(len(ns) == 2 for ns in neighbours(gsub).values())

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
        sub_adjacency, adjacency = neighbours(subdivide(g)), neighbours(g)
        for (u, v), mid in zip(g.edges, subdivision_mids(g)):
            assert sub_adjacency[mid] == frozenset({u, v})
        for v in g.vertices:
            assert len(sub_adjacency[v]) == len(adjacency[v])

    def test_fresh_ids_above_max(self):
        g = Graph.from_edges([(3, 7)])
        assert subdivision_mids(g) == range(8, 9)

    def test_mids_follow_sorted_edges_above_isolated(self):
        # the isolated vertex 20 is the largest id, so mids start at 21
        g = Graph.build([2, 5, 9, 20], [(5, 9), (2, 9), (2, 5)])
        assert subdivision_mids(g) == range(21, 24)
        assert neighbours(subdivide(g))[21] == frozenset({2, 5})
        assert neighbours(subdivide(g))[23] == frozenset({5, 9})

    def test_edgeless_and_empty(self):
        g = Graph.build([4, 6], [])
        assert subdivision_mids(g) == range(7, 7) and subdivide(g) == g
        empty = Graph.build([], [])
        assert subdivision_mids(empty) == range(0, 0) and subdivide(empty) == empty


@st.composite
def sparse_graphs(draw):
    """Vertex ids and edges (either orientation) over sparse ids, some at
    or above 2^63, where only positions fit numpy's integers."""
    ids = draw(st.lists(st.integers(0, 40) | st.integers(2**63 - 2, 2**70), min_size=1, max_size=10, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    edges = list({(min(p), max(p)): p for p in pairs if p[0] != p[1]}.values())
    return ids, edges


class TestStoredForm:
    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_positions_match_id_pairs(self, graph):
        ids, edges = graph
        g = Graph.build(ids, edges)
        assert g.edges == tuple(sorted((min(e), max(e)) for e in edges))
        assert g.edge_positions.dtype == np.int64 and g.edge_positions.shape == (len(edges), 2)
        assert not g.edge_positions.flags.writeable
        # the parent's construction, through the ids, is the oracle
        mids = subdivision_mids(g)
        path_edges = [(x, m) for e, m in zip(g.edges, mids) for x in e]
        assert subdivide(g) == Graph.build(itertools.chain(g.vertices, mids), path_edges)

    def test_equality_compares_vertices_and_positions(self):
        g = Graph.build([1, 2, 3], [(1, 2)])
        assert g == Graph.build([3, 2, 1], [(2, 1)])
        assert g != Graph.build([1, 2, 3], [(2, 3)]) and g != Graph.build([1, 2, 4], [(1, 2)])
        assert g != (g.vertices, g.edge_positions)

    @pytest.mark.parametrize("vertices,edges", [
        ([True, 2, 3, 4], [(True, 2), (3, 4)]),
        ([False, 2, 3], [(False, 2)]),
        ([1, 2, 3.0], [(1, 2)]),
        # as edge endpoints, True and 1.0 pass a lookup in the vertex set
        ([0, 1, 2], [(True, 2)]),
        ([0, 1, 2], [(1.0, 2)]),
        ([0, 1, 2], [(2, False)]),
    ])
    def test_build_rejects_bools_and_floats(self, vertices, edges):
        # True == 1 passes isinstance(v, int); every family over it would fail
        with pytest.raises(GraphFormatError, match="vertex ids must be non-negative integers"):
            Graph.build(vertices, edges)
        with pytest.raises(GraphFormatError, match="vertex ids must be non-negative integers"):
            Graph.from_edges(edges, isolated=vertices)

    def test_star_cover_never_builds_id_pairs(self):
        # the star cover and the pair check read positions only
        g = load_graph(serialize_graph(random_k_degenerate_graph(300, 2, seed=1)))
        result = degenerate_family(g)
        certify_star_cover(g, result)
        assert verify_pairwise_suitable(result.family, g).ok
        assert "edges" not in vars(g)


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
