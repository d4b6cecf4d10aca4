"""Posets, interval orders, realizers, exact dimension, heuristic."""

import sys
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from sepdim import exact, posets
from sepdim.exact import exact_separation_dimension
from sepdim.graphs import Graph
from sepdim.posets import (
    Poset,
    PosetError,
    SearchBudgetExceeded,
    canonical_interval_order,
    exact_poset_dimension,
    height,
    interval_order,
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


class TestHeight:
    def test_antichain(self):
        p = Poset.build(range(5), [])
        assert height(p) == 1

    def test_canonical_chain(self):
        for n in (3, 4, 6):
            assert height(canonical_interval_order(n)) == n - 1

    def test_empty(self):
        assert height(Poset.build([], [])) == 0


class TestIntervalOrder:
    def test_from_path_identity(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        order = interval_order_from(g, (1, 2, 3))
        assert order.elements == ((1, 2), (2, 3))
        assert order.less((1, 2), (2, 3))

    def test_from_triangle(self):
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3)])
        p = interval_order_from(g, (1, 2, 3))
        assert p.elements == ((1, 2), (1, 3), (2, 3))
        assert p.less((1, 2), (2, 3)) and not p.less((2, 3), (1, 2))
        incomparable = [(x, y) for x, y in combinations(p.elements, 2)
                        if not p.less(x, y) and not p.less(y, x)]
        assert incomparable == [((1, 2), (1, 3)), ((1, 3), (2, 3))]

    def test_edgeless(self):
        g = Graph.build([1, 2], [])
        order = interval_order_from(g, (1, 2))
        assert order.elements == ()

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
            interval_order([(2, 2)])

    @pytest.mark.parametrize("intervals", [
        [(1.2, 1.7)],  # truncating would give (1, 1), an element above itself
        [(1.2, 2.5), (1.0, 2.0)],  # truncating would give a duplicate
        [(True, 2)],
        [(1, 2.0)],
    ])
    def test_non_integer_endpoints_rejected(self, intervals):
        with pytest.raises(PosetError, match="integers"):
            interval_order(intervals)


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
        p = canonical_interval_order(3)
        assert brute_dimension(p, 3) == 2  # oracle first
        res = exact_poset_dimension(p, limit=3)
        assert res.dimension == 2
        assert is_realizer(res.realizer, p)

    def test_c2_with_oracle(self):
        p = canonical_interval_order(2)
        assert brute_dimension(p, 2) == 1
        assert exact_poset_dimension(p, limit=2).dimension == 1

    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 3), (8, 3)]
    )
    def test_canonical_goldens(self, n, expected):
        p = canonical_interval_order(n)
        res = exact_poset_dimension(p, limit=4)
        assert res.dimension == expected
        assert is_realizer(res.realizer, p)

    @pytest.mark.parametrize("n,nodes", [(4, 10), (5, 44)])
    def test_budget_equal_to_node_count_suffices(self, n, nodes):
        # C_5 fails at t = 2 first, so its budget spans two searches
        p = canonical_interval_order(n)
        assert exact_poset_dimension(p, limit=4).nodes == nodes
        assert exact_poset_dimension(p, limit=4, budget=nodes).nodes == nodes
        with pytest.raises(SearchBudgetExceeded):
            exact_poset_dimension(p, limit=4, budget=nodes - 1)

    def test_exceeded_below_limit(self):
        p = Poset.build([1, 2], [])
        res = exact_poset_dimension(p, limit=1)
        assert res.dimension is None

    def test_antichain_needs_no_recursion(self):
        # 20 pairwise overlapping intervals: one search level per
        # requirement met, deeper than a lowered recursion limit allows
        p = interval_order([(i, 100 + i) for i in range(20)])
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
def small_posets(draw, max_elements=5):
    # the drawn element order is a linear extension of every drawn pair
    elements = draw(st.lists(st.integers(0, 20), unique=True, max_size=max_elements))
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


def full_list_dimension(p: Poset, limit: int) -> int | None:
    """Test-only oracle: the engine on one requirement "a before b" per
    ordered incomparable pair (a, b), not only the critical ones."""
    up, m = list(p.up), len(p.up)
    if sum(row.bit_count() for row in up) == m * (m - 1) // 2:
        return 1
    requirements = [
        (((a,), (b,)),)
        for a, b in permutations(range(m), 2)
        if not (up[a] >> b & 1 or up[b] >> a & 1)
    ]
    return posets._dimension_dfs(up, requirements, 2, limit, posets.DEFAULT_BUDGET)[0]


def _requirement_count(p: Poset, monkeypatch) -> int:
    """How many requirements `exact_poset_dimension` hands the engine."""
    seen = []
    real = posets._dimension_dfs

    def counting(base_up, requirements, *args):
        seen.append(len(requirements))
        return real(base_up, requirements, *args)

    monkeypatch.setattr(posets, "_dimension_dfs", counting)
    exact_poset_dimension(p, limit=4)
    monkeypatch.undo()
    return seen[0]


@st.composite
def chains_and_antichains(draw):
    elements = draw(st.lists(st.integers(0, 20), unique=True, max_size=7))
    if draw(st.booleans()):
        return Poset.build(elements, [])
    return Poset.build(elements, zip(elements, elements[1:]))


@settings(max_examples=150, deadline=None)
@given(small_posets(max_elements=7) | chains_and_antichains())
def test_critical_pairs_keep_the_dimension(p):
    # at most 7 elements: dimension at most 3 (Hiraguchi), so limit 4 decides
    res = exact_poset_dimension(p, limit=4)
    assert res.dimension == full_list_dimension(p, 4)
    assert is_realizer(res.realizer, p)


def standard_example(n: int) -> Poset:
    """S_n: a_i below b_j exactly when i != j."""
    pairs = [(f"a{i}", f"b{j}") for i in range(n) for j in range(n) if i != j]
    return Poset.build([f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)], pairs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_example_has_n_critical_pairs(n, monkeypatch):
    # the critical pairs of S_n are (a_i, b_i), one reversal each
    p = standard_example(n)
    assert _requirement_count(p, monkeypatch) == n
    res = exact_poset_dimension(p, limit=n + 1)
    assert res.dimension == n
    assert is_realizer(res.realizer, p)


@pytest.mark.parametrize("n,count", [(5, 25), (6, 55), (7, 105), (8, 182)])
def test_canonical_requirement_counts(n, count, monkeypatch):
    # one per critical pair of C_n (60, 140, 280 and 504 ordered
    # incomparable pairs)
    assert _requirement_count(canonical_interval_order(n), monkeypatch) == count


@st.composite
def pair_lists(draw):
    # ordered pairs of distinct elements in any direction, so cycles occur
    elements = draw(st.lists(st.integers(0, 20), unique=True, max_size=7))
    pairs = [(x, y) for x in elements for y in elements if x != y]
    return elements, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_build_matches_networkx(drawn):
    elements, pairs = drawn
    dag = nx.DiGraph(pairs)
    dag.add_nodes_from(elements)
    if not nx.is_directed_acyclic_graph(dag):
        with pytest.raises(PosetError, match="cycle"):
            Poset.build(elements, pairs)
        return
    p = Poset.build(elements, pairs)
    closure = nx.transitive_closure_dag(dag)
    for x, y in permutations(elements, 2):
        assert p.less(x, y) == closure.has_edge(x, y)
    assert height(p) == (nx.dag_longest_path_length(dag) + 1 if elements else 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8)), unique=True, max_size=12))
def test_interval_order_rows_match_build(starts_and_lengths):
    order = interval_order([(a, a + d) for a, d in starts_and_lengths])
    pairs = [(x, y) for x in order.elements for y in order.elements if x != y and x[1] <= y[0]]
    assert order == Poset.build(order.elements, pairs)


@st.composite
def relations_and_orders(draw):
    """A relation on up to 12 sparse ids, acyclic as it is drawn along
    the element order, and candidate orders: linear extensions
    (networkx's smallest-key-first sort under drawn keys), some with a
    repeat, a missing, a foreign element or a violated pair, and
    arbitrary orders of the elements."""
    elements = draw(st.lists(st.integers(0, 40), unique=True, max_size=12))
    pairs = [(x, y) for i, x in enumerate(elements) for y in elements[i + 1:]]
    relation = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    dag = nx.DiGraph(relation)
    dag.add_nodes_from(elements)
    orders = []
    for _ in range(draw(st.integers(0, 4))):
        rank = {x: i for i, x in enumerate(draw(st.permutations(elements)))}
        order = list(nx.lexicographical_topological_sort(dag, key=rank.__getitem__))
        fault = draw(st.sampled_from(["none", "none", "repeat", "missing", "foreign", "violated", "any"]))
        at = draw(st.integers(0, len(order)))
        if fault == "repeat" and order:
            order.insert(at, order[at - 1])
        elif fault == "missing" and order:
            del order[at - 1]
        elif fault == "foreign":
            order.insert(at, 41)
        elif fault == "violated" and relation:
            x, y = draw(st.sampled_from(relation))
            i, j = order.index(x), order.index(y)
            order[i], order[j] = y, x
        elif fault == "any":
            order = draw(st.permutations(elements))
        orders.append(order)
    return elements, relation, orders


@settings(max_examples=300, deadline=None)
@given(relations_and_orders())
def test_order_checks_match_networkx(drawn):
    # the completion is networkx's smallest-first sort; a linear extension
    # lists each element once and holds the closure's pairs; a realizer's
    # extensions are linear and their pair sets intersect to the closure
    elements, relation, orders = drawn
    p = Poset.build(elements, relation)
    dag = nx.DiGraph(relation)
    dag.add_nodes_from(elements)
    closure = set(nx.transitive_closure_dag(dag).edges)
    completion = posets._topo_indices(list(p.up), len(elements))
    assert [p.elements[i] for i in completion] == list(nx.lexicographical_topological_sort(dag))

    def pair_set(order):
        return {(x, y) for i, x in enumerate(order) for y in order[i + 1:]}

    linear = [len(order) == len(elements) and set(order) == set(elements) and closure <= pair_set(order)
              for order in orders]
    assert [is_linear_extension(order, p) for order in orders] == linear
    assert is_realizer((), p) == (not elements)
    for k in range(1, len(orders) + 1):
        realizes = all(linear[:k]) and set.intersection(*map(pair_set, orders[:k])) == closure
        assert is_realizer(tuple(orders[:k]), p) == realizes


# ---------------------------------------------------------------------------
# The engine against a full rescan: same search order, so the same result
# ---------------------------------------------------------------------------


def _rescan_dfs(base_up, requirements, first_t, limit, budget):
    """Reference for `posets._dimension_dfs`: the same search, but every
    node rescans every requirement on every order instead of keeping
    requirement state across commit and rollback."""
    m = len(base_up)
    symmetric = not any(base_up) and all(
        (ys, xs) in req for req in requirements for xs, ys in req
    )
    reqs = [
        [(xs, sum(1 << x for x in xs), ys, sum(1 << y for y in ys),
          symmetric and (ys, xs) in req[:i])
         for i, (xs, ys) in enumerate(req)]
        for req in requirements
    ]
    nodes = 0
    for t in range(first_t, limit + 1):
        ups = [list(base_up) for _ in range(t)]
        touched = [False] * t
        # one frame per expanded node on the current path: its untried
        # candidates, and the undo record of the child explored
        stack = []
        while True:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")
            best = None
            for alts in reqs:
                cands = []
                met = False
                fresh_seen = False
                for k in range(t):
                    fresh = not touched[k]
                    if fresh:
                        if fresh_seen:
                            continue
                        fresh_seen = True
                    up = ups[k]
                    for alt in alts:
                        xs, xb, ys, yb, mirror = alt
                        for x in xs:
                            if up[x] & yb != yb:
                                break
                        else:
                            met = True
                            break
                        if fresh and mirror:
                            continue
                        for y in ys:
                            if up[y] & xb:
                                break
                        else:
                            cands.append((k, alt))
                    if met:
                        break
                if not met and (best is None or len(cands) < len(best)):
                    best = cands
                    if not cands:
                        break
            if best is None:
                return t, ups, nodes
            stack.append((iter(best), []))
            while stack:  # backtrack to the deepest untried candidate
                untried, undo = stack[-1]
                if undo:
                    changes, k, was_touched = undo.pop()
                    up = ups[k]
                    for a, old in reversed(changes):
                        up[a] = old
                    touched[k] = was_touched
                cand = next(untried, None)
                if cand is not None:
                    k, (xs, xb, ys, yb, _) = cand
                    up = ups[k]
                    above = yb
                    for y in ys:
                        above |= up[y]
                    changes = []
                    for a in range(m):
                        old = up[a]
                        if (xb >> a & 1 or old & xb) and old | above != old:
                            changes.append((a, old))
                            up[a] = old | above
                    undo.append((changes, k, touched[k]))
                    touched[k] = True
                    break
                stack.pop()
            else:
                break
    return None, None, nodes


def _engine_calls(run):
    """The arguments of every `_dimension_dfs` call that `run()` makes."""
    engine = posets._dimension_dfs
    calls = []

    def spy(*args):
        calls.append(args)
        return engine(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posets, "_dimension_dfs", spy)
        mp.setattr(exact, "_dimension_dfs", spy)
        try:
            run()
        except SearchBudgetExceeded:
            pass
    return calls


def _outcome(search, args):
    try:
        return search(*args)
    except SearchBudgetExceeded as exc:
        return str(exc)


def _assert_engine_matches_rescan(run):
    for args in _engine_calls(run):
        assert _outcome(posets._dimension_dfs, args) == _outcome(_rescan_dfs, args)


@st.composite
def sparse_graphs(draw):
    # fewer than 4 vertices hold no disjoint edge pair
    n = draw(st.integers(4, 8))
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)))
    pairs = list(combinations(ids, 2))
    size = st.integers(min(n - 1, len(pairs)), min(2 * n, len(pairs)))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=draw(size))) if pairs else []
    return Graph.build(ids, edges)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs())
def test_engine_matches_rescan_on_graphs(g):
    # a small budget keeps dense graphs cheap; running out is an outcome too
    _assert_engine_matches_rescan(lambda: exact_separation_dimension(g, limit=3, budget=2_000))


@settings(max_examples=60, deadline=None)
@given(small_posets(max_elements=7))
def test_engine_matches_rescan_on_posets(p):
    _assert_engine_matches_rescan(lambda: exact_poset_dimension(p, limit=3, budget=20_000))


@st.composite
def requirement_lists(draw):
    # a sparse base order, and alternatives with disjoint sides, mirrored
    # or not: shapes beyond the two that the callers build
    m = draw(st.integers(2, 7))
    pairs = list(combinations(range(m), 2))
    p = Poset.build(range(m), draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)))
    base_up = list(p.up)
    requirements = []
    for _ in range(draw(st.integers(4, 12))):
        req = []
        for _ in range(draw(st.integers(1, 2))):
            both = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=4, unique=True))
            cut = draw(st.integers(1, len(both) - 1))
            xs, ys = tuple(sorted(both[:cut])), tuple(sorted(both[cut:]))
            req += [(xs, ys), (ys, xs)] if draw(st.booleans()) else [(xs, ys)]
        requirements.append(tuple(req))
    first_t = draw(st.integers(1, 2))
    return base_up, requirements, first_t, draw(st.integers(first_t, 3)), 2_000


@settings(max_examples=80, deadline=None)
@given(requirement_lists())
def test_engine_matches_rescan_on_any_requirements(args):
    assert _outcome(posets._dimension_dfs, args) == _outcome(_rescan_dfs, args)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_engine_matches_rescan_on_3_suitable(n):
    # one requirement per 3-set and designated a: x and y before a
    requirements = [
        ((tuple(v for v in triple if v != a), (a,)),)
        for triple in combinations(range(n), 3)
        for a in triple
    ]
    args = ([0] * n, requirements, 3, n, 100_000)
    assert _outcome(posets._dimension_dfs, args) == _outcome(_rescan_dfs, args)


# node counts of the full-rescan engine: keeping requirement state
# incrementally must expand exactly the same nodes
_PETERSEN = [(i + 1, (i + 1) % 5 + 1) for i in range(5)] \
    + [(i + 6, (i + 2) % 5 + 6) for i in range(5)] + [(i + 1, i + 6) for i in range(5)]
_NODE_COUNT_GRAPHS = {
    "k44": ([(u, v) for u in range(1, 5) for v in range(5, 9)], 8_374),
    "petersen": (_PETERSEN, 8_521),
    "k6": (list(combinations(range(1, 7), 2)), 103),
    "k34": ([(u, v) for u in range(1, 4) for v in range(4, 8)], 65),
    "c10": ([(i, i % 10 + 1) for i in range(1, 11)], 39),
}


@pytest.mark.parametrize("n,nodes", [(5, 44), (6, 72), (7, 117)])
def test_canonical_dimension_node_counts(n, nodes):
    assert exact_poset_dimension(canonical_interval_order(n), limit=4).nodes == nodes


@pytest.mark.parametrize("name", _NODE_COUNT_GRAPHS)
def test_separation_dimension_node_counts(name):
    edges, nodes = _NODE_COUNT_GRAPHS[name]
    assert exact_separation_dimension(Graph.from_edges(edges), limit=6).nodes == nodes


class TestHeuristic:
    def test_chain(self):
        order = interval_order([(1, 2), (2, 3), (3, 4)])
        assert len(realizer_heuristic(order)) == 1

    def test_c3_matches_exact(self):
        order = canonical_interval_order(3)
        assert len(realizer_heuristic(order)) == 2

    def test_overlapping_antichain(self):
        order = interval_order([(1, 10), (2, 11), (3, 12)])
        r = realizer_heuristic(order)
        assert len(r) == 2
        assert is_realizer(r, order)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_valid_on_canonical(self, n):
        order = canonical_interval_order(n)
        r = realizer_heuristic(order)
        assert is_realizer(r, order)
        exact = exact_poset_dimension(order, limit=4).dimension
        assert len(r) == exact

    def test_empty_and_single(self):
        assert len(realizer_heuristic(interval_order([]))) == 1
        assert len(realizer_heuristic(interval_order([(1, 2)]))) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8)), unique=True, max_size=8))
def test_heuristic_is_a_minimum_realizer(starts_and_lengths):
    order = interval_order([(a, a + d) for a, d in starts_and_lengths])
    r = realizer_heuristic(order)
    assert is_realizer(r, order)
    assert len(r) == exact_poset_dimension(order, limit=max(1, len(order))).dimension


def test_dimension_monotone_in_n():
    dims = [
        exact_poset_dimension(canonical_interval_order(n), limit=4).dimension
        for n in range(2, 8)
    ]
    assert all(b >= a for a, b in zip(dims, dims[1:]))
