"""Strict partial orders, interval orders, realizers, and the exact
dimension search.

Elements may be any sortable hashables.  A poset is its closed bitset
rows: the order checks (`is_linear_extension`, `is_realizer`) and the
completion of a relation to one linear order (`_topo_indices`) read
those rows and nothing else.  An interval order is a `Poset` too:
`interval_order` takes ``(a, b)`` integer pairs with ``a < b`` and
builds the rows of ``(a, b) < (c, d)`` iff ``b <= c`` from the endpoints.

`_dimension_dfs` is the one exact engine: it finds the fewest strict
orders extending a base order that meet a list of "X before Y"
requirements.  It has two users.  Poset dimension runs it on the
poset with one requirement per critical pair, that pair reversed (a
realizer is exactly a set of linear extensions that reverses every
critical pair); separation dimension (`sepdim.exact`) runs it on the
empty order over a graph's vertices, with its twin classes as chains
in the first order's own base.  The constructions run no search:
their minimum 3-suitable bases come from a table in `sepdim.suitable3`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import inf
from operator import add

from .graphs import Graph


class PosetError(ValueError):
    """Invalid poset data (reflexive pair, cycle, element mismatch)."""


@dataclass(frozen=True)
class Poset:
    """Finite strict partial order over its sorted elements: `up[i]` is
    the bitset of the indices above element i, transitively closed."""

    elements: tuple
    up: tuple

    @staticmethod
    def build(elements, pairs) -> "Poset":
        elements = tuple(sorted(set(elements)))
        index = {x: i for i, x in enumerate(elements)}
        m = len(elements)
        up = [0] * m
        for x, y in pairs:
            if x == y:
                raise PosetError(f"reflexive pair ({x}, {y})")
            if x not in index or y not in index:
                raise PosetError(f"pair ({x}, {y}) uses unknown elements")
            up[index[x]] |= 1 << index[y]
        # transitive closure (Warshall)
        for k in range(m):
            above = up[k]
            if above:
                bit = 1 << k
                for i in range(m):
                    if up[i] & bit:
                        up[i] |= above
        for i in range(m):
            if up[i] >> i & 1:
                raise PosetError(f"cycle through element {elements[i]}")
        return Poset(elements, tuple(up))

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def less(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)


def height(p: Poset) -> int:
    """Size of a largest chain (element count); 0 for the empty poset."""
    # each round peels the maximal elements left; a removed element's
    # row meets no remaining one, so peeling it again changes nothing
    remaining = (1 << len(p.up)) - 1
    rounds = 0
    while remaining:
        remaining &= ~sum(1 << i for i, row in enumerate(p.up) if not row & remaining)
        rounds += 1
    return rounds


def is_linear_extension(order, p: Poset) -> bool:
    """True iff `order` lists every element of `p` once, each before
    all of its row: one pass that keeps the bitset of elements placed."""
    placed = 0
    for x in order:
        i = p.index.get(x)
        if i is None or placed >> i & 1 or p.up[i] & placed:
            return False
        placed |= 1 << i
    return placed == (1 << len(p.up)) - 1


def is_realizer(extensions, p: Poset) -> bool:
    """A realizer: linear extensions whose intersection is `p`.  True iff
    every extension is valid and, for each element, the elements after
    it in every extension are exactly its row.  The masks start all
    ones, which no row is, so an empty tuple realizes only the empty
    poset."""
    m = len(p.up)
    common = [(1 << m) - 1] * m
    for ext in extensions:
        if not is_linear_extension(ext, p):
            return False
        after = 0
        for x in reversed(ext):
            i = p.index[x]
            common[i] &= after
            after |= 1 << i
    return common == list(p.up)


def interval_order(intervals) -> Poset:
    """The interval order of open intervals with integer endpoints,
    (a, b) < (c, d) iff b <= c, over the sorted intervals."""
    elements = []
    for a, b in intervals:
        if type(a) is not int or type(b) is not int:
            raise PosetError(f"interval endpoints must be integers, got ({a!r}, {b!r})")
        if a >= b:
            raise PosetError(f"open interval ({a}, {b}) is empty")
        elements.append((a, b))
    if len(set(elements)) != len(elements):
        raise PosetError("duplicate intervals")
    elements.sort()
    # x < y iff x ends at or before y starts, which is irreflexive and
    # transitive; sorted by start, the intervals above x are a suffix
    starts = [a for a, _ in elements]
    full = (1 << len(starts)) - 1
    firsts = (bisect_left(starts, b) for _, b in elements)
    return Poset(tuple(elements), tuple(full >> k << k for k in firsts))


def edge_intervals(g: Graph, sigma) -> list[tuple[int, int]]:
    """Each edge of g, in g.edges order, as the open interval between the
    ranks (from 1) of its endpoints in `sigma`, a sequence that lists
    every vertex of g once (ValueError otherwise).  Edges never share
    both ranks, so the intervals are distinct."""
    rank = {v: i + 1 for i, v in enumerate(sigma)}
    if len(rank) != len(sigma):
        raise ValueError("permutation contains repeated vertices")
    if rank.keys() != set(g.vertices):
        raise ValueError("permutation does not cover the graph vertices")
    return [(min(rank[u], rank[v]), max(rank[u], rank[v])) for u, v in g.edges]


def interval_order_from(g: Graph, sigma) -> Poset:
    """The interval order of a graph under a vertex ordering `sigma`: the
    order of its `edge_intervals`."""
    return interval_order(edge_intervals(g, sigma))


def canonical_interval_order(n: int) -> Poset:
    """All C(n,2) open intervals with endpoints in [n]."""
    if n < 2:
        raise ValueError("canonical interval order needs n >= 2")
    return interval_order([(a, b) for a in range(1, n) for b in range(a + 1, n + 1)])


# ---------------------------------------------------------------------------
# Exact dimension search: poset dimension and separation dimension
# ---------------------------------------------------------------------------


DEFAULT_BUDGET = 20_000_000  # node budget of the poset and separation dimension searches


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget (or hit a size guard)."""


@dataclass(frozen=True)
class PosetDimensionResult:
    dimension: int | None
    realizer: tuple[tuple, ...] | None
    nodes: int


def exact_poset_dimension(
    p: Poset, limit: int, budget: int = DEFAULT_BUDGET
) -> PosetDimensionResult:
    """Minimum realizer size up to `limit`, with a witness realizer.

    Chains (every pair comparable, so the rows hold m(m - 1)/2 bits;
    the empty and singleton posets too) have dimension 1.  Above
    that, `_dimension_dfs` runs on the order itself with one
    requirement per critical pair (a, b), "b before a".  The pair is
    critical when a and b are incomparable, D(a) is inside D(b) and
    U(b) is inside U(a), D being the elements below and U the elements
    above; U is a row, and the down rows are the rows transposed.

    These requirements suffice.  Take incomparable x and y.  Pick
    a <= x minimal with a incomparable to y, then b >= y maximal with b
    incomparable to a.  The pair (a, b) is critical:
    - an element below a is comparable to y, by the choice of a, and
      not above y (that would put y below x), so it is below y <= b;
    - an element above b is comparable to a, by the choice of b, and
      not below a (that would put y below x), so it is above a.
    An extension that puts b before a puts y before x.  So linear
    extensions that reverse every critical pair realize the poset, and
    every realizer reverses every critical pair: the minimum t is that
    of one requirement per incomparable pair, and a search that fails
    at t - 1 still refutes t - 1.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    elements, base_up = p.elements, list(p.up)
    m = len(elements)
    if sum(row.bit_count() for row in base_up) == m * (m - 1) // 2:
        ext = tuple(elements[i] for i in _topo_indices(base_up, m))
        return PosetDimensionResult(1, (ext,), 0)

    down = [sum(1 << i for i, row in enumerate(base_up) if row >> j & 1) for j in range(m)]
    # "x before y" reverses (y, x); kept when (y, x) is critical
    requirements = [
        (((x,), (y,)),)
        for x, y in permutations(range(m), 2)
        if not (base_up[x] >> y & 1 or base_up[y] >> x & 1)
        and not down[y] & ~down[x] and not base_up[x] & ~base_up[y]
    ]
    t, relations, nodes = _dimension_dfs(base_up, requirements, 2, limit, budget)
    if t is None:
        return PosetDimensionResult(None, None, nodes)
    realizer = tuple(tuple(elements[i] for i in _topo_indices(up, m)) for up in relations)
    if not is_realizer(realizer, p):
        raise AssertionError("dimension search produced an invalid realizer")
    return PosetDimensionResult(t, realizer, nodes)


def _dimension_dfs(
    base_up: list[int], requirements, first_t: int, limit: int, budget: int, first_up=None
):
    """Fewest strict orders, from `first_t` up to `limit`, that extend a
    base order and meet every requirement.

    Its users are `exact_poset_dimension` and
    `exact.exact_separation_dimension`.

    `base_up[a]` is the bitset of elements above a in the base order,
    transitively closed.  A requirement is a tuple of alternatives
    (X, Y) of disjoint index tuples, each meaning "all of X before all
    of Y"; it is met once one alternative holds in one of the t orders.
    The t orders start as the base and stay transitively closed.  Each
    node takes the unmet requirement with the fewest candidates (the
    earliest one on a tie) and branches over them: a candidate is an
    order and an alternative that fits it, i.e. no element of Y is
    already below an element of X there.  Committing X before Y puts
    everything up from Y above every element at or below X.

    Orders no alternative has touched all equal the base, so only the
    first of them is a candidate.  On it, an alternative (Y, X) that
    follows its mirror (X, Y) in the same requirement is skipped when
    the base is empty and every requirement is mirror-closed (holds the
    mirror of each of its alternatives).  That is sound: reversing an
    untouched member of a solution still extends the (empty) base, and
    meets every requirement it met through the mirrored alternatives,
    so some solution takes (X, Y) on that member.

    `first_up`, when given, is order 0's own base: it extends the base
    and is transitively closed.  Order 0 starts from it and counts as
    touched from the start, and requirements it meets are dropped; the
    other orders keep the base.  The caller vouches that some solution,
    if any exists, has an order 0 that extends `first_up` (`sepdim.exact`
    fixes twin classes there).  The rules above stay sound, because
    they act on orders 1..t-1 alone: permuting those orders, or
    reversing one of them while the base is empty, maps such a solution
    to one whose order 0 is the same.  So the first untouched order
    stands for all of them, and the mirror skip applies to it.

    Requirement state is kept across commit and rollback instead of
    being rescanned at every node.  Since a commit only ever goes to a
    touched order or to the first untouched one, the touched orders are
    always a prefix 0..j-1.  For each touched order the search keeps
    each requirement's status there: None once an alternative holds,
    else the alternatives that fit, in the requirement's own order.
    Orders only grow, so an alternative that stops fitting never fits
    again and never holds (that would close a cycle): a status only
    shrinks.  Each requirement also keeps its candidate count, infinite
    once it is met: its fitting alternatives on orders 0..j-1, plus its
    untouched-order ones (mirror skip applied) on order j while j < t.
    The base statuses are computed once; requirements the base meets
    are dropped, and the rest seed an order when it is first touched
    (order 0 is seeded from `first_up`, when given, at the start).
    A commit on order k recomputes, on k only, the unmet requirements
    it can change: those with an alternative that puts, opposite some
    element a, an element that a's row gained.  The old statuses and
    counts go into the node's undo record next to the old rows.  A met
    requirement is not updated: nothing reads its statuses until the
    commit that met it is rolled back, and every later commit is rolled
    back first.

    A full rescan lists a requirement's candidates order by order and,
    within an order, in the requirement's own order: its statuses on
    orders 0..j-1, then its untouched-order alternatives on order j.
    The counts are the lengths of those lists.  So the chosen
    requirement, its candidates and their order, and with them the node
    count and the relations returned, are those of a full rescan.

    Returns (t, the t closed relations, nodes spent), or (None, None,
    nodes) when no t up to `limit` works.  Nodes count over every t;
    SearchBudgetExceeded is raised once they pass `budget`.
    """
    m = len(base_up)
    symmetric = not any(base_up) and all(
        (ys, xs) in req for req in requirements for xs, ys in req
    )
    # base statuses of the requirements the base leaves unmet, on a
    # touched order (`seed`) and on the first untouched one (`fresh`)
    # (`first`: on order 0's own base; a requirement it meets is dropped)
    seed, first = [], []
    for req in requirements:
        status = _fitting(base_up, [
            (xs, sum(1 << x for x in xs), ys, sum(1 << y for y in ys),
             symmetric and (ys, xs) in req[:i])
            for i, (xs, ys) in enumerate(req)
        ])
        if status is None:
            continue
        if first_up is not None:
            # an alternative that does not fit the base fits no extension
            first_status = _fitting(first_up, status)
            if first_status is None:
                continue
            first.append(first_status)
        seed.append(status)
    fresh = [[alt for alt in status if not alt[4]] for status in seed]
    # mentions[a][r]: the elements requirement r's alternatives put
    # opposite a; r's status can change only when row a gains one of them
    mentions = [{} for _ in range(m)]
    for r, status in enumerate(seed):
        for xs, xb, ys, yb, _ in status:
            for x in xs:
                mentions[x][r] = mentions[x].get(r, 0) | yb
            for y in ys:
                mentions[y][r] = mentions[y].get(r, 0) | xb
    # count change when order j is first touched: its statuses join, and
    # the untouched-order candidates leave if j is the last order
    join = [len(status) for status in seed]
    join_last = [len(status) - len(f) for status, f in zip(seed, fresh)]
    nodes = 0
    for t in range(first_t, limit + 1):
        ups = [list(base_up) for _ in range(t)]
        statuses = [None] * t
        j = 0
        counts = [len(f) for f in fresh]
        if first_up is not None:
            ups[0] = list(first_up)
            statuses[0] = list(first)
            j = 1
            counts = [len(s) + (len(f) if t > 1 else 0) for s, f in zip(first, fresh)]
        # one frame per expanded node on the current path: its untried
        # candidates, and the undo record of the child explored
        stack = []
        while True:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")
            fewest = min(counts, default=inf)
            if fewest == inf:
                return t, ups, nodes
            r = counts.index(fewest)
            best = [(k, alt) for k in range(j) for alt in statuses[k][r]]
            if j < t:
                best += [(j, alt) for alt in fresh[r]]
            stack.append((iter(best), []))
            while stack:  # backtrack to the deepest untried candidate
                untried, undo = stack[-1]
                if undo:
                    changes, k, log, old_counts = undo.pop()
                    up = ups[k]
                    for a, old in reversed(changes):
                        up[a] = old
                    status = statuses[k]
                    for r, old, count in log:
                        status[r] = old
                        counts[r] = count
                    if old_counts is not None:
                        counts = old_counts
                        j = k
                cand = next(untried, None)
                if cand is not None:
                    k, (xs, xb, ys, yb, _) = cand
                    old_counts = None
                    if k == j:
                        old_counts = counts
                        counts = list(map(add, counts, join if k + 1 < t else join_last))
                        statuses[k] = list(seed)
                        j += 1
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
                    status = statuses[k]
                    log = []
                    for r in {r for a, old in changes for r, bits in mentions[a].items()
                              if bits & ~old & up[a]}:
                        count = counts[r]
                        if count == inf:
                            continue
                        old = status[r]
                        new = _fitting(up, old)
                        if new is None:
                            log.append((r, old, count))
                            status[r] = None
                            counts[r] = inf
                        elif len(new) < len(old):
                            log.append((r, old, count))
                            status[r] = new
                            counts[r] = count - len(old) + len(new)
                    undo.append((changes, k, log, old_counts))
                    break
                stack.pop()
            else:
                break
    return None, None, nodes


def _fitting(up: list[int], alts) -> list | None:
    """The alternatives that fit order `up`, in their order, or None when
    one of them already holds there."""
    out = []
    for alt in alts:
        xs, xb, ys, yb, _ = alt
        for x in xs:
            if up[x] & yb != yb:
                break
        else:
            return None
        for y in ys:
            if up[y] & xb:
                break
        else:
            out.append(alt)
    return out


def _topo_indices(up: list[int], m: int) -> list[int]:
    """Deterministic completion: smallest available element first, i.e.
    the lowest element left that is above no element left."""
    left = (1 << m) - 1
    out = []
    while left:
        above = 0
        for i in range(m):
            if left >> i & 1:
                above |= up[i]
        free = left & ~above
        v = (free & -free).bit_length() - 1
        out.append(v)
        left ^= 1 << v
    return out


def realizer_heuristic(p: Poset) -> tuple[tuple, ...]:
    """A minimum realizer of `p`, from `exact_poset_dimension`; raises
    SearchBudgetExceeded past the default budget.  The limit never cuts
    an answer off, as dim <= width <= |p|.  It keeps its name only for
    the benchmark's wrapper table, until ROADMAP item 5 deletes it."""
    return exact_poset_dimension(p, limit=max(1, len(p))).realizer
