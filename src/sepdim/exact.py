"""The exact search engine, and separation dimension on it.

`fewest_orders` is the one exact engine: the fewest strict orders that
extend a base order and meet a list of "X before Y" requirements, as
(base rows, requirements, first t, limit, budget, member-0 base) ->
(t, closed relations, nodes); `linear_completion` turns a relation
into one linear order.  Its two clients, `exact_separation_dimension`
here and `posets.exact_poset_dimension`, only build requirements and
map relations back to elements.  The constructions run no search:
their minimum 3-suitable bases come from a table in `sepdim.suitable3`.

Separation dimension runs the engine on the empty order: each disjoint
edge pair (e, f) is one requirement with the alternatives "e before f"
and "f before e", and t = 1, 2, ... members are tried up to the limit.
Vertices in no edge lie in no disjoint edge pair: the search runs
without them, the size guard does not count them, and they close every
witness member in id order.  Each witness member is the smallest-first
linear extension of its relation.  The result is the first minimum
family in the engine's search order; there is no filter over witnesses.

Member 0 lists each twin class in increasing id order: the engine takes
those chains as its first order's own base.  Twins are vertices u != v
with N(u) - {v} = N(v) - {u}: open twins (equal neighbourhoods, not
adjacent) or closed twins (equal closed neighbourhoods, adjacent).  On
the non-isolated vertices this is an equivalence: a vertex v with a
closed twin u and an open twin w would have u in N(v) - {w} = N(w), so
w in N(u) - {v} = N(v), yet open twins are not adjacent.  Any
permutation of one class is an automorphism that fixes every other
vertex, so the classes can be sorted all at once, and an automorphism
maps disjoint edge pairs onto disjoint edge pairs.  So applying it to
every member of a minimum family gives one of the same size that is
still pairwise suitable and whose member 0 lists every class in
increasing id order.  A graph without twins searches as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf
from operator import add

from .families import PermutationFamily, disjoint_edge_pairs
from .graphs import Graph

DEFAULT_BUDGET = 20_000_000  # node budget of the poset and separation dimension searches
SEARCH_VERTEX_MAX = 12


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget (or hit a size guard)."""


def fewest_orders(
    base_up: list[int], requirements, first_t: int, limit: int, budget: int, first_up=None
):
    """Fewest strict orders, from `first_t` up to `limit`, that extend a
    base order and meet every requirement.

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
    if any exists, has an order 0 that extends `first_up` (separation
    dimension fixes twin classes there).  The rules above stay sound, because
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


def linear_completion(up: list[int]) -> list[int]:
    """The linear order that completes closed rows `up`, deterministically:
    smallest available element first, i.e. the lowest element left that
    is above no element left."""
    m = len(up)
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


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of an exact search up to a family-size limit."""

    dimension: int | None
    witness: PermutationFamily | None
    nodes: int


def exact_separation_dimension(
    g: Graph,
    limit: int,
    budget: int = DEFAULT_BUDGET,
) -> ExactSearchResult:
    """Smallest pairwise-suitable family size up to `limit`, with witness.

    Raises SearchBudgetExceeded when the instance is too large or the
    node budget runs out; returns a result with `dimension` None when the
    search completes without finding a family within the limit.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    incident = {v for e in g.edges for v in e}
    core = [v for v in g.vertices if v in incident]
    isolated = [v for v in g.vertices if v not in incident]
    n = len(core)
    if n <= SEARCH_VERTEX_MAX:
        pairs = list(disjoint_edge_pairs(g))
    else:  # past the guard only a star has no disjoint edge pair; None: not listed
        pairs = [] if set.intersection(*map(set, g.edges)) else None
    if pairs == []:
        return ExactSearchResult(0, PermutationFamily.build(g.vertices, ()), 0)
    if limit == 0:
        return ExactSearchResult(None, None, 0)
    if pairs is None:
        raise SearchBudgetExceeded(f"exact search is limited to {SEARCH_VERTEX_MAX} non-isolated vertices")
    index = {v: i for i, v in enumerate(core)}
    requirements = []
    for e, f in pairs:
        e, f = (index[e[0]], index[e[1]]), (index[f[0]], index[f[1]])
        requirements.append(((e, f), (f, e)))
    t, relations, nodes = fewest_orders(
        [0] * n, requirements, 1, limit, budget, _twin_chains(g, index)
    )
    if t is None:
        return ExactSearchResult(None, None, nodes)
    members = [[core[i] for i in linear_completion(up)] + isolated for up in relations]
    return ExactSearchResult(t, PermutationFamily.build(g.vertices, members), nodes)


def _twin_chains(g: Graph, index: dict) -> list[int] | None:
    """Each twin class of the indexed vertices as a chain in index order,
    as closed bitset rows; None when no class has two members.  Open
    twins have equal neighbourhoods, closed twins equal closed ones."""
    nbrs = [0] * len(index)
    for u, v in g.edges:
        nbrs[index[u]] |= 1 << index[v]
        nbrs[index[v]] |= 1 << index[u]
    open_twins, closed_twins = {}, {}
    for i, row in enumerate(nbrs):
        open_twins.setdefault(row, []).append(i)
        closed_twins.setdefault(row | 1 << i, []).append(i)
    # a vertex is in at most one class of two or more, so the rows are closed
    up = [0] * len(index)
    for members in chain(open_twins.values(), closed_twins.values()):
        for a, i in enumerate(members):
            up[i] |= sum(1 << k for k in members[a + 1:])
    return up if any(up) else None
