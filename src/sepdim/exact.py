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
from operator import add

import numpy as np

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

    Each order is one relation, an m*m-bit integer with bit a*m + b set
    when a is below b.  Committing X before Y multiplies `below` (bit a*m
    for each a at or below X, read off the columns) by `above` (the
    elements at or above Y): the product is `above` in every row of
    `below`.  Each node keeps its state, and a commit copies what it
    changes, so rollback needs no log.

    Requirement state is kept across commit and rollback instead of
    being rescanned at every node.  Requirements the base meets are
    dropped (and those order 0's base meets), and every alternative of
    the rest that fits the base has one bit.  Since a commit only ever
    goes to a touched order or to the first untouched one, the touched
    orders are always a prefix 0..j-1; each keeps the bitmask of the
    alternatives that fit it.  Orders only grow, so an alternative that
    stops fitting never fits again and never holds (that would close a
    cycle).  The index `hold[a*m + b]` is the bitmask of the alternatives
    with a in X and b in Y, and `kill`, its transpose, of those with b in
    X and a in Y.  At each pair a commit adds, the alternatives in kill
    stop fitting, and those in hold are the only ones that can start to
    hold: each is tested against its X-before-Y pairs.  The two lists
    share their m*m integers.  They, `masks` and each alternative's
    `pairs` are built before the first node, so the budget does not bound
    them: for A alternatives of one pair each, each of the three takes
    about A*A/16 bytes (140 MiB in all for an antichain of 160).  An unmet
    requirement keeps its candidate count: its fitting alternatives on
    orders 0..j-1, plus its untouched-order ones (mirror skip applied) on
    order j while j < t.  A met requirement's count is raised to `met`,
    above every unmet count, and its alternatives leave `unmet`, so no
    later commit lowers it until the commit that met it is rolled back.

    A full rescan lists a requirement's candidates order by order and,
    within an order, in the requirement's own order: its fitting
    alternatives on orders 0..j-1, then its untouched-order ones on
    order j.  The counts are the lengths of those lists.  So the chosen
    requirement, its candidates and their order, and with them the node
    count and the orders returned, are those of a full rescan.

    Returns (t, the t orders as closed bitset rows, nodes spent), or
    (None, None, nodes) when no t up to `limit` works.  Nodes count over
    every t; SearchBudgetExceeded is raised once they pass `budget`.
    """
    m = len(base_up)
    full = (1 << m) - 1
    col = sum(1 << a * m for a in range(m))  # column 0: bit a*m per element a
    base = sum(row << a * m for a, row in enumerate(base_up))
    first = base if first_up is None else sum(row << a * m for a, row in enumerate(first_up))
    symmetric = not base and all((ys, xs) in req for req in requirements for xs, ys in req)
    # alts[g]: alternative g as (Y's row shifts, Y, X, X's column bits,
    # its X-before-Y pairs, Y), of requirement owner[g]; group[r]:
    # requirement r's alternatives; fresh[r]: those an untouched order
    # offers (mirror skip applied)
    sides, alts, owner, group, fresh = {}, [], [], [], []
    for req in requirements:
        start = len(alts)
        free = []
        for i, (xs, ys) in enumerate(req):
            xb, xcol, _ = sides.get(xs) or _side(xs, m, sides)
            yb, ycol, yshifts = sides.get(ys) or _side(ys, m, sides)
            pairs = xcol * yb
            if first & pairs == pairs:  # met by the base, or by order 0's base
                del alts[start:]
                break
            if not base & ycol * xb:
                if not (i and symmetric and (ys, xs) in req[:i]):
                    free.append(len(alts))
                alts.append((yshifts, yb, xs, xcol, pairs, ys))
        else:
            owner += [len(group)] * (len(alts) - start)
            group.append(range(start, len(alts)))
            fresh.append(free)
    masks = [(1 << alternatives.stop) - (1 << alternatives.start) for alternatives in group]
    in_x, in_y = [0] * m, [0] * m
    for g, (_, _, xs, _, _, ys) in enumerate(alts):
        bit = 1 << g
        for x in xs:
            in_x[x] |= bit
        for y in ys:
            in_y[y] |= bit
    hold = [ix & iy for ix in in_x for iy in in_y]
    kill = [hold[b * m + a] for a in range(m) for b in range(m)]
    every = first_fit = (1 << len(alts)) - 1
    counts_fresh = list(map(len, fresh))
    if first_up is not None:
        first_fit = sum(1 << g for g, (_, _, xs, _, _, ys) in enumerate(alts)
                        if not first & sides[ys][1] * sides[xs][0])
        counts_first = [(first_fit & mask).bit_count() for mask in masks]
    # count change when order j is first touched: its alternatives join,
    # and the untouched-order candidates leave if j is the last order
    join = list(map(len, group))
    join_last = [len(alternatives) - len(f) for alternatives, f in zip(group, fresh)]
    widest = max(join, default=0)
    nodes = 0
    for t in range(first_t, limit + 1):
        rels = [base] * t
        fits = [every] * t
        j = 0
        met = widest * t + 1  # above every count of an unmet requirement
        counts = counts_fresh
        if first_up is not None:
            rels[0] = first
            fits[0] = first_fit
            j = 1
            counts = list(map(add, counts_first, counts_fresh)) if t > 1 else counts_first
        unmet = every  # the alternatives of the requirements not met yet
        # one frame per expanded node on the current path: its untried
        # candidates and its state, which no commit changes in place
        stack = []
        while True:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")
            fewest = min(counts, default=met)
            if fewest == met:
                return t, [[rel >> a * m & full for a in range(m)] for rel in rels], nodes
            r = counts.index(fewest)
            best = []
            for k in range(j):
                fit = fits[k]
                for g in group[r]:
                    if fit >> g & 1:
                        best.append((k, g))
            if j < t:
                for g in fresh[r]:
                    best.append((j, g))
            stack.append((iter(best), rels, fits, counts, j, unmet))
            while stack:  # backtrack to the deepest untried candidate
                untried, rels, fits, counts, j, unmet = stack[-1]
                cand = next(untried, None)
                if cand is None:
                    stack.pop()
                    continue
                k, g = cand
                if k == j:
                    counts = list(map(add, counts, join if k + 1 < t else join_last))
                    j += 1
                else:
                    counts = counts[:]
                yshifts, above, xs, below, _, _ = alts[g]
                rel = rels[k]
                for shift in yshifts:
                    above |= rel >> shift & full
                for x in xs:
                    below |= rel >> x & col
                new = below * above & ~rel
                rel |= new
                rels = rels[:]
                rels[k] = rel
                held = dead = 0
                while new:
                    low = new & -new
                    pair = low.bit_length() - 1
                    held |= hold[pair]
                    dead |= kill[pair]
                    new ^= low
                fit = fits[k]
                dead &= fit
                if dead:
                    fits = fits[:]
                    fits[k] = fit & ~dead
                    dead &= unmet
                    while dead:
                        low = dead & -dead
                        counts[owner[low.bit_length() - 1]] -= 1
                        dead ^= low
                held &= fit & unmet
                while held:
                    low = held & -held
                    g = low.bit_length() - 1
                    pairs = alts[g][4]
                    if rel & pairs == pairs:
                        r = owner[g]
                        counts[r] = met
                        unmet &= ~masks[r]
                        held &= unmet
                    else:
                        held ^= low
                break
            else:
                break
    return None, None, nodes


def _side(xs, m: int, sides: dict) -> tuple:
    """Side `xs` as (its bitset, bit x*m per element x, the row shifts
    x*m), recorded in `sides`."""
    bits = column = 0
    for x in xs:
        bits |= 1 << x
        column |= 1 << x * m
    side = sides[xs] = bits, column, tuple(x * m for x in xs)
    return side


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
    degree = np.bincount(g.edge_positions.ravel(), minlength=g.num_vertices)
    if np.count_nonzero(degree) <= SEARCH_VERTEX_MAX:
        pairs = list(disjoint_edge_pairs(g))
    else:  # past the guard only a star has no disjoint edge pair; None: not listed
        pairs = [] if degree.max() == g.num_edges else None
    if pairs == []:
        return ExactSearchResult(0, PermutationFamily.build(g.vertices, ()), 0)
    if limit == 0:
        return ExactSearchResult(None, None, 0)
    if pairs is None:
        raise SearchBudgetExceeded(f"exact search is limited to {SEARCH_VERTEX_MAX} non-isolated vertices")
    # core and isolated vertices by position in g.vertices, as witness rows list them
    core, isolated = np.flatnonzero(degree).tolist(), np.flatnonzero(degree == 0).tolist()
    n = len(core)
    index = {g.vertices[p]: i for i, p in enumerate(core)}
    ends = {e: (index[e[0]], index[e[1]]) for e in g.edges}
    requirements = [((ends[e], ends[f]), (ends[f], ends[e])) for e, f in pairs]
    t, relations, nodes = fewest_orders(
        [0] * n, requirements, 1, limit, budget, _twin_chains(g, index)
    )
    if t is None:
        return ExactSearchResult(None, None, nodes)
    rows = [[core[i] for i in linear_completion(up)] + isolated for up in relations]
    return ExactSearchResult(t, PermutationFamily(g.vertices, rows), nodes)


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
