"""Strict partial orders, interval orders, realizers, and poset dimension.

Elements may be any sortable hashables.  A poset is its closed bitset
rows: the order checks (`is_linear_extension`, `is_realizer`) read
those rows and nothing else.  An interval order is a `Poset` too:
`interval_order` takes ``(a, b)`` integer pairs with ``a < b`` and
builds the rows of ``(a, b) < (c, d)`` iff ``b <= c`` from the endpoints.

`exact_poset_dimension` is a client of the exact engine in
`sepdim.exact`, like separation dimension: it hands the engine the
poset's rows with one requirement per critical pair, that pair reversed
(a realizer is exactly a set of linear extensions that reverses every
critical pair), and maps the relations back to elements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .exact import DEFAULT_BUDGET, fewest_orders, linear_completion
from .graphs import Graph, order_ranks


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


def interval_order_from(g: Graph, sigma) -> Poset:
    """The interval order of a graph under a vertex ordering `sigma`, a
    sequence that lists every vertex of g once (ValueError otherwise):
    each edge is the open interval between the ranks (from 1) of its
    endpoints.  Edges never share both ranks, so the intervals are
    distinct."""
    ranks = order_ranks(g, sigma, "sigma")[g.edge_positions] + 1
    return interval_order(map(sorted, ranks.tolist()))


def canonical_interval_order(n: int) -> Poset:
    """All C(n,2) open intervals with endpoints in [n]."""
    if n < 2:
        raise ValueError("canonical interval order needs n >= 2")
    return interval_order([(a, b) for a in range(1, n) for b in range(a + 1, n + 1)])


# ---------------------------------------------------------------------------
# Poset dimension: a client of the exact engine `sepdim.exact.fewest_orders`
# ---------------------------------------------------------------------------


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
    that, the engine `fewest_orders` runs on the order itself with one
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
        ext = tuple(elements[i] for i in linear_completion(base_up))
        return PosetDimensionResult(1, (ext,), 0)

    down = [sum(1 << i for i, row in enumerate(base_up) if row >> j & 1) for j in range(m)]
    # "x before y" reverses (y, x); kept when (y, x) is critical
    requirements = [
        (((x,), (y,)),)
        for x, y in permutations(range(m), 2)
        if not (base_up[x] >> y & 1 or base_up[y] >> x & 1)
        and not down[y] & ~down[x] and not base_up[x] & ~base_up[y]
    ]
    t, relations, nodes = fewest_orders(base_up, requirements, 2, limit, budget)
    if t is None:
        return PosetDimensionResult(None, None, nodes)
    realizer = tuple(tuple(elements[i] for i in linear_completion(up)) for up in relations)
    if not is_realizer(realizer, p):
        raise AssertionError("dimension search produced an invalid realizer")
    return PosetDimensionResult(t, realizer, nodes)


def realizer_heuristic(p: Poset) -> tuple[tuple, ...]:
    """A minimum realizer of `p`, from `exact_poset_dimension`; raises
    SearchBudgetExceeded past the default budget.  The limit never cuts
    an answer off, as dim <= width <= |p|.  It keeps its name only for
    the benchmark's wrapper table, until ROADMAP item 5 deletes it."""
    return exact_poset_dimension(p, limit=max(1, len(p))).realizer
