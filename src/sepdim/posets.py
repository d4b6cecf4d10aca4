"""Strict partial orders, interval orders, realizers, and poset dimension.

Elements may be any sortable hashables; interval orders use ``(a, b)``
integer tuples with ``a < b`` and the rule ``(a, b) < (c, d)`` iff
``b <= c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graphs import Graph


class PosetError(ValueError):
    """Invalid poset data (reflexive pair, cycle, element mismatch)."""


@dataclass(frozen=True)
class Poset:
    """Finite strict partial order, stored transitively closed."""

    elements: tuple
    relation: frozenset

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
        # transitive closure
        changed = True
        while changed:
            changed = False
            for i in range(m):
                acc = up[i]
                scan = acc
                while scan:
                    j = (scan & -scan).bit_length() - 1
                    scan &= scan - 1
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        closed = set()
        for i in range(m):
            if up[i] >> i & 1:
                raise PosetError(f"cycle through element {elements[i]}")
            scan = up[i]
            while scan:
                j = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                closed.add((elements[i], elements[j]))
        return Poset(elements, frozenset(closed))

    def less(self, x, y) -> bool:
        return (x, y) in self.relation

    def incomparable_pairs(self) -> list[tuple]:
        out = []
        for x, y in combinations(self.elements, 2):
            if (x, y) not in self.relation and (y, x) not in self.relation:
                out.append((x, y))
        return out

    @property
    def is_chain(self) -> bool:
        m = len(self.elements)
        return len(self.relation) == m * (m - 1) // 2


def height(p: Poset) -> int:
    """Size of a largest chain (element count); 0 for the empty poset."""
    if not p.elements:
        return 0
    index = {x: i for i, x in enumerate(p.elements)}
    preds: dict[int, list[int]] = {i: [] for i in range(len(p.elements))}
    for x, y in p.relation:
        preds[index[y]].append(index[x])
    # the relation is transitively closed, so an element has more
    # predecessors than any of them: their count is a topological key
    longest = [1] * len(p.elements)
    for i in sorted(preds, key=lambda i: len(preds[i])):
        for j in preds[i]:
            longest[i] = max(longest[i], longest[j] + 1)
    return max(longest)


def is_linear_extension(order, p: Poset) -> bool:
    if sorted(order) != sorted(p.elements):
        return False
    pos = {x: i for i, x in enumerate(order)}
    return all(pos[x] < pos[y] for x, y in p.relation)


def is_realizer(extensions, p: Poset) -> bool:
    """A realizer: linear extensions whose intersection is `p`.  True iff
    every extension is valid and every incomparable pair is reversed in
    some extension."""
    if not extensions:
        return not p.elements
    for ext in extensions:
        if not is_linear_extension(ext, p):
            return False
    positions = [{x: i for i, x in enumerate(ext)} for ext in extensions]
    for x, y in p.incomparable_pairs():
        if all(pos[x] < pos[y] for pos in positions):
            return False
        if all(pos[y] < pos[x] for pos in positions):
            return False
    return True


@dataclass(frozen=True)
class IntervalOrder:
    """Open intervals with integer endpoints, ordered by (a,b) < (c,d) iff b <= c."""

    intervals: tuple[tuple[int, int], ...]

    @staticmethod
    def build(intervals) -> "IntervalOrder":
        norm = []
        for a, b in intervals:
            if a >= b:
                raise PosetError(f"open interval ({a}, {b}) is empty")
            norm.append((int(a), int(b)))
        if len(set(norm)) != len(norm):
            raise PosetError("duplicate intervals")
        return IntervalOrder(tuple(sorted(norm)))

    @cached_property
    def poset(self) -> Poset:
        pairs = [
            (x, y)
            for x in self.intervals
            for y in self.intervals
            if x != y and x[1] <= y[0]
        ]
        return Poset.build(self.intervals, pairs)

    def __len__(self) -> int:
        return len(self.intervals)


def interval_order_from(g: Graph, sigma) -> IntervalOrder:
    """The interval order of a graph under a vertex ordering `sigma`, a
    sequence of vertex ids.

    Each edge becomes the open interval between the ranks of its
    endpoints; edges never share both ranks, so intervals are distinct.
    """
    rank = {v: i + 1 for i, v in enumerate(sigma)}
    if len(rank) != len(sigma):
        raise ValueError("permutation contains repeated vertices")
    if rank.keys() != set(g.vertices):
        raise ValueError("permutation does not cover the graph vertices")
    intervals = []
    for u, v in g.edges:
        ru, rv = rank[u], rank[v]
        intervals.append((min(ru, rv), max(ru, rv)))
    return IntervalOrder.build(intervals)


def canonical_interval_order(n: int) -> IntervalOrder:
    """All C(n,2) open intervals with endpoints in [n]."""
    if n < 2:
        raise ValueError("canonical interval order needs n >= 2")
    return IntervalOrder.build([(a, b) for a in range(1, n) for b in range(a + 1, n + 1)])


# ---------------------------------------------------------------------------
# Exact poset dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosetDimensionResult:
    dimension: int | None
    realizer: tuple[tuple, ...] | None
    exceeded: bool
    nodes: int


class DimensionBudgetExceeded(RuntimeError):
    """The poset-dimension search ran out of its node budget."""


class _Extensions:
    """t partial orders over indexed elements, kept transitively closed."""

    def __init__(self, m: int, base_up: list[int], t: int):
        self.m = m
        self.t = t
        self.up = [list(base_up) for _ in range(t)]
        self.touched = [False] * t

    def forced(self, e: int, x: int, y: int) -> bool:
        return self.up[e][x] >> y & 1

    def insertable(self, e: int, x: int, y: int) -> bool:
        return not self.forced(e, y, x)

    def commit(self, e: int, x: int, y: int) -> list[tuple[int, int, int]]:
        """Add x<y to extension e with incremental transitive closure."""
        up = self.up[e]
        changes: list[tuple[int, int, int]] = []
        if up[x] >> y & 1:
            return changes
        above = up[y] | (1 << y)
        for a in range(self.m):
            if a == x or (up[a] >> x & 1):
                new = up[a] | above
                if new != up[a]:
                    changes.append((e, a, up[a]))
                    up[a] = new
        return changes

    def rollback(self, changes) -> None:
        for e, a, old in reversed(changes):
            self.up[e][a] = old


def exact_poset_dimension(
    p: Poset, limit: int, budget: int = 2_000_000
) -> PosetDimensionResult:
    """Minimum realizer size up to `limit`, with a witness realizer.

    Chains (and the empty or singleton poset) have dimension 1.  The
    search assigns, for every incomparable pair, both directions to
    compatible extensions, propagating transitive consequences, choosing
    the most constrained pair first, and treating untouched extensions
    as interchangeable.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    elements = p.elements
    m = len(elements)
    if m <= 1 or p.is_chain:
        ext = tuple(_topological(p))
        return PosetDimensionResult(1, (ext,), False, 0)

    index = {x: i for i, x in enumerate(elements)}
    base_up = [0] * m
    for x, y in p.relation:
        base_up[index[x]] |= 1 << index[y]
    inc_pairs = [(index[x], index[y]) for x, y in p.incomparable_pairs()]
    nodes = 0

    for t in range(2, limit + 1):
        exts = _Extensions(m, base_up, t)
        result = _dimension_dfs(exts, inc_pairs, budget)
        nodes += result[1]
        budget -= result[1]
        if result[0] is not None:
            realizer = tuple(
                tuple(elements[i] for i in _topo_indices(exts.up[e], m))
                for e in range(t)
            )
            if not is_realizer(realizer, p):
                raise AssertionError("dimension search produced an invalid realizer")
            return PosetDimensionResult(t, realizer, False, nodes)
    return PosetDimensionResult(None, None, True, nodes)


def _dimension_dfs(exts: _Extensions, inc_pairs, budget: int):
    nodes = 0

    def needs():
        """Unmet (pair, direction) requirements with their candidate extensions."""
        out = []
        for x, y in inc_pairs:
            for a, b in ((x, y), (y, x)):
                if any(exts.forced(e, a, b) for e in range(exts.t)):
                    continue
                cands = [e for e in range(exts.t) if exts.insertable(e, a, b)]
                fresh_seen = False
                filtered = []
                for e in cands:
                    if not exts.touched[e]:
                        if fresh_seen:
                            continue
                        fresh_seen = True
                    filtered.append(e)
                out.append(((a, b), filtered))
        return out

    # one frame per expanded node on the current path: its requirement,
    # its untried candidates, and the undo record of the child explored
    stack = []
    while True:
        nodes += 1
        if nodes > budget:
            raise DimensionBudgetExceeded("poset dimension budget exhausted")
        pending = needs()
        if not pending:
            return True, nodes
        pair, cands = min(pending, key=lambda item: (len(item[1]), item[0]))
        stack.append((pair, iter(cands), []))
        while stack:  # backtrack to the deepest untried candidate
            (a, b), untried, undo = stack[-1]
            if undo:
                changes, e, was_touched = undo.pop()
                exts.rollback(changes)
                exts.touched[e] = was_touched
            e = next(untried, None)
            if e is not None:
                undo.append((exts.commit(e, a, b), e, exts.touched[e]))
                exts.touched[e] = True
                break
            stack.pop()
        else:
            return None, nodes


def _topo_indices(up: list[int], m: int) -> list[int]:
    """Deterministic completion: smallest available element first."""
    remaining = set(range(m))
    below_count = {i: sum(1 for j in remaining if up[j] >> i & 1) for i in remaining}
    out = []
    while remaining:
        ready = sorted(i for i in remaining if below_count[i] == 0)
        v = ready[0]
        remaining.remove(v)
        out.append(v)
        scan = up[v]
        while scan:
            j = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            if j in remaining:
                below_count[j] -= 1
    return out


def _topological(p: Poset) -> list:
    index = {x: i for i, x in enumerate(p.elements)}
    up = [0] * len(p.elements)
    for x, y in p.relation:
        up[index[x]] |= 1 << index[y]
    return [p.elements[i] for i in _topo_indices(up, len(p.elements))]


# ---------------------------------------------------------------------------
# Realizer heuristic for interval orders
# ---------------------------------------------------------------------------


def realizer_heuristic(c: IntervalOrder) -> tuple[tuple, ...]:
    """Small (not necessarily optimal) realizer of an interval order.

    Sweeps a fixed rotation of endpoint sort keys, then patches any
    still-unreversed incomparable pairs with extra extensions; the patch
    loop makes progress every round, so termination is guaranteed.
    """
    p = c.poset
    if len(c) == 0:
        return ((),)
    if len(c) == 1:
        return (tuple(c.intervals),)
    if not p.relation:
        base = tuple(sorted(c.intervals))
        return base, base[::-1]

    keys = [
        lambda iv: (iv[1], -iv[0]),
        lambda iv: (iv[0], -iv[1]),
        lambda iv: (iv[1], iv[0]),
        lambda iv: (iv[0], iv[1]),
    ]
    extensions: list[tuple] = []
    for key in keys:
        ext = tuple(sorted(c.intervals, key=key))
        if ext not in extensions:
            extensions.append(ext)
        if is_realizer(extensions, p):
            return tuple(extensions)
        # drop an extension that added nothing toward reversing pairs
        if len(extensions) > 1 and _reversed_pairs(extensions, p) == _reversed_pairs(extensions[:-1], p):
            extensions.pop()

    while True:
        missing = _missing_reversals(extensions, p)
        if not missing:
            break
        extensions.append(_patch_extension(missing, p))
    if not is_realizer(extensions, p):
        raise AssertionError("heuristic produced an invalid realizer")
    return tuple(extensions)


def _reversed_pairs(extensions, p: Poset) -> set:
    positions = [{x: i for i, x in enumerate(ext)} for ext in extensions]
    out = set()
    for x, y in p.incomparable_pairs():
        if any(pos[y] < pos[x] for pos in positions):
            out.add((y, x))
        if any(pos[x] < pos[y] for pos in positions):
            out.add((x, y))
    return out


def _missing_reversals(extensions, p: Poset) -> list[tuple]:
    """Ordered incomparable pairs (u, v) that no extension places u first."""
    have = _reversed_pairs(extensions, p)
    missing = []
    for x, y in p.incomparable_pairs():
        if (x, y) not in have:
            missing.append((x, y))
        if (y, x) not in have:
            missing.append((y, x))
    return sorted(missing)


def _patch_extension(missing: list[tuple], p: Poset) -> tuple:
    """Linear extension honoring as many requested (u before v) pairs as possible."""
    index = {x: i for i, x in enumerate(p.elements)}
    m = len(p.elements)
    up = [0] * m
    for x, y in p.relation:
        up[index[x]] |= 1 << index[y]

    def reaches(a: int, b: int) -> bool:
        return up[a] >> b & 1

    for u, v in missing:
        a, b = index[u], index[v]
        if reaches(b, a) or reaches(a, b):
            continue
        above = up[b] | (1 << b)
        for i in range(m):
            if i == a or reaches(i, a):
                up[i] |= above
    return tuple(p.elements[i] for i in _topo_indices(up, m))
