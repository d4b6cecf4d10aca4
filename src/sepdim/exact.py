"""Exact computation of the separation dimension of small graphs.

Vertices in no edge lie in no disjoint edge pair: the search runs
without them, the size guards do not count them, and they close every
witness member in id order.  One engine then tries t = 1, 2, ... up to
the limit.  It builds the first member position by position with
automorphism symmetry breaking and infeasibility pruning, hands the
pairs that member leaves unseparated to the same search with t - 1
members, and finds the last member with a completion solver.  It
returns the first minimum family in its search order; there is no
filter over witnesses.

Fixing the first member to a canonical representative is sound only up
to graph automorphism.  The engine takes its automorphisms from
`automorphisms`, which stops at AUTOMORPHISM_CAP maps; any subset of
the group keeps it exact (see its docstring), it only prunes less.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

from .families import PermutationFamily, disjoint_edge_pairs
from .graphs import Graph, subdivide

DEFAULT_BUDGET = 20_000_000
PREFIX_ENGINE_MAX = 12
# 8!, the most automorphisms the earlier n! enumeration (n <= 8) returned
AUTOMORPHISM_CAP = 40_320


class SearchBudgetExceeded(RuntimeError):
    """The node-expansion budget (or a hard size guard) was exhausted."""


@dataclass(frozen=True)
class ExactSearchResult:
    """Outcome of an exact search up to a family-size limit."""

    dimension: int | None
    witness: PermutationFamily | None
    exceeded: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.dimension is not None


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, amount: int):
        self.left = amount
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        self.spent += amount
        if self.left < 0:
            raise SearchBudgetExceeded(f"search budget exhausted after {self.spent} nodes")


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """Edge-preserving vertex bijections of g, at most AUTOMORPHISM_CAP of them.

    Backtracking over the vertices in BFS order (components by lowest
    id, neighbours by id): each goes to an unused vertex of its degree
    that keeps adjacency with every vertex already mapped.

    Any set S of automorphisms keeps the search exact.  Relabeling a
    suitable family by an automorphism, or reversing one member, keeps
    it suitable, so every order in the orbit of a minimum family's first
    member under the group H generated by S and reversal starts some
    minimum family.  The search discards a first member only when it
    has a lex-smaller image in that orbit: its reverse, or its image or
    reversed image under some ψ in S (it also drops a prefix that a ψ
    fixing it maps lower, which lowers every completion).  So the
    lex-least order of each orbit is never discarded, and a minimum
    family starting with it is found.
    """
    adj = g.adjacency
    order: list[int] = []
    seen: set[int] = set()
    for root in g.vertices:
        component = [] if root in seen else [root]
        seen.add(root)
        for v in component:
            fresh = sorted(adj[v] - seen)
            seen.update(fresh)
            component += fresh
        order += component

    image: dict[int, int] = {}
    used: set[int] = set()
    found: list[dict[int, int]] = []

    def extend(i: int) -> None:
        if i == len(order):
            found.append(dict(image))
            return
        v = order[i]
        mapped = {image[u] for u in adj[v] if u in image}
        for w in g.vertices:
            # w's mapped neighbours must be exactly the images of v's
            if w in used or len(adj[w]) != len(adj[v]) or adj[w] & used != mapped:
                continue
            image[v] = w
            used.add(w)
            extend(i + 1)
            del image[v]
            used.discard(w)
            if len(found) >= AUTOMORPHISM_CAP:
                return

    extend(0)
    return found


# ---------------------------------------------------------------------------
# Prefix engine: members built position by position (n <= 12)
# ---------------------------------------------------------------------------


def _pair_index(pairs: list) -> dict[int, list[int]]:
    """Indices of the pairs that touch each vertex."""
    by_vertex: dict[int, list[int]] = {}
    for idx, (e, f) in enumerate(pairs):
        for v in (*e, *f):
            by_vertex.setdefault(v, []).append(idx)
    return by_vertex


def _can_precede(rank: dict[int, int], e, f) -> bool:
    placed_f = [rank[v] for v in f if v in rank]
    if not placed_f:
        return True
    return e[0] in rank and e[1] in rank and max(rank[e[0]], rank[e[1]]) < min(placed_f)


def _doomed(rank: dict[int, int], e, f) -> bool:
    """Can no completion of the placed prefix `rank` separate e and f?

    Vertices are placed left to right, so placed ranks are final and any
    unplaced vertex lands after all placed ones.  Then e can still
    precede f iff no vertex of f is placed, or both vertices of e are
    placed below every placed vertex of f.
    """
    return not (_can_precede(rank, e, f) or _can_precede(rank, f, e))


def _pair_compatibility(pairs: list) -> list[list[bool]]:
    """compat[i][j]: some single permutation separates both pairs.

    Each pair is separated as e < f or as f < e.  Two constraints X < Y
    and X' < Y' on disjoint sides fail together iff Y meets X' and Y'
    meets X, the only way their union can hold a cycle.  Taken over the
    four orientations, two pairs conflict iff every side of one meets
    every side of the other: two matchings of the same four vertices.
    """
    sides = [(set(e), set(f)) for e, f in pairs]
    m = len(pairs)
    compat = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            ok = any(x.isdisjoint(y) for x in sides[i] for y in sides[j])
            compat[i][j] = compat[j][i] = ok
    return compat


def _completion_search(verts, pairs: list, by_vertex, required, budget: _Budget):
    """First permutation, in lexicographic order, separating every required pair.

    Returns None when no completion exists.
    """
    req = set(required)
    rank: dict[int, int] = {}
    order: list[int] = []

    def dfs():
        budget.spend()
        if len(order) == len(verts):
            return tuple(order)
        for v in verts:
            if v in rank:
                continue
            rank[v] = len(order)
            if not any(
                idx in req and _doomed(rank, *pairs[idx]) for idx in by_vertex.get(v, ())
            ):
                order.append(v)
                found = dfs()
                if found is not None:
                    return found
                order.pop()
            del rank[v]
        return None

    return dfs()


class _PrefixEngine:
    """Exact search for t orders that together separate a set of required pairs.

    `search` builds the first member position by position and drops a
    prefix that cannot work: at t == 1 (the completion search) once a
    required pair it touches is doomed, at t == 2 once two doomed pairs
    are incompatible.  A full order hands the required pairs it left
    doomed to the same search with t - 1 members.

    Symmetry breaking on the first member: at the top level, where the
    required pairs are all of g's, by g's automorphisms (see
    `automorphisms`).  Below it the required pairs need not be
    symmetric, so only reversal is used: the identity map drops every
    order whose last vertex is below its first, as its reverse separates
    the same pairs.  Nothing below the top level depends on the path
    that led there, so those results are memoised on (required pairs,
    t).  Every node spends from one budget.
    """

    def __init__(self, g: Graph, pairs: list, budget: _Budget):
        self.g = g
        self.pairs = pairs
        self.budget = budget
        self.by_vertex = _pair_index(pairs)
        self.memo: dict[tuple[frozenset, int], tuple | None] = {}
        self.reversal = [{v: v for v in g.vertices}]

    @cached_property
    def autos(self) -> list[dict[int, int]]:
        return automorphisms(self.g)

    @cached_property
    def compat(self) -> list[list[bool]]:
        return _pair_compatibility(self.pairs)

    def below(self, required: frozenset, t: int) -> tuple | None:
        key = (required, t)
        if key not in self.memo:
            self.memo[key] = self.search(required, t)
        return self.memo[key]

    def search(self, required: frozenset, t: int, top: bool = False) -> tuple | None:
        """The first t orders, in search order, separating every required pair."""
        verts, pairs, budget = self.g.vertices, self.pairs, self.budget
        if t == 1:
            one = _completion_search(verts, pairs, self.by_vertex, required, budget)
            return None if one is None else (one,)
        autos = self.autos if top else self.reversal
        compat = self.compat if t == 2 else None
        rank: dict[int, int] = {}
        order: list[int] = []
        # Required pairs the prefix can no longer separate.  Only pairs
        # touching the newly placed vertex change state, so at a full
        # order this is every required pair the order leaves unseparated.
        doomed: list[int] = []

        def solve(live: list[dict[int, int]]) -> tuple | None:
            budget.spend()
            if len(order) == len(verts):
                first = tuple(order)
                # the prefix pruning below already dropped every order with a
                # smaller image ψ(first); a smaller reversed image is left
                if any(tuple(psi[v] for v in reversed(first)) < first for psi in autos):
                    return None
                rest = self.below(frozenset(doomed), t - 1)
                return None if rest is None else (first, *rest)

            for v in verts:
                # minimal-image pruning: a live automorphism maps the prefix
                # to itself; if it maps v lower, a smaller representative of
                # this branch exists elsewhere in the tree.
                if v in rank or any(psi[v] < v for psi in live):
                    continue
                rank[v] = len(order)
                new_doomed = [
                    idx for idx in self.by_vertex.get(v, ())
                    if idx in required and idx not in doomed and _doomed(rank, *pairs[idx])
                ]
                if compat is None or not any(
                    not compat[a][b]
                    for i, a in enumerate(new_doomed)
                    for b in doomed + new_doomed[:i]
                ):
                    order.append(v)
                    doomed.extend(new_doomed)
                    found = solve([psi for psi in live if psi[v] == v])
                    if found is not None:
                        return found
                    del doomed[len(doomed) - len(new_doomed):]
                    order.pop()
                del rank[v]
            return None

        return solve(list(autos))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def exact_separation_dimension(
    g: Graph,
    limit: int,
    budget: int = DEFAULT_BUDGET,
) -> ExactSearchResult:
    """Smallest pairwise-suitable family size up to `limit`, with witness.

    Raises SearchBudgetExceeded when the instance is too large or the
    node budget runs out; returns an `exceeded` result when the search
    completes without finding a family within the limit.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    pairs = list(disjoint_edge_pairs(g))
    if not pairs:
        return ExactSearchResult(0, PermutationFamily.build(g.vertices, ()), False, 0)
    if limit == 0:
        return ExactSearchResult(None, None, True, 0)
    isolated = [v for v in g.vertices if not g.adjacency[v]]
    if isolated:
        core = Graph.build(set(g.vertices) - set(isolated), g.edges)
        result = exact_separation_dimension(core, limit, budget)
        if result.witness is None:
            return result
        members = [order + isolated for order in result.witness.id_orders()]
        return replace(result, witness=PermutationFamily.build(g.vertices, members))
    if g.num_vertices > PREFIX_ENGINE_MAX:
        raise SearchBudgetExceeded(f"exact search is limited to {PREFIX_ENGINE_MAX} non-isolated vertices")
    engine = _PrefixEngine(g, pairs, _Budget(budget))
    everything = frozenset(range(len(pairs)))
    for t in range(1, limit + 1):
        members = engine.search(everything, t, top=True)
        if members is not None:
            return ExactSearchResult(t, PermutationFamily.build(g.vertices, members), False, engine.budget.spent)
    return ExactSearchResult(None, None, True, engine.budget.spent)


def exact_pi_subdivided_clique(n: int, budget: int = DEFAULT_BUDGET):
    """Exact separation dimension of K_n^{1/2} with witness (n <= 4).

    Returns (result, subdivided graph, subdivision map).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise SearchBudgetExceeded("exact subdivided-clique stage is limited to n <= 4")
    kn = Graph.from_edges(combinations(range(1, n + 1), 2), isolated=range(1, n + 1))
    gsub, smap = subdivide(kn)
    result = exact_separation_dimension(gsub, limit=6, budget=budget)
    return result, gsub, smap
