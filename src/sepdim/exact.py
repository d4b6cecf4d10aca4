"""Exact computation of the separation dimension of small graphs.

Vertices in no edge lie in no disjoint edge pair: the search runs
without them, the size guard does not count them, and they close every
witness member in id order.  The search is the poset-dimension engine
`posets._dimension_dfs` on the empty order: each disjoint edge pair
(e, f) is one requirement with the alternatives "e before f" and "f
before e", and t = 1, 2, ... members are tried up to the limit.  Each
witness member is the smallest-first linear extension of its relation.
The result is the first minimum family in the engine's search order;
there is no filter over witnesses.

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

from .families import PermutationFamily, disjoint_edge_pairs
from .graphs import Graph
from .posets import DEFAULT_BUDGET, SearchBudgetExceeded, _dimension_dfs, _topo_indices

SEARCH_VERTEX_MAX = 12


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
    t, relations, nodes = _dimension_dfs(
        [0] * n, requirements, 1, limit, budget, _twin_chains(g, index)
    )
    if t is None:
        return ExactSearchResult(None, None, nodes)
    members = [[core[i] for i in _topo_indices(up, n)] + isolated for up in relations]
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
