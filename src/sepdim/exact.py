"""Exact computation of the separation dimension of small graphs.

Two engines share an iterative-deepening wrapper.  For up to seven
vertices every permutation's separation mask is precomputed and the
search is an exact set cover over bitmasks.  Larger desk-scale instances
(notably subdivided cliques on ten vertices) use a prefix search over
the first permutation with automorphism symmetry breaking, joint
infeasibility pruning, and a completion solver for the last member.
Both return the first minimum family in their search order; there is
no filter over witnesses.

Fixing the first member to a canonical representative is sound only up
to graph automorphism, so the searches quotient by the automorphism
group (or a known subgroup) rather than by arbitrary relabelings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .families import PermutationFamily, disjoint_edge_pairs, verify_pairwise_suitable
from .graphs import Graph, make_edge, subdivide

DEFAULT_BUDGET = 20_000_000
MASK_ENGINE_MAX = 7
PREFIX_ENGINE_MAX = 12


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


def brute_automorphisms(g: Graph, cap: int = 2_000_000) -> list[dict[int, int]]:
    """All edge-preserving vertex bijections, by brute force (small graphs)."""
    verts = g.vertices
    n = len(verts)
    if n > 8 or math.factorial(n) * max(1, g.num_edges) > cap:
        return [dict(zip(verts, verts))]
    edge_set = set(g.edges)
    degs = {v: g.degree(v) for v in verts}
    autos = []
    for img in permutations(verts):
        m = dict(zip(verts, img))
        if any(degs[v] != degs[m[v]] for v in verts):
            continue
        if all(make_edge(m[u], m[v]) in edge_set for u, v in g.edges):
            autos.append(m)
    return autos


def subdivided_clique_automorphisms(n: int, smap) -> list[dict[int, int]]:
    """Automorphisms of K_n^{1/2} induced by permuting the original vertices."""
    originals = smap.original_vertices
    autos = []
    for img in permutations(originals):
        m = dict(zip(originals, img))
        for (u, v), mid in smap.mid_of.items():
            m[mid] = smap.mid_of[make_edge(m[u], m[v])]
        autos.append(m)
    return autos


# ---------------------------------------------------------------------------
# Mask engine: all n! permutations precomputed (n <= 7)
# ---------------------------------------------------------------------------


def _separation_masks(n: int, pairs: list) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per-permutation bitmasks of separated disjoint edge pairs.

    Vertices are the positions 0..n-1, so arrays are sized by n alone.
    """
    perms = list(permutations(range(n)))
    pair_arr = np.asarray([[e[0], e[1], f[0], f[1]] for e, f in pairs], dtype=np.int64)
    perm_arr = np.asarray(perms, dtype=np.int64)
    rank = np.zeros((len(perms), n), dtype=np.int64)
    rows = np.arange(len(perms))[:, None]
    rank[rows, perm_arr] = np.arange(n)[None, :]
    ra = rank[:, pair_arr[:, 0]]
    rb = rank[:, pair_arr[:, 1]]
    rc = rank[:, pair_arr[:, 2]]
    rd = rank[:, pair_arr[:, 3]]
    sep = (np.maximum(ra, rb) < np.minimum(rc, rd)) | (np.maximum(rc, rd) < np.minimum(ra, rb))
    masks = []
    weights = 1 << np.arange(len(pairs), dtype=object)
    for row in sep:
        masks.append(int((weights[row]).sum()) if row.any() else 0)
    return perms, masks


def _canonical_first_flags(perms: list[tuple[int, ...]], autos: list[dict[int, int]]) -> list[bool]:
    """True for permutations that are lex-minimal in their orbit.

    Permutations and automorphisms are over positions 0..n-1.  The orbit
    is under relabeling by the supplied automorphisms combined with
    sequence reversal; both map suitable families to suitable families
    for the same graph.  Vectorized so that full symmetric groups
    (complete graphs) stay affordable.
    """
    if not perms:
        return []
    perm_arr = np.asarray(perms, dtype=np.int64)
    rows = np.arange(len(perms))
    size = perm_arr.shape[1]
    flags = np.ones(len(perms), dtype=bool)

    def lex_smaller(images: np.ndarray) -> np.ndarray:
        diff = images != perm_arr
        any_diff = diff.any(axis=1)
        first = diff.argmax(axis=1)
        return any_diff & (images[rows, first] < perm_arr[rows, first])

    for psi in autos:
        table = np.arange(size, dtype=np.int64)
        for v, w in psi.items():
            table[v] = w
        images = table[perm_arr]
        flags &= ~lex_smaller(images)
        flags &= ~lex_smaller(images[:, ::-1])
    return flags.tolist()


def _mask_engine(g: Graph, pairs: list, limit: int, budget: _Budget, autos) -> ExactSearchResult:
    # The search runs over positions in g.vertices, which keep the id
    # order, so ids of any size cost nothing and the search order is the
    # one the ids would give.
    verts = g.vertices
    pos = {v: j for j, v in enumerate(verts)}
    pairs = [tuple(tuple(pos[v] for v in edge) for edge in pair) for pair in pairs]
    perms, masks = _separation_masks(len(verts), pairs)
    full = (1 << len(pairs)) - 1

    # Per-member reversal canonicalization keeps only orders whose first
    # vertex is below the last; reversal preserves every separation.
    keep = [i for i, p in enumerate(perms) if p[0] < p[-1]]
    if autos is None:
        autos = brute_automorphisms(g)
    autos = [{pos[v]: pos[w] for v, w in psi.items()} for psi in autos]
    cand_perms = [perms[i] for i in keep]
    cand_masks = [masks[i] for i in keep]

    if len(cand_perms) * len(autos) > 40_000_000:
        autos = autos[:256]
    first_ok = _canonical_first_flags(cand_perms, autos)
    pool_first = [i for i in range(len(cand_masks)) if first_ok[i]]

    # Members beyond the first only matter through their masks: at the
    # minimal level any member can be swapped for a mask-maximal
    # representative, so the pool shrinks to distinct maximal masks.
    rep: dict[int, int] = {}
    for i, m in enumerate(cand_masks):
        rep.setdefault(m, i)
    by_size = sorted(rep.values(), key=lambda i: -bin(cand_masks[i]).count("1"))
    maximal: list[int] = []
    for i in by_size:
        m = cand_masks[i]
        if not any(cand_masks[j] & m == m for j in maximal):
            maximal.append(i)
    pool_rest = sorted(maximal)

    suffix_or = [0] * (len(pool_rest) + 1)
    for i in range(len(pool_rest) - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cand_masks[pool_rest[i]]
    maxpop = max(bin(m).count("1") for m in cand_masks)

    def run(t: int):
        failed: dict[tuple[int, int], int] = {}
        chosen: list[int] = []

        def dfs(covered: int, start: int, depth: int) -> list[int] | None:
            budget.spend()
            if covered == full:
                return list(chosen)
            if depth == t:
                return None
            key = (covered, depth)
            if failed.get(key, 1 << 60) <= start:
                return None
            if depth and covered | suffix_or[start] != full:
                failed[key] = min(failed.get(key, 1 << 60), start)
                return None
            need = bin(full & ~covered).count("1")
            if need > (t - depth) * maxpop:
                failed[key] = min(failed.get(key, 1 << 60), start)
                return None
            if depth == 0:
                for i in pool_first:
                    if not cand_masks[i] & ~covered:
                        continue
                    chosen.append(i)
                    sub = dfs(covered | cand_masks[i], 0, 1)
                    chosen.pop()
                    if sub is not None:
                        return sub
            else:
                for pos in range(start, len(pool_rest)):
                    i = pool_rest[pos]
                    if not cand_masks[i] & ~covered:
                        continue
                    chosen.append(i)
                    sub = dfs(covered | cand_masks[i], pos + 1, depth + 1)
                    chosen.pop()
                    if sub is not None:
                        return sub
            failed[key] = min(failed.get(key, 1 << 60), start)
            return None

        return dfs(0, 0, 0)

    for t in range(1, limit + 1):
        chosen = run(t)
        if chosen is not None:
            family = PermutationFamily(verts, np.array([cand_perms[i] for i in sorted(chosen)]))
            return ExactSearchResult(t, family, False, budget.spent)
    return ExactSearchResult(None, None, True, budget.spent)


# ---------------------------------------------------------------------------
# Prefix engine: incremental first permutation + completion solver (n <= 12)
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


def _is_closure_minimal(order: tuple, autos) -> bool:
    """Is `order` the lex minimum over relabelings and their reversals?"""
    for psi in autos:
        img = tuple(psi[v] for v in order)
        if img < order or img[::-1] < order:
            return False
    return True


def _prefix_engine_two(g: Graph, pairs: list, budget: _Budget, autos) -> PermutationFamily | None:
    """Search for a pairwise-suitable family of size exactly 2.

    The first permutation is built position by position.  Branches where
    a lex-smaller automorphic image of the prefix exists are pruned, as
    are branches whose already-unseparable pairs cannot all be handled
    by any single second permutation (pairwise compatibility test).  A
    completion solver then looks for the second member.
    """
    by_vertex = _pair_index(pairs)
    compat = _pair_compatibility(pairs)
    verts = g.vertices
    completion_memo: dict[frozenset, tuple | None] = {}
    rank: dict[int, int] = {}
    order: list[int] = []
    # Pairs the prefix can no longer separate.  Only pairs touching the
    # newly placed vertex change state, so at a full order this is every
    # pair the first member leaves unseparated.
    doomed: list[int] = []

    def solve(live: list[dict[int, int]]) -> tuple[tuple, tuple] | None:
        budget.spend()
        if len(order) == len(verts):
            first = tuple(order)
            if not _is_closure_minimal(first, autos):
                return None
            uncovered = frozenset(doomed)
            if uncovered not in completion_memo:
                completion_memo[uncovered] = _completion_search(
                    verts, pairs, by_vertex, uncovered, budget
                )
            other = completion_memo[uncovered]
            return None if other is None else (first, other)

        for v in verts:
            # minimal-image pruning: a live automorphism maps the prefix
            # to itself; if it maps v lower, a smaller representative of
            # this branch exists elsewhere in the tree.
            if v in rank or any(psi[v] < v for psi in live):
                continue
            rank[v] = len(order)
            new_doomed = [
                idx for idx in by_vertex.get(v, ())
                if idx not in doomed and _doomed(rank, *pairs[idx])
            ]
            if not any(
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

    found = solve(list(autos))
    return None if found is None else PermutationFamily.build(verts, found)


def randomized_family_search(
    g: Graph, t: int, seed: int = 0, iterations: int = 400_000
) -> PermutationFamily | None:
    """Seeded min-conflicts search for a size-t suitable family.

    Returns a verified family or None; deterministic given the seed.
    """
    pairs = list(disjoint_edge_pairs(g))
    if not pairs:
        return PermutationFamily.build(g.vertices, ())
    rng = random.Random(seed)
    verts = list(g.vertices)
    n = len(verts)
    by_vertex = _pair_index(pairs)

    def separated(ranks, idx):
        e, f = pairs[idx]
        ra, rb = ranks[e[0]], ranks[e[1]]
        rc, rd = ranks[f[0]], ranks[f[1]]
        return max(ra, rb) < min(rc, rd) or max(rc, rd) < min(ra, rb)

    def restart():
        members = []
        for _ in range(t):
            order = verts[:]
            rng.shuffle(order)
            members.append(order)
        ranks = [{v: i for i, v in enumerate(m)} for m in members]
        counts = [0] * len(pairs)
        for idx in range(len(pairs)):
            counts[idx] = sum(1 for m in range(t) if separated(ranks[m], idx))
        return members, ranks, counts

    members, ranks, counts = restart()
    unsep = sum(1 for c in counts if c == 0)
    stale = 0
    for _ in range(iterations):
        if unsep == 0:
            fam = PermutationFamily.build(g.vertices, members)
            if verify_pairwise_suitable(fam, g).ok:
                return fam
            return None
        m = rng.randrange(t)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        u, w = members[m][i], members[m][j]
        affected = sorted(set(by_vertex.get(u, [])) | set(by_vertex.get(w, [])))
        before = [(idx, separated(ranks[m], idx)) for idx in affected]
        members[m][i], members[m][j] = w, u
        ranks[m][u], ranks[m][w] = ranks[m][w], ranks[m][u]
        delta = 0
        changed = []
        for idx, was in before:
            now = separated(ranks[m], idx)
            if was == now:
                continue
            changed.append((idx, now))
            if now:
                counts[idx] += 1
                if counts[idx] == 1:
                    delta -= 1
            else:
                counts[idx] -= 1
                if counts[idx] == 0:
                    delta += 1
        if delta > 0:
            members[m][i], members[m][j] = u, w
            ranks[m][u], ranks[m][w] = ranks[m][w], ranks[m][u]
            for idx, now in changed:
                if now:
                    counts[idx] -= 1
                else:
                    counts[idx] += 1
            stale += 1
        else:
            unsep += delta
            stale = 0 if delta < 0 else stale + 1
        if stale > 8000:
            members, ranks, counts = restart()
            unsep = sum(1 for c in counts if c == 0)
            stale = 0
    return None


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def exact_separation_dimension(
    g: Graph,
    limit: int,
    budget: int = DEFAULT_BUDGET,
    autos: list[dict[int, int]] | None = None,
    seed: int = 0,
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
    tracker = _Budget(budget)
    n = g.num_vertices
    if n <= MASK_ENGINE_MAX:
        return _mask_engine(g, pairs, limit, tracker, autos)
    if n > PREFIX_ENGINE_MAX:
        raise SearchBudgetExceeded(f"exact search is limited to {PREFIX_ENGINE_MAX} vertices")

    one = _completion_search(g.vertices, pairs, _pair_index(pairs), range(len(pairs)), tracker)
    if one is not None:
        return ExactSearchResult(1, PermutationFamily.build(g.vertices, [one]), False, tracker.spent)
    if limit == 1:
        return ExactSearchResult(None, None, True, tracker.spent)
    if autos is None:
        autos = brute_automorphisms(g)
    fam2 = _prefix_engine_two(g, pairs, tracker, autos)
    if fam2 is not None:
        return ExactSearchResult(2, fam2, False, tracker.spent)
    if limit == 2:
        return ExactSearchResult(None, None, True, tracker.spent)
    fam3 = randomized_family_search(g, 3, seed=seed)
    if fam3 is not None:
        return ExactSearchResult(3, fam3, False, tracker.spent)
    raise SearchBudgetExceeded("exact search beyond size 2 is not supported at this scale")


def exact_pi_subdivided_clique(n: int, budget: int = DEFAULT_BUDGET, seed: int = 0):
    """Exact separation dimension of K_n^{1/2} with witness (n <= 4).

    Returns (result, subdivided graph, subdivision map).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise SearchBudgetExceeded("exact subdivided-clique stage is limited to n <= 4")
    kn = Graph.from_edges(
        [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        isolated=range(1, n + 1),
    )
    gsub, smap = subdivide(kn)
    autos = subdivided_clique_automorphisms(n, smap) if n >= 2 else None
    result = exact_separation_dimension(gsub, limit=6, budget=budget, autos=autos, seed=seed)
    return result, gsub, smap
