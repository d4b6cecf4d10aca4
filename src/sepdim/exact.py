"""Exact computation of the separation dimension of small graphs.

Two engines share an iterative-deepening wrapper.  For up to seven
vertices every permutation's separation mask is precomputed and the
search is an exact set cover over bitmasks.  Larger desk-scale instances
(notably subdivided cliques on ten vertices) use a prefix search over
the first permutation with automorphism symmetry breaking, joint
infeasibility pruning, and a completion solver for the last member.

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


def _mask_engine(g: Graph, limit: int, budget: _Budget, autos, accept=None) -> ExactSearchResult:
    # The search runs over positions in g.vertices, which keep the id
    # order, so ids of any size cost nothing and the search order is the
    # one the ids would give.
    verts = g.vertices
    pos = {v: j for j, v in enumerate(verts)}
    pairs = [tuple(tuple(pos[v] for v in edge) for edge in pair) for pair in disjoint_edge_pairs(g)]
    if not pairs:
        return ExactSearchResult(0, PermutationFamily.build(verts, ()), False, budget.spent)
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

    def family(chosen: list[int]) -> PermutationFamily:
        return PermutationFamily(verts, np.array([cand_perms[i] for i in chosen]))

    if len(cand_perms) * len(autos) > 40_000_000:
        autos = autos[:256]
    first_ok = _canonical_first_flags(cand_perms, autos)
    pool_first = [i for i in range(len(cand_masks)) if first_ok[i]]

    # Members beyond the first only matter through their masks: at the
    # minimal level any member can be swapped for a mask-maximal
    # representative, so the pool shrinks to distinct maximal masks.
    # Witness filtering must see every optimal family, so skip the
    # reduction when an acceptance predicate is given.
    if accept is None:
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
    else:
        pool_rest = list(range(len(cand_masks)))

    suffix_or = [0] * (len(pool_rest) + 1)
    for i in range(len(pool_rest) - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cand_masks[pool_rest[i]]
    maxpop = max(bin(m).count("1") for m in cand_masks)

    def run(t: int):
        failed: dict[tuple[int, int], int] = {}
        chosen: list[int] = []
        first_found: list[int] | None = None

        def dfs(covered: int, start: int, depth: int) -> list[int] | None:
            nonlocal first_found
            budget.spend()
            if covered == full:
                if accept is None:
                    return list(chosen)
                if accept(family(chosen)):
                    return list(chosen)
                if first_found is None:
                    first_found = list(chosen)
                return None
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

        hit = dfs(0, 0, 0)
        return hit if hit is not None else first_found

    for t in range(1, limit + 1):
        chosen = run(t)
        if chosen is not None:
            return ExactSearchResult(t, family(sorted(chosen)), False, budget.spent)
    return ExactSearchResult(None, None, True, budget.spent)


# ---------------------------------------------------------------------------
# Prefix engine: incremental first permutation + completion solver (n <= 12)
# ---------------------------------------------------------------------------


class _PairTracker:
    """Feasibility state of `all-of-e-before-all-of-f` pairs under a prefix.

    Vertices are placed left to right, so placed ranks are final and any
    unplaced vertex lands after all placed ones.  The pair e|f can still
    be separated as e < f iff f has no placed vertex yet, or e is fully
    placed below every placed vertex of f.
    """

    def __init__(self, pairs: list):
        self.pairs = pairs
        self.by_vertex: dict[int, list[int]] = {}
        for idx, (e, f) in enumerate(pairs):
            for v in (*e, *f):
                self.by_vertex.setdefault(v, []).append(idx)

    def new_state(self):
        # per pair: placed counts and rank extremes per side
        return {
            "rank": {},
            "pe": [0] * len(self.pairs),
            "pf": [0] * len(self.pairs),
            "emax": [-1] * len(self.pairs),
            "emin": [1 << 30] * len(self.pairs),
            "fmax": [-1] * len(self.pairs),
            "fmin": [1 << 30] * len(self.pairs),
        }

    def place(self, state, v: int, rank: int) -> list[int]:
        state["rank"][v] = rank
        touched = []
        for idx in self.by_vertex.get(v, ()):
            e, f = self.pairs[idx]
            if v in e:
                state["pe"][idx] += 1
                state["emax"][idx] = max(state["emax"][idx], rank)
                state["emin"][idx] = min(state["emin"][idx], rank)
            else:
                state["pf"][idx] += 1
                state["fmax"][idx] = max(state["fmax"][idx], rank)
                state["fmin"][idx] = min(state["fmin"][idx], rank)
            touched.append(idx)
        return touched

    def unplace(self, state, v: int) -> None:
        del state["rank"][v]
        for idx in self.by_vertex.get(v, ()):
            e, f = self.pairs[idx]
            rank = state["rank"]
            if v in e:
                state["pe"][idx] -= 1
                placed = [rank[x] for x in e if x in rank]
            else:
                state["pf"][idx] -= 1
                placed = [rank[x] for x in f if x in rank]
            key = "e" if v in e else "f"
            state[key + "max"][idx] = max(placed) if placed else -1
            state[key + "min"][idx] = min(placed) if placed else (1 << 30)

    def forward_feasible(self, state, idx: int) -> bool:
        return state["pf"][idx] == 0 or (
            state["pe"][idx] == 2 and state["fmin"][idx] > state["emax"][idx]
        )

    def backward_feasible(self, state, idx: int) -> bool:
        return state["pe"][idx] == 0 or (
            state["pf"][idx] == 2 and state["emin"][idx] > state["fmax"][idx]
        )

    def doomed(self, state, idx: int) -> bool:
        return not (self.forward_feasible(state, idx) or self.backward_feasible(state, idx))


def _block_constraints_consistent(oriented: list[tuple]) -> bool:
    """Can all `X entirely before Y` constraints hold in one linear order?"""
    succ: dict[int, set[int]] = {}
    for x_set, y_set in oriented:
        for x in x_set:
            for y in y_set:
                if x == y:
                    return False
                succ.setdefault(x, set()).add(y)
    seen: dict[int, int] = {}

    def cyclic(v: int) -> bool:
        seen[v] = 1
        for w in succ.get(v, ()):
            mark = seen.get(w)
            if mark == 1:
                return True
            if mark is None and cyclic(w):
                return True
        seen[v] = 2
        return False

    return not any(seen.get(v) is None and cyclic(v) for v in list(succ))


def _pair_compatibility(pairs: list) -> list[list[bool]]:
    """compat[i][j]: some single permutation separates both pairs."""
    m = len(pairs)
    compat = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            e1, f1 = pairs[i]
            e2, f2 = pairs[j]
            ok = any(
                _block_constraints_consistent([c1, c2])
                for c1 in ((e1, f1), (f1, e1))
                for c2 in ((e2, f2), (f2, e2))
            )
            compat[i][j] = compat[j][i] = ok
    return compat


def _completion_search(verts, tracker: _PairTracker, required: list[int], budget: _Budget, test=None):
    """Find a permutation separating every required pair.

    Returns (order, True) for a hit (passing `test` when given),
    (order, False) when completions exist but none passed the test, and
    None when no completion exists.  Enumeration is lexicographic.
    """
    state = tracker.new_state()
    req = set(required)
    order: list[int] = []
    used: set[int] = set()
    fallback: list[tuple] = []

    def dfs():
        budget.spend()
        if len(order) == len(verts):
            full = tuple(order)
            if test is None or test(full):
                return full
            if not fallback:
                fallback.append(full)
            return None
        for v in sorted(set(verts) - used):
            touched = tracker.place(state, v, len(order))
            if any(idx in req and tracker.doomed(state, idx) for idx in touched):
                tracker.unplace(state, v)
                continue
            order.append(v)
            used.add(v)
            found = dfs()
            if found is not None:
                return found
            order.pop()
            used.remove(v)
            tracker.unplace(state, v)
        return None

    hit = dfs()
    if hit is not None:
        return hit, True
    if fallback:
        return fallback[0], False
    return None


def _is_closure_minimal(order: tuple, autos) -> bool:
    """Is `order` the lex minimum over relabelings and their reversals?"""
    for psi in autos:
        img = tuple(psi[v] for v in order)
        if img < order or img[::-1] < order:
            return False
    return True


def _prefix_engine_two(g: Graph, budget: _Budget, autos, accept=None) -> PermutationFamily | None:
    """Search for a pairwise-suitable family of size exactly 2.

    The first permutation is built position by position.  Branches where
    a lex-smaller automorphic image of the prefix exists are pruned, as
    are branches whose already-unseparable pairs cannot all be handled
    by any single second permutation (pairwise compatibility test).  A
    completion solver then looks for the second member.

    With `accept` given, the search keeps enumerating size-2 families
    until one is accepted, falling back to the first family found.  The
    predicate must be invariant under the supplied automorphisms and
    under member reversal, since the search quotients by those.
    """
    pairs = list(disjoint_edge_pairs(g))
    tracker = _PairTracker(pairs)
    compat = _pair_compatibility(pairs)
    verts = list(g.vertices)
    n = len(verts)
    completion_memo: dict[frozenset, tuple | None] = {}
    first_found: list[tuple[tuple, tuple]] = []

    state = tracker.new_state()
    order: list[int] = []
    used: set[int] = set()
    doomed: list[int] = []

    def solve(live: list[dict[int, int]]) -> tuple[tuple, tuple] | None:
        budget.spend()
        if len(order) == n:
            first = tuple(order)
            if not _is_closure_minimal(first, autos):
                return None
            uncovered = frozenset(
                idx for idx in range(len(pairs)) if tracker.doomed(state, idx)
            )
            if accept is None:
                if uncovered not in completion_memo:
                    completion_memo[uncovered] = _completion_search(
                        verts, tracker, sorted(uncovered), budget
                    )
                hit = completion_memo[uncovered]
                return (first, hit[0]) if hit is not None else None
            hit = _completion_search(
                verts, tracker, sorted(uncovered), budget,
                test=lambda other: accept(PermutationFamily.build(verts, [first, other])),
            )
            if hit is None:
                return None
            other, accepted = hit
            if accepted:
                return first, other
            if not first_found:
                first_found.append((first, other))
            return None

        for v in sorted(set(verts) - used):
            # minimal-image pruning: a live automorphism maps the prefix
            # to itself; if it maps v lower, a smaller representative of
            # this branch exists elsewhere in the tree.
            if any(psi[v] < v for psi in live):
                continue
            next_live = [psi for psi in live if psi[v] == v]
            touched = tracker.place(state, v, len(order))
            new_doomed = [
                idx for idx in touched if tracker.doomed(state, idx) and idx not in doomed
            ]
            conflict = any(
                not compat[a][b] for a in new_doomed for b in doomed
            ) or any(
                not compat[a][b]
                for ai, a in enumerate(new_doomed)
                for b in new_doomed[ai + 1:]
            )
            if conflict:
                tracker.unplace(state, v)
                continue
            order.append(v)
            used.add(v)
            doomed.extend(new_doomed)
            found = solve(next_live)
            if found is not None:
                return found
            for _ in new_doomed:
                doomed.pop()
            used.remove(v)
            order.pop()
            tracker.unplace(state, v)
        return None

    found = solve(list(autos))
    if found is None and first_found:
        found = first_found[0]
    if found is None:
        return None
    return PermutationFamily.build(g.vertices, found)


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
    by_vertex: dict[int, list[int]] = {}
    for idx, (e, f) in enumerate(pairs):
        for v in (*e, *f):
            by_vertex.setdefault(v, []).append(idx)

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
    accept=None,
) -> ExactSearchResult:
    """Smallest pairwise-suitable family size up to `limit`, with witness.

    Raises SearchBudgetExceeded when the instance is too large or the
    node budget runs out; returns an `exceeded` result when the search
    completes without finding a family within the limit.

    `accept` filters among minimum witnesses: the search returns the
    first accepted one, or the first found if none is accepted.  The
    predicate must be invariant under graph automorphisms and member
    reversal.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    tracker = _Budget(budget)
    pairs_exist = any(True for _ in disjoint_edge_pairs(g))
    if not pairs_exist:
        return ExactSearchResult(0, PermutationFamily.build(g.vertices, ()), False, 0)
    if limit == 0:
        return ExactSearchResult(None, None, True, 0)
    n = g.num_vertices
    if n <= MASK_ENGINE_MAX:
        return _mask_engine(g, limit, tracker, autos, accept=accept)
    if n > PREFIX_ENGINE_MAX:
        raise SearchBudgetExceeded(f"exact search is limited to {PREFIX_ENGINE_MAX} vertices")
    if autos is None:
        autos = brute_automorphisms(g)

    pairs = list(disjoint_edge_pairs(g))
    ptracker = _PairTracker(pairs)
    one = _completion_search(
        list(g.vertices), ptracker, list(range(len(pairs))), tracker,
        test=(lambda order: accept(PermutationFamily.build(g.vertices, [order]))) if accept else None,
    )
    if one is not None:
        return ExactSearchResult(1, PermutationFamily.build(g.vertices, [one[0]]), False, tracker.spent)
    if limit == 1:
        return ExactSearchResult(None, None, True, tracker.spent)
    fam2 = _prefix_engine_two(g, tracker, autos, accept=accept)
    if fam2 is not None:
        return ExactSearchResult(2, fam2, False, tracker.spent)
    if limit == 2:
        return ExactSearchResult(None, None, True, tracker.spent)
    fam3 = randomized_family_search(g, 3, seed=seed)
    if fam3 is not None:
        return ExactSearchResult(3, fam3, False, tracker.spent)
    raise SearchBudgetExceeded("exact search beyond size 2 is not supported at this scale")


def exact_pi_subdivided_clique(n: int, budget: int = DEFAULT_BUDGET, seed: int = 0, accept=None):
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
    result = exact_separation_dimension(
        gsub, limit=6, budget=budget, autos=autos, seed=seed, accept=accept
    )
    return result, gsub, smap
