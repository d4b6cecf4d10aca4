"""Reference computations for the benchmark, written apart from `sepdim`.

Nothing here imports `sepdim`.  The checks re-derive every property the
benchmark asserts about the program's outputs from first principles:
disjoint edge pairs and their separation (numpy), degeneracy (networkx
core numbers), proper colorings, the once-subdivided graph G^{1/2}, small
separation dimensions by brute force over all vertex orders, and
realizers of interval orders.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

# Rows of the edge-pair grid examined at once; bounds the check's memory
# at about PAIR_BLOCK * m pairs.
PAIR_BLOCK = 128


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> tuple[list[int], list[tuple[int, int]]]:
    """Sorted vertices and sorted (u < v) edges of an edge-list document."""
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            vertices.add(int(parts[1]))
            continue
        u, v = int(parts[0]), int(parts[1])
        if u == v or (min(u, v), max(u, v)) in edges:
            raise ValueError(f"not a simple graph at line {line!r}")
        edges.add((min(u, v), max(u, v)))
        vertices.update((u, v))
    return sorted(vertices), sorted(edges)


def edge_list_text(vertices, edges) -> str:
    """Edge-list document declaring every vertex (`v` lines), then the edges."""
    lines = [f"v {v}" for v in vertices]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def degeneracy(vertices, edges) -> int:
    """Largest k with a non-empty k-core, from networkx core numbers."""
    import networkx as nx  # only the check process pays for networkx

    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    cores = nx.core_number(g)
    return max(cores.values(), default=0)


def is_proper_coloring(vertices, edges, coloring: dict) -> bool:
    """Every vertex colored and no edge joins two vertices of one color."""
    if set(coloring) != set(vertices):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def subdivide(vertices, edges):
    """G^{1/2}: edge {u, v} becomes u - m - v.

    Mid ids are max(V) + 1, max(V) + 2, ... in sorted edge order, the id
    scheme the program documents for its subdivision map.
    """
    next_id = max(vertices) + 1 if vertices else 0
    mids = []
    sub_edges = []
    for u, v in edges:
        mids.append(((u, v), next_id))
        sub_edges += [(u, next_id), (v, next_id)]
        next_id += 1
    sub_vertices = sorted(set(vertices) | {m for _, m in mids})
    return sub_vertices, sorted(sub_edges), mids


# ---------------------------------------------------------------------------
# Disjoint edge pairs and separation
# ---------------------------------------------------------------------------


def count_disjoint_pairs(edges) -> int:
    """C(m, 2) minus the pairs sharing a vertex."""
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    m = len(edges)
    return m * (m - 1) // 2 - sum(d * (d - 1) // 2 for d in degree.values())


def _compact_edges(vertices, edges) -> np.ndarray:
    """Edges as (m, 2) indices into the sorted vertex array."""
    vs = np.asarray(vertices, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    idx = np.searchsorted(vs, e)
    if e.size and not np.array_equal(vs[idx], e):
        raise ValueError("edge endpoint missing from the vertex list")
    return idx


def pair_blocks(vertices, edges):
    """Disjoint edge pairs, lexicographic, as (P, 4) compact-index blocks."""
    ce = _compact_edges(vertices, sorted(edges))
    m = len(ce)
    for lo in range(0, m, PAIR_BLOCK):
        hi = min(m, lo + PAIR_BLOCK)
        a = ce[lo:hi, None, :]
        b = ce[None, :, :]
        later = np.arange(m)[None, :] > np.arange(lo, hi)[:, None]
        shared = (
            (a[..., 0] == b[..., 0]) | (a[..., 0] == b[..., 1])
            | (a[..., 1] == b[..., 0]) | (a[..., 1] == b[..., 1])
        )
        ii, jj = np.nonzero(later & ~shared)
        if ii.size:
            yield np.concatenate([ce[ii + lo], ce[jj]], axis=1)


def rank_rows(vertices, orders) -> np.ndarray:
    """(r, n) array: rank of each compact vertex index in each order."""
    vs = np.asarray(vertices, dtype=np.int64)
    n = len(vs)
    ranks = np.empty((len(orders), n), dtype=np.int32)
    for i, order in enumerate(orders):
        o = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(o), vs):
            raise ValueError("order is not a permutation of the vertices")
        ranks[i, np.searchsorted(vs, o)] = np.arange(n, dtype=np.int32)
    return ranks


def separated_by(row: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Mask of pairs whose two edges occupy disjoint blocks of one order."""
    ra, rb, rc, rd = row[pairs[:, 0]], row[pairs[:, 1]], row[pairs[:, 2]], row[pairs[:, 3]]
    return (np.maximum(ra, rb) < np.minimum(rc, rd)) | (np.maximum(rc, rd) < np.minimum(ra, rb))


def first_unseparated(vertices, edges, orders):
    """Lexicographically smallest disjoint edge pair no order separates, or None."""
    vs = np.asarray(vertices, dtype=np.int64)
    ranks = rank_rows(vertices, orders)
    for block in pair_blocks(vertices, edges):
        alive = np.arange(len(block))
        for row in ranks:
            alive = alive[~separated_by(row, block[alive])]
            if not alive.size:
                break
        if alive.size:
            a, b, c, d = (int(x) for x in vs[block[alive[0]]])
            return (a, b), (c, d)
    return None


def suitable_random_family(vertices, edges, rng: np.random.Generator, size: int = 0,
                           cap: int = 400):
    """Seeded random orders, added until every disjoint edge pair is separated
    and there are at least `size` of them."""
    vs = np.asarray(vertices, dtype=np.int64)
    pending = list(pair_blocks(vertices, edges))
    orders = []
    while len(orders) < size or any(len(b) for b in pending):
        if len(orders) >= max(cap, size):
            raise RuntimeError("random family did not become suitable")
        perm = rng.permutation(len(vs))
        row = np.empty(len(vs), dtype=np.int32)
        row[perm] = np.arange(len(vs), dtype=np.int32)
        pending = [b[~separated_by(row, b)] for b in pending]
        orders.append([int(v) for v in vs[perm]])
    return orders


# ---------------------------------------------------------------------------
# Brute-force separation dimension (all vertex orders, n <= 7)
# ---------------------------------------------------------------------------


def _maximal_rows(cover: np.ndarray) -> np.ndarray:
    """Distinct rows of a boolean matrix not strictly contained in another row."""
    rows = np.unique(cover, axis=0)
    if len(rows) <= 1:
        return rows
    f = rows.astype(np.float32)
    missing = f @ (1.0 - f).T  # [i, j]: pairs row i covers and row j misses
    contained = (missing == 0)
    np.fill_diagonal(contained, False)
    return rows[~contained.any(axis=1)]


def _covers(rows: np.ndarray, t: int) -> bool:
    """Whether some t rows (repetition allowed) jointly cover every column."""
    if rows.shape[1] == 0:
        return True
    if t <= 0 or not len(rows):
        return False
    if t == 1:
        return bool(rows.all(axis=1).any())
    if t == 2:
        miss = (~rows).astype(np.float32)
        return bool(((miss @ miss.T) == 0).any())
    for row in rows:
        rest = _maximal_rows(rows[:, ~row])
        if _covers(rest, t - 1):
            return True
    return False


def separation_dimension(vertices, edges, limit: int = 6) -> int | None:
    """Smallest family of vertex orders separating every disjoint edge pair.

    Brute force over all n! orders (one of each reversed pair), so only
    for n <= 7.  Returns None when no family of size <= limit exists.
    """
    n = len(vertices)
    if n > 7:
        raise ValueError("brute force is limited to 7 vertices")
    blocks = list(pair_blocks(vertices, edges))
    if not blocks:
        return 0
    pairs = np.concatenate(blocks)
    orders = [p for p in permutations(range(n)) if p[0] < p[-1]]
    ranks = np.empty((len(orders), n), dtype=np.int32)
    ranks[np.arange(len(orders))[:, None], np.asarray(orders)] = np.arange(n, dtype=np.int32)
    cover = np.stack([separated_by(row, pairs) for row in ranks])
    rows = _maximal_rows(cover)
    for t in range(1, limit + 1):
        if _covers(rows, t):
            return t
    return None


# ---------------------------------------------------------------------------
# Interval orders and realizers
# ---------------------------------------------------------------------------

# dim(C_n) for the canonical interval order on all open intervals of [n],
# n = 2..7, as tabulated for the package's frozen reference values.
CANONICAL_DIMENSION = {2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3}


def canonical_intervals(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def interval_less(x, y) -> bool:
    """Open intervals: (a, b) < (c, d) iff b <= c."""
    return x[1] <= y[0]


def is_interval_realizer(intervals, extensions) -> bool:
    """Each extension is a linear extension and every incomparable pair flips."""
    target = sorted(intervals)
    positions = []
    for ext in extensions:
        if sorted(ext) != target:
            return False
        pos = {x: i for i, x in enumerate(ext)}
        if any(pos[x] > pos[y] for x in target for y in target if interval_less(x, y)):
            return False
        positions.append(pos)
    for x, y in combinations(target, 2):
        if interval_less(x, y) or interval_less(y, x):
            continue
        before = [pos[x] < pos[y] for pos in positions]
        if all(before) or not any(before):
            return False
    return True


def parse_extension(text: str) -> list[tuple[int, int]]:
    """Parse the report's "(a,b) (c,d) ..." extension line."""
    out = []
    for token in text.split():
        a, b = token.strip("()").split(",")
        out.append((int(a), int(b)))
    return out
