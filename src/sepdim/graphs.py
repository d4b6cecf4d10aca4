"""Simple undirected graphs: edge-list IO, degeneracy, star forests, subdivision.

Vertices are non-negative integer ids.  A `Graph` stores their sorted
tuple and one array of each edge's endpoint positions in it, so graph
algorithms work on positions (`Graph.csr` lists each vertex's
neighbours) and serialization round-trips bit-exactly.  The id pairs
``(u, v)``, ``u < v``, are derived from the positions when read.

`load_graph` reads the canonical documents (`v <id>` lines, then
`<u> <v>` lines, single spaces, ids below 2^31) with numpy in a few
passes over the whole text, and maps the ends to positions through one
table gather when the ids are below ID_TABLE_SPAN * n (a binary search
otherwise).  Any other document, and any canonical one with a self-loop
or a duplicate edge, goes through the line-by-line parser, which names
the offending line; both give the same graph.
"""

from __future__ import annotations

from heapq import heappop, heappush
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

Edge = tuple[int, int]

# The array readers (`load_graph` here, `families.family_from_json`) map
# n distinct ids below ID_TABLE_SPAN * n to positions through a lookup
# table of at most that many cells
ID_TABLE_SPAN = 4


class GraphFormatError(ValueError):
    """Raised for malformed edge-list documents or invalid graph data."""


def make_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph: sorted distinct vertex ids, and (m, 2) int64
    sorted rows of each edge's endpoint positions in them, smaller first.
    `build` validates raw ids and edges; direct construction trusts them."""

    vertices: tuple[int, ...]
    edge_positions: np.ndarray

    def __post_init__(self):
        self.edge_positions.flags.writeable = False

    @staticmethod
    def build(vertices, edges) -> "Graph":
        """Validate and normalize raw vertex/edge collections."""
        def checked(v):
            if type(v) is not int or v < 0:
                raise GraphFormatError(f"vertex ids must be non-negative integers, got {v!r}")
            return v

        vset = set(map(checked, vertices))
        eset: set[Edge] = set()
        for u, v in edges:
            e = make_edge(checked(u), checked(v))
            if e in eset:
                raise GraphFormatError(f"duplicate edge {e}")
            if e[0] not in vset or e[1] not in vset:
                raise GraphFormatError(f"edge {e} references undeclared vertex")
            eset.add(e)
        ids = tuple(sorted(vset))
        index = {v: i for i, v in enumerate(ids)}
        flat = map(index.__getitem__, chain.from_iterable(sorted(eset)))
        return Graph(ids, np.fromiter(flat, np.int64, 2 * len(eset)).reshape(-1, 2))

    @staticmethod
    def from_edges(edges, isolated=()) -> "Graph":
        """Build a graph whose vertex set is implied by its edges."""
        edges = list(edges)
        verts = {v for e in edges for v in e} | set(isolated)
        return Graph.build(verts, edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.vertices == other.vertices \
            and np.array_equal(self.edge_positions, other.edge_positions)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as sorted id pairs (u, v) with u < v."""
        ids = [self.vertices[i] for i in self.edge_positions.ravel().tolist()]
        return tuple(zip(ids[0::2], ids[1::2]))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency over positions as read-only int64 arrays (indptr,
        indices): the neighbours of position i are indices[indptr[i]:indptr[i + 1]]."""
        u, v = self.edge_positions.T
        source = np.concatenate([u, v])
        indices = np.concatenate([v, u])[np.argsort(source, kind="stable")]
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=self.num_vertices), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_positions)


def load_graph(text: str) -> Graph:
    """Parse an edge-list document.

    One edge per line as ``<u> <v>``; ``v <id>`` declares an isolated
    vertex; lines starting with ``#`` and blank lines are ignored.
    Self-loops and duplicate edges are rejected.  Canonical documents
    take the array parser, everything else the line parser (see the
    module docstring); the graph and every error message are the same.
    """
    g = _load_array(text) if len(text) >= ARRAY_PARSE_MIN_CHARS else None
    return g if g is not None else _load_lines(text)


# Shorter documents take the line parser, whose per-line cost stays
# below the array parser's fixed cost up to about 150 characters.
ARRAY_PARSE_MIN_CHARS = 256
# A canonical document, with "\n" after its last line.
_CANONICAL = re.compile(rb"(?:v [0-9]{1,10}\n)*(?:[0-9]{1,10} [0-9]{1,10}\n)*")
_ID_BITS = 31


def _load_array(text: str) -> Graph | None:
    """The graph of a canonical document without self-loops or duplicate
    edges, read with numpy; None for any other document."""
    if not text.isascii():
        return None
    data = text.encode()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    if _CANONICAL.fullmatch(data) is None:
        return None
    last_v = data.rfind(b"v")
    cut = data.find(b"\n", last_v) + 1 if last_v >= 0 else 0  # end of the `v` lines
    declared = np.fromstring(data[:cut].replace(b"v", b" "), dtype=np.int64, sep=" ")
    ends = np.fromstring(data[cut:], dtype=np.int64, sep=" ").reshape(-1, 2)
    if ends.size and ends.max() >> _ID_BITS:
        return None
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    key = np.sort(lo << _ID_BITS | hi)
    if (lo == hi).any() or (key[1:] == key[:-1]).any():
        return None  # the line parser names the line
    lo, hi = key >> _ID_BITS, key & ((1 << _ID_BITS) - 1)
    ids = np.sort(np.concatenate([declared, lo, hi]))
    # np.unique would import numpy.ma, about 1 MiB of peak memory
    ids = ids[np.diff(ids, prepend=-1) > 0]
    ends = np.stack([lo, hi], axis=1)
    if len(ids) and ids[-1] < ID_TABLE_SPAN * len(ids):
        table = np.empty(ids[-1] + 1, np.int64)
        table[ids] = np.arange(len(ids))
        return Graph(tuple(ids.tolist()), table[ends])
    return Graph(tuple(ids.tolist()), np.searchsorted(ids, ends))


def _load_lines(text: str) -> Graph:
    """The line-by-line parser behind `load_graph`."""
    vertices: set[int] = set()
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v":
                if len(parts) != 2:
                    raise ValueError
                vertices.add(_parse_id(parts[1]))
                continue
            if len(parts) != 2:
                raise ValueError
            u, v = _parse_id(parts[0]), _parse_id(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed line {raw!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        e = make_edge(u, v)
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
        vertices.update(e)
    return Graph.build(vertices, edges)


def _parse_id(token: str) -> int:
    value = int(token)
    if value < 0:
        raise ValueError(token)
    return value


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: isolated vertices first, then sorted
    edges.  Each id is formatted once and looked up by position."""
    names = list(map(str, g.vertices))
    ends = g.edge_positions.ravel()
    incident = np.zeros(g.num_vertices, dtype=bool)
    incident[ends] = True
    lines = [f"v {names[i]}" for i in np.flatnonzero(~incident).tolist()]
    ends = iter(map(names.__getitem__, ends.tolist()))
    lines.extend(map(" ".join, zip(ends, ends)))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class DegeneracyOrder:
    """Min-degree peeling order: each vertex has at most `k` later neighbors."""

    order: tuple[int, ...]
    k: int


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Peel a minimum-degree vertex repeatedly, ties broken by smallest id.

    The returned `k` is the maximum residual degree seen at removal time,
    which equals the graph degeneracy.  The peel runs over `g.csr` as
    lists (positions follow ids), with one min-heap of positions per
    residual degree and a pointer `low` at the lowest degree that may
    still hold an unpeeled vertex (Batagelj & Zaversnik's bucket queue,
    with heaps for buckets).  A vertex is pushed into its degree's heap
    each time its degree falls; the entries left in the heaps of its
    higher degrees are stale and skipped when popped.  Degrees only
    fall, so every unpeeled vertex sits in the heap of its current
    degree exactly once, and no heap below `low` holds one: `low`
    drops to a neighbour's new degree when that is lower, and climbs
    only over empty heaps.  The first live pop is then the smallest
    position among the vertices of minimum degree, the pop the tie rule
    asks for.  `low` falls by at most one per edge, so its moves cost
    O(n + m) in all.
    """
    n = g.num_vertices
    indptr, indices = g.csr
    degree = np.diff(indptr)
    # positions grouped by degree, ascending within each group: sorted
    # lists are heaps already
    by_degree = np.argsort(degree, kind="stable").tolist()
    ends = np.cumsum(np.bincount(degree)).tolist()
    heaps = [by_degree[a:b] for a, b in zip([0] + ends, ends)]
    degree, indptr, indices = degree.tolist(), indptr.tolist(), indices.tolist()
    order: list[int] = []
    k = low = 0
    for _ in range(n):
        while True:
            while not heaps[low]:
                low += 1
            i = heappop(heaps[low])
            if degree[i] == low:
                break
        degree[i] = -1
        order.append(i)
        if low > k:
            k = low
        for j in indices[indptr[i]:indptr[i + 1]]:
            dj = degree[j] - 1
            if dj >= 0:  # not peeled yet
                degree[j] = dj
                heappush(heaps[dj], j)
                if dj < low:
                    low = dj
    return DegeneracyOrder(tuple(map(g.vertices.__getitem__, order)), k)


def order_ranks(g: Graph, order, what: str) -> np.ndarray:
    """The step of each position of `g.vertices` in `order`; ValueError
    naming `what` unless `order` lists each vertex of g once.  The ids,
    sorted and distinct, are `order` argsorted.  Ids past int64, which
    numpy would round to float64 beside smaller ones, are compared as
    Python ints in object arrays."""
    big = object if g.vertices and g.vertices[-1] >> 63 else None
    ids, order = np.array(g.vertices, dtype=big), np.array(order, dtype=big)
    # the same ids give the same dtype, so a dtype mismatch is a mismatch;
    # an object array must hold ints only, as 2.0 == 2
    if order.dtype == ids.dtype and order.shape == ids.shape \
            and not (big and set(map(type, order.tolist())) - {int}):
        rank = np.argsort(order)
        if np.array_equal(order[rank], ids):
            return rank
    raise ValueError(f"{what} does not match graph vertices")


def star_forest_decomposition(g: Graph, d: DegeneracyOrder) -> np.ndarray:
    """Cover E(g) with at most 2k spanning star forests (k = d.k), the
    rows of an (s, n) int64 array.

    A star forest is a row giving, for each position in `g.vertices`,
    the position of its star's root.  Every edge runs from its child,
    the endpoint peeled earlier in `d`, to its parent, and a child's
    edges (at most k) go to slots 0, 1, ... in order of their parents'
    ids; each vertex then has at most one parent per slot, and
    parents are peeled later, so each slot is a forest.  Within a slot,
    the edges whose parent sits on an even level (the forest's roots are
    on level 0) form one star forest and the odd levels another; each
    parent roots its star, except that a single-edge star is rooted at
    its smaller id.  Empty star forests are left out; the others come
    in (slot, parity) order, even before odd.

    The levels come from pointer doubling over one array of k·n cells,
    cell s·n + c standing for position c in slot s.  `anc[x]` starts at
    x's parent cell (a root points to itself) and `odd[x]` at whether
    x is not a root.  Each round keeps `odd[x]` the parity of the
    distance from x to `anc[x]`: the distance to anc[anc[x]] is the sum
    of the two hops, so `odd ^= odd[anc]` goes with `anc = anc[anc]`.
    The distance covered doubles each round, so once anc[anc] equals
    anc every `anc[x]` is x's root and `odd[x]` is x's level parity,
    after O(log depth) rounds.
    """
    n, k = g.num_vertices, d.k
    rank = order_ranks(g, d.order, "degeneracy order")
    u, v = g.edge_positions.T
    child = np.where(rank[u] < rank[v], u, v)
    parent = u + v - child
    by_child = np.argsort(child * n + parent)
    child, parent = child[by_child], parent[by_child]
    slot = np.arange(child.size) - np.searchsorted(child, child)
    up = slot * n + parent
    anc = np.arange(k * n)
    anc[slot * n + child] = up
    odd = anc != np.arange(k * n)
    nxt = anc[anc]
    while not np.array_equal(nxt, anc):
        odd ^= odd[anc]
        anc, nxt = nxt, nxt[nxt]
    # forest rows in (slot, parity) order; star cells count each parent's children
    row = 2 * slot + odd[up]
    star = row * n + parent
    flip = (np.bincount(star, minlength=2 * k * n)[star] == 1) & (child < parent)
    roots = np.broadcast_to(np.arange(n, dtype=np.int64), (2 * k, n)).copy()
    roots.reshape(-1)[np.where(flip, star, row * n + child)] = np.where(flip, child, parent)
    return roots[np.bincount(row, minlength=2 * k) > 0]


def check_star_forest(g: Graph, roots: np.ndarray) -> int:
    """Raise ValueError unless `roots` (per position in `g.vertices`, the
    position of its star's root) is a spanning star forest of g: roots
    root themselves, and every other vertex is joined to its root by an
    edge.  An (s, n) array holds s star forests, checked in one pass.
    Returns how many distinct edges the leaf-root pairs cover."""
    n = g.num_vertices
    stacked = roots.reshape(1, -1) if roots.ndim == 1 else roots
    if stacked.ndim != 2 or stacked.shape[1] != n or ((stacked < 0) | (stacked >= n)).any():
        raise ValueError("roots must hold one position in g.vertices per vertex")
    if (np.take_along_axis(stacked, stacked, axis=1) != stacked).any():
        raise ValueError("a star root lies in another star")
    forest, leaf = np.nonzero(stacked != np.arange(n))
    root = stacked[forest, leaf]
    # each pair packed into one int, sorted and deduplicated (np.unique
    # would import numpy.ma); the packed edges are sorted already
    pairs = np.sort(np.minimum(leaf, root) * n + np.maximum(leaf, root))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    edges = g.edge_positions[:, 0] * n + g.edge_positions[:, 1]
    at = np.searchsorted(edges, pairs)
    if (at == edges.size).any() or (edges[at.clip(max=edges.size - 1)] != pairs).any():
        raise ValueError("a leaf is not joined to its root by an edge")
    return pairs.size


def subdivision_mids(g: Graph) -> range:
    """Ids of the mid vertices of g^{1/2}: the mid of g.edges[i] (edges in
    sorted order) is max(V) + 1 + i, so ids are reproducible bit for bit."""
    top = max(g.vertices, default=-1) + 1
    return range(top, top + g.num_edges)


def subdivide(g: Graph) -> Graph:
    """g^{1/2}: each edge {u, v} becomes a path u - m_uv - v, with the mid
    ids of `subdivision_mids`."""
    n = g.num_vertices
    # edge i's two endpoints each join its mid, at position n + i
    ends = np.stack([g.edge_positions.ravel(), np.repeat(np.arange(n, n + g.num_edges), 2)], axis=1)
    return Graph(g.vertices + tuple(subdivision_mids(g)), ends[np.lexsort((ends[:, 1], ends[:, 0]))])


def greedy_coloring(g: Graph, d: DegeneracyOrder) -> dict[int, int]:
    """Proper coloring with at most k+1 classes, deterministic given `d`.

    Vertices are colored in reverse peeling order; every vertex then has
    at most k colored neighbors when its turn comes.
    """
    steps = order_ranks(g, d.order, "degeneracy order")
    indptr, indices = (a.tolist() for a in g.csr)
    by_position = [0] * g.num_vertices  # 0: not coloured yet
    color: dict[int, int] = {}
    for i in np.argsort(steps)[::-1].tolist():
        used = {by_position[j] for j in indices[indptr[i]:indptr[i + 1]]}
        c = 1
        while c in used:
            c += 1
        color[g.vertices[i]] = by_position[i] = c
    return color


def color_classes(coloring: dict[int, int]) -> list[tuple[int, ...]]:
    """Color classes V_1..V_c as sorted vertex tuples."""
    classes: dict[int, list[int]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    return [tuple(sorted(classes[c])) for c in sorted(classes)]
