"""Simple undirected graphs: edge-list IO, degeneracy, star forests, subdivision.

Vertices are non-negative integer ids.  Edges are stored normalized as
``(u, v)`` with ``u < v``, and every container keeps vertices and edges
sorted so that serialization round-trips bit-exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised for malformed edge-list documents or invalid graph data."""


def make_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with sorted vertex and edge tuples."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertices, edges) -> "Graph":
        """Validate and normalize raw vertex/edge collections."""
        vset: set[int] = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise GraphFormatError(f"vertex ids must be non-negative integers, got {v!r}")
            vset.add(v)
        eset: set[Edge] = set()
        for u, v in edges:
            e = make_edge(u, v)
            if e in eset:
                raise GraphFormatError(f"duplicate edge {e}")
            if e[0] not in vset or e[1] not in vset:
                raise GraphFormatError(f"edge {e} references undeclared vertex")
            eset.add(e)
        return Graph(tuple(sorted(vset)), tuple(sorted(eset)))

    @staticmethod
    def from_edges(edges, isolated=()) -> "Graph":
        """Build a graph whose vertex set is implied by its edges."""
        edges = [make_edge(u, v) for u, v in edges]
        verts = {v for e in edges for v in e} | set(isolated)
        return Graph.build(verts, edges)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return make_edge(u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def subgraph(self, vertices=None, edges=None) -> "Graph":
        """Induced subgraph on `vertices`, optionally restricted to `edges`."""
        verts = set(self.vertices) if vertices is None else set(vertices)
        keep = self.edges if edges is None else [make_edge(u, v) for u, v in edges]
        kept = [e for e in keep if e[0] in verts and e[1] in verts and e in self._edge_set]
        return Graph.build(verts, kept)


def load_graph(text: str) -> Graph:
    """Parse an edge-list document.

    One edge per line as ``<u> <v>``; ``v <id>`` declares an isolated
    vertex; lines starting with ``#`` and blank lines are ignored.
    Self-loops and duplicate edges are rejected.
    """
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
    """Canonical edge-list text: isolated vertices first, then sorted edges."""
    incident = {v for e in g.edges for v in e}
    lines = [f"v {v}" for v in g.vertices if v not in incident]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class DegeneracyOrder:
    """Min-degree peeling order: each vertex has at most `k` later neighbors."""

    order: tuple[int, ...]
    k: int

    @cached_property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Peel a minimum-degree vertex repeatedly, ties broken by smallest id.

    The returned `k` is the maximum residual degree seen at removal time,
    which equals the graph degeneracy.
    """
    degrees = {v: g.degree(v) for v in g.vertices}
    alive = set(g.vertices)
    heap: list[tuple[int, int]] = [(d, v) for v, d in degrees.items()]
    heapq.heapify(heap)
    order: list[int] = []
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v not in alive or d != degrees[v]:
            continue
        alive.remove(v)
        order.append(v)
        k = max(k, d)
        for w in g.adjacency[v]:
            if w in alive:
                degrees[w] -= 1
                heapq.heappush(heap, (degrees[w], w))
    return DegeneracyOrder(tuple(order), k)


def partition_into_forests(g: Graph, d: DegeneracyOrder) -> list[tuple[Edge, ...]]:
    """Split E(g) into at most `k` forests.

    Orient every edge from its earlier endpoint (in the peeling order)
    toward the later one, so each vertex has out-degree at most k, and
    hand each vertex's outgoing edges to distinct forests.  Within a
    forest every vertex keeps at most one out-edge of an acyclic
    orientation, so each part is a forest.
    """
    if set(d.order) != set(g.vertices):
        raise ValueError("degeneracy order does not match graph vertices")
    pos = d.position
    forests: list[list[Edge]] = [[] for _ in range(d.k)]
    for v in g.vertices:
        later = sorted(w for w in g.adjacency[v] if pos[w] > pos[v])
        for slot, w in enumerate(later):
            forests[slot].append(make_edge(v, w))
    return [tuple(sorted(f)) for f in forests]


@dataclass(frozen=True)
class Star:
    root: int
    leaves: tuple[int, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return (self.root,) + self.leaves


@dataclass(frozen=True)
class StarForest:
    """Vertex-disjoint stars spanning the host graph's vertex set."""

    stars: tuple[Star, ...]
    covered_edges: tuple[Edge, ...]

    def validate(self) -> None:
        seen: set[int] = set()
        edge_set = set()
        for star in self.stars:
            for v in star.members:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two stars")
                seen.add(v)
            for leaf in star.leaves:
                edge_set.add(make_edge(star.root, leaf))
        if edge_set != set(self.covered_edges):
            raise ValueError("covered_edges do not match the stars")

    @cached_property
    def star_of(self) -> dict[int, Star]:
        return {v: star for star in self.stars for v in star.members}


def _designate_root(center: int, children: list[int]) -> Star:
    # Root is a highest-degree vertex of the star; the only tie is a
    # single-edge star, resolved toward the smaller id.
    if len(children) == 1 and children[0] < center:
        return Star(children[0], (center,))
    return Star(center, tuple(sorted(children)))


def star_forest_decomposition(g: Graph, d: DegeneracyOrder) -> list[StarForest]:
    """Cover E(g) with at most 2k spanning star forests (k = d.k).

    Each forest from the degeneracy orientation `d` is rooted at its
    unique out-edge-free vertex; edges whose parent sits on an even level
    go to one star forest, odd levels to the other.
    """
    forests = partition_into_forests(g, d)
    result: list[StarForest] = []
    for forest in forests:
        parent: dict[int, int] = {}
        pos = d.position
        for u, v in forest:
            child, par = (u, v) if pos[u] < pos[v] else (v, u)
            parent[child] = par
        level: dict[int, int] = {}

        def level_of(v: int) -> int:
            trail = []
            while v in parent and v not in level:
                trail.append(v)
                v = parent[v]
            base = level.get(v, 0)
            level.setdefault(v, base)
            for u in reversed(trail):
                base += 1
                level[u] = base
            return level[trail[0]] if trail else level[v]

        buckets: list[dict[int, list[int]]] = [{}, {}]
        for child, par in parent.items():
            level_of(child)
            buckets[level[par] % 2].setdefault(par, []).append(child)
        for bucket in buckets:
            if not bucket:
                continue
            stars = [_designate_root(center, children) for center, children in bucket.items()]
            covered = {make_edge(center, child) for center, children in bucket.items() for child in children}
            present = {v for s in stars for v in s.members}
            stars.extend(Star(v, ()) for v in g.vertices if v not in present)
            stars.sort(key=lambda s: s.root)
            result.append(StarForest(tuple(stars), tuple(sorted(covered))))
    return result


@dataclass(frozen=True)
class SubdivisionMap:
    """Bijection between original edges and the degree-2 vertices of G^{1/2}."""

    original_vertices: tuple[int, ...]
    assignments: tuple[tuple[Edge, int], ...]

    @cached_property
    def mid_of(self) -> dict[Edge, int]:
        return {e: m for e, m in self.assignments}

    @cached_property
    def edge_of(self) -> dict[int, Edge]:
        return {m: e for e, m in self.assignments}

    def left(self, mid: int) -> int:
        return self.edge_of[mid][0]

    def right(self, mid: int) -> int:
        return self.edge_of[mid][1]

    @cached_property
    def mid_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(m for _, m in self.assignments))


def subdivide(g: Graph) -> tuple[Graph, SubdivisionMap]:
    """Replace each edge {u, v} with a path u - m_uv - v.

    New ids start above the largest original id and follow the
    lexicographic order of the original edges, so the construction is
    reproducible bit for bit.
    """
    next_id = max(g.vertices) + 1 if g.vertices else 0
    assignments: list[tuple[Edge, int]] = []
    new_edges: list[Edge] = []
    for e in g.edges:
        mid = next_id
        next_id += 1
        assignments.append((e, mid))
        new_edges.append(make_edge(e[0], mid))
        new_edges.append(make_edge(mid, e[1]))
    vertices = set(g.vertices) | {m for _, m in assignments}
    return Graph.build(vertices, new_edges), SubdivisionMap(g.vertices, tuple(assignments))


def greedy_coloring(g: Graph, d: DegeneracyOrder) -> dict[int, int]:
    """Proper coloring with at most k+1 classes, deterministic given `d`.

    Vertices are colored in reverse peeling order; every vertex then has
    at most k colored neighbors when its turn comes.
    """
    if set(d.order) != set(g.vertices):
        raise ValueError("degeneracy order does not match graph vertices")
    color: dict[int, int] = {}
    for v in reversed(d.order):
        used = {color[w] for w in g.adjacency[v] if w in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return color


def color_classes(coloring: dict[int, int]) -> list[tuple[int, ...]]:
    """Color classes V_1..V_c as sorted vertex tuples."""
    classes: dict[int, list[int]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    return [tuple(sorted(classes[c])) for c in sorted(classes)]
