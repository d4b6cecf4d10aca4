"""Permutations, permutation families, and pairwise-suitability verification.

A permutation ranks a finite vertex set 1..n.  A family is one
(members x n) array of positions in its sorted ground set; ranks are
scattered from it, and the members' orders of vertex ids (`id_orders`)
are read from it only at API boundaries (JSON, reports, exact solvers,
lower bounds).  It is pairwise suitable for a graph when every pair of
disjoint edges is placed as two blocks (one entirely before the other)
by some member.

Member k separates edges e and f exactly when their rank intervals
[lo_k, hi_k] are disjoint; edges that share a vertex share a rank, so
they never look separated.  The exhaustive check walks the edges in
sorted order, in row blocks of BLOCK_ROWS, against every later edge.
In a block, pairs are bits: each later edge j holds the set of block
rows i < j it may still be unseparated from, in ceil(rows / 64) uint64
words, without the rows that share a vertex with j.  Each of the first
DENSE_MEMBERS members gets two tables over the places of the vertices
that lie on an edge (at most 2m of them, whatever n is): P[p], the
block rows with lo <= p, and ~B[p], those with hi >= p.  Column j keeps
P[hi_j] & ~B[lo_j], which is exactly the set of rows whose interval
meets j's (the proof is in `verify_pairwise_suitable`): two row
gathers per member and no comparison per pair.  The pairs left are
sorted by (i, j) and sifted by the other members one at a time.  The
walk stops at the first block with an unseparated pair: every pair of
a block precedes every pair of a later block, so that block's smallest
survivor is the smallest pair of all.  Memory is O(m) words for the
columns, GROUP_WORDS for the tables, and at most BLOCK_ROWS * m
survivor pairs, whatever the pair count.

The check visits the members in bit-reversed index order (0, r/2,
r/4, 3r/4, ...), so the dense prefix samples the whole family:
constructions list their members in groups (the star cover forest by
forest), and one group alone leaves many pairs for the sift.  The pairs
no member separates are the same in any order, so the verdict and the
counterexample are too.

It is the one pair check.  It serves families that come with no proof:
`verify` on a user's family and the tests.  The star-cover and the
subdivision families are certified from their construction's premises
instead (`starcover.certify_star_cover`,
`subdivided.certify_subdivision_family`), in time linear in their size.

`family_from_json` returns a family and the document's other fields.
A compact document (ASCII, no backslash, the `"permutations":` key once,
its list without spaces, ids without a leading zero and below
ID_TABLE_SPAN * n, such as `family_to_json` writes for vertices 0..n-1
or 1..n) is read by `_family_arrays`: numpy checks and parses the
members' r * n ids straight into one (r, n) array, which maps to
positions through one table gather, and `json.loads` parses the rest,
the n ids of the ground set among it; `json.loads` of the member lists
builds one Python int per id and one list per member, which costs
several times the reader's pass.  Every other document, and any the
reader doubts (sparse ids among them), takes the JSON path, which builds
the same family and raises the same errors.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, islice

import numpy as np

from .graphs import Edge, Graph

# Row-block height and dense-prefix length of the exhaustive check, and
# the cap, in uint64 words, on one member group's rank tables and on
# their gathers (8 MiB each)
BLOCK_ROWS = 256
DENSE_MEMBERS = 16
GROUP_WORDS = 1 << 20
# The array reader takes ids below ID_TABLE_SPAN * n, which map to
# positions through a lookup table of that many cells
ID_TABLE_SPAN = 4
# The family writer hands the id lists out in parts of about this many
# characters (16 MiB); every document below that is one part
JSON_PART_CHARS = 1 << 24


def _vertex_ids(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of vertex ids: non-negative ints (bools excluded)."""
    try:
        ids = tuple(values)
    except TypeError:
        ids = (None,)
    if not set(map(type, ids)) <= {int} or (ids and min(ids) < 0):
        raise ValueError(f"{what} must be a list of non-negative integer vertex ids")
    return ids


@dataclass(frozen=True, eq=False)
class PermutationFamily:
    """Ordered permutations of one ground set, as a single order array.

    `ground_set` is the sorted tuple of vertex ids; row i of the (r, n)
    integer array `orders` lists the positions 0..n-1 of those ids in
    member i's order.  Every family is validated here, however it was
    built; a fresh array (int64, C-contiguous, writeable, owning its
    data) is kept and made read-only, any other is copied.  `rank_matrix`
    and `id_orders()` are views derived from `orders`.
    """

    ground_set: tuple[int, ...]
    orders: np.ndarray

    def __post_init__(self):
        ground = _vertex_ids(self.ground_set, "ground set")
        if any(a >= b for a, b in zip(ground, ground[1:])):
            raise ValueError("ground set must be sorted and free of repeats")
        n = len(ground)
        given = np.asarray(self.orders)
        if given.ndim != 2 or given.shape[1] != n or given.dtype.kind not in "iu":
            raise ValueError(f"orders must be an integer array of shape (members, {n})")
        if given.size and (given.min() < 0 or given.max() >= n):
            raise ValueError("family member is not a permutation of the ground set")
        fresh = given.flags.c_contiguous and given.flags.writeable and given.flags.owndata
        orders = given if fresh and given.dtype == np.int64 else np.array(given, dtype=np.int64)
        # n positions in range fill a row's n cells iff none repeats: shift
        # row i by i * n in place and scatter all rows into one flat mask
        offsets = np.arange(len(orders))[:, None] * n
        orders += offsets
        seen = np.zeros(orders.size, dtype=bool)
        seen[orders.ravel()] = True
        orders -= offsets
        if not seen.all():
            raise ValueError("family member is not a permutation of the ground set")
        orders.flags.writeable = False
        object.__setattr__(self, "ground_set", ground)
        object.__setattr__(self, "orders", orders)

    @staticmethod
    def build(ground_set, members) -> "PermutationFamily":
        """Family from vertex ids: the ground set and each member's id
        order, given as sequences."""
        ground = tuple(sorted(set(_vertex_ids(ground_set, "ground set"))))
        pos = {v: j for j, v in enumerate(ground)}
        rows = []
        for m in members:
            order = _vertex_ids(m, "family member")
            if len(order) != len(ground):
                raise ValueError("family member does not cover the ground set")
            rows.append(order)
        try:
            flat = np.fromiter(map(pos.__getitem__, chain.from_iterable(rows)), np.int64,
                               len(rows) * len(ground))
        except KeyError:
            raise ValueError("family member is not a permutation of the ground set") from None
        flat.shape = (len(rows), len(ground))  # a view would be copied
        return PermutationFamily(ground, flat)

    def __len__(self) -> int:
        return self.orders.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, PermutationFamily) and self.ground_set == other.ground_set \
            and np.array_equal(self.orders, other.orders)

    def __hash__(self) -> int:
        return hash((self.ground_set, self.orders.tobytes()))

    def id_orders(self) -> list[list[int]]:
        """Each member's order as a list of vertex ids."""
        ground = self.ground_set
        return [[ground[j] for j in row] for row in self.orders.tolist()]

    @cached_property
    def rank_matrix(self) -> np.ndarray:
        """Row per member: ranks 1..n, indexed by position in `ground_set`."""
        ranks = np.empty_like(self.orders)
        np.put_along_axis(ranks, self.orders, np.arange(1, self.orders.shape[1] + 1), axis=1)
        return ranks


@dataclass(frozen=True)
class SeparationWitness:
    """Verdict of the exhaustive pair check, which visits every disjoint
    edge pair: Ok, or the lexicographically smallest pair no member
    separates."""

    ok: bool
    counterexample: tuple[Edge, Edge] | None = None

    def __bool__(self) -> bool:
        return self.ok


def separates(order, e, f) -> bool:
    """True iff `order` (a sequence of vertex ids) puts both vertices of
    one edge before both vertices of the other."""
    a, b = e
    c, d = f
    if len({a, b, c, d}) != 4:
        raise ValueError(f"edges {e} and {f} are not disjoint")
    rank = {v: i for i, v in enumerate(order)}
    try:
        ra, rb, rc, rd = rank[a], rank[b], rank[c], rank[d]
    except KeyError as exc:
        raise ValueError(f"vertex {exc.args[0]} is outside the permutation domain") from None
    return max(ra, rb) < min(rc, rd) or max(rc, rd) < min(ra, rb)


def disjoint_edge_pairs(g: Graph):
    """All pairs of disjoint edges in lexicographic order."""
    edges = g.edges
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if e[0] != f[0] and e[0] != f[1] and e[1] != f[0] and e[1] != f[1]:
                yield e, f


@cache
def _scan_order(r: int) -> np.ndarray:
    """0..r-1 in bit-reversed order: sorted by their binary digits, padded
    to the width of r - 1 and read backwards (read-only)."""
    width = max(r - 1, 0).bit_length()
    order = np.array(sorted(range(r), key=lambda i: f"{i:0{width}b}"[::-1]), dtype=np.int64)
    order.flags.writeable = False
    return order


def _edge_intervals(fam: PermutationFamily, edges: np.ndarray, members: np.ndarray):
    """(len(members), m) arrays of each edge's lower and upper rank in
    each listed member, in the narrowest unsigned type that holds n
    (comparisons run wider per vector step)."""
    ranks = np.take(fam.rank_matrix, members, axis=0).astype(np.min_scalar_type(len(fam.ground_set)))
    first, second = np.take(ranks, edges[:, 0], axis=1), np.take(ranks, edges[:, 1], axis=1)
    lo = np.minimum(first, second)
    return lo, np.maximum(first, second, out=first)


def _overlapping(lo: np.ndarray, hi: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """The edge index pairs (ii, jj), in their order, whose rank intervals
    overlap in every row of lo/hi: no member separates them."""
    for lo_k, hi_k in zip(lo, hi):
        if not ii.size:
            break
        keep = (hi_k[ii] >= lo_k[jj]) & (hi_k[jj] >= lo_k[ii])
        ii, jj = ii[keep], jj[keep]
    return ii, jj


def _endpoint_places(fam: PermutationFamily, edges: np.ndarray, on_edge: np.ndarray,
                     members: np.ndarray, group: int):
    """(ends, listed, keys) over the N vertices that lie on an edge
    (`on_edge`), numbered 0..N-1 in position order.

    `ends` is the (m, 2) edge array in those numbers; `listed[k]` lists
    them in the order of the k-th listed member, so that place p of that
    order holds vertex listed[k, p].  Places compare as ranks do and
    take N <= 2m values, whatever n is.  The members go in groups of
    `group`, whose tables stack 2 * group slabs of N places: member g of
    a group reads its prefix table in slab 2g and its suffix table in
    slab 2g + 1.  keys[2k] holds each edge's upper place in member k and
    keys[2k + 1] its lower place, each plus its slab's offset; int32,
    (2 * len(members), m).
    """
    points = np.count_nonzero(on_edge)
    listed = np.take(fam.orders, members, axis=0)
    ranks = np.take(fam.rank_matrix, members, axis=0)
    ends = edges
    if points < len(on_edge):
        # the rank of a vertex on an edge becomes 1 + its place
        ranks = np.take_along_axis(np.cumsum(on_edge[listed], axis=1), ranks - 1, axis=1)
        number = np.cumsum(on_edge) - 1
        listed = number[listed[on_edge[listed]]].reshape(len(members), points)
        ends = number[edges]
    ranks += (np.arange(len(members)) % group * 2 * points - 1)[:, None]  # ranks count from 1
    first, second = np.take(ranks, edges[:, 0], axis=1), np.take(ranks, edges[:, 1], axis=1)
    keys = np.empty((len(members), 2, len(edges)), np.int32)
    np.maximum(first, second, out=keys[:, 0])
    np.minimum(first, second, out=keys[:, 1])
    keys[:, 1] += points
    return ends, listed, keys.reshape(2 * len(members), len(edges))


@cache
def _below(words: int) -> np.ndarray:
    """(BLOCK_ROWS + 1, words) uint64, read-only: row c holds the bits of
    rows 0..c-1, bit a of a row set being bit a % 64 of word a // 64."""
    rows = np.arange(BLOCK_ROWS + 1)[:, None] > np.arange(64 * words)
    table = np.packbits(rows, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    table.flags.writeable = False
    return table


def _rank_tables(rows_of: np.ndarray, listed: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out`, (g, 2, N, words), filled with the tables of the g members
    whose places `listed` (g, N) lists: out[k, 0, p] is the OR of
    rows_of[listed[k, :p + 1]], the rows with lo <= p in member k, and
    out[k, 1, p] the OR of rows_of[listed[k, p:]], those with hi >= p."""
    prefix, suffix = out[:, 0], out[:, 1, ::-1]
    np.take(rows_of, listed, axis=0, out=prefix)
    out[:, 1] = prefix
    np.bitwise_or.accumulate(prefix, axis=1, out=prefix)
    np.bitwise_or.accumulate(suffix, axis=1, out=suffix)
    return out


def _bit_pairs(alive: np.ndarray, start: int, cols: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The set bits of the (columns, words) row sets `alive` as edge
    index pairs (start + row, cols[column]), sorted by (i, j)."""
    words = alive.shape[1]
    at = np.flatnonzero(alive)
    bits = np.flatnonzero(np.unpackbits(alive.reshape(-1)[at].astype("<u8", copy=False).view(np.uint8),
                                        bitorder="little"))
    at = at[bits >> 6]
    pairs = (start + at % words * 64 + (bits & 63)) * m + cols[at // words]
    pairs.sort()
    return np.divmod(pairs, m)


def _to_ids(fam: PermutationFamily, edges: np.ndarray, i: int, j: int) -> tuple[Edge, Edge]:
    """An edge index pair back to the vertex-id edge pair."""
    ground = fam.ground_set
    (a, b), (c, d) = edges[[i, j]].tolist()
    return (ground[a], ground[b]), (ground[c], ground[d])


def verify_pairwise_suitable(fam: PermutationFamily, g: Graph) -> SeparationWitness:
    """Exhaustive check; returns the lexicographically smallest counterexample.

    Edges are rows in their sorted order, and the walk takes them in
    blocks of BLOCK_ROWS.  For a block, each later edge j is a column:
    the set of block rows i < j that j may still be unseparated from, as
    `words` uint64 words.  A column starts without the rows that share a
    vertex with j (`rows_of`, the block rows on each vertex).  Then each
    of the first DENSE_MEMBERS members in `_scan_order` keeps, in column
    j, P[hi_j] & ~B[lo_j], where lo and hi are the edges' lower and upper
    places in the member, P[p] is the set of rows with lo <= p and B[p]
    the set with hi < p.  That is exactly the set of rows whose interval
    overlaps j's: row i is in P[hi_j] iff lo_i <= hi_j and in ~B[lo_j]
    iff hi_i >= lo_j, and two intervals meet iff each starts no later
    than the other ends.  P is the prefix OR of `rows_of` along the
    member's places (lo_i <= p iff an endpoint of i lies at a place <= p)
    and ~B the suffix OR (hi_i >= p iff an endpoint lies at a place >= p),
    so the two tables take one gather, one copy and two in-place
    accumulates, and a column reads one word row of each, with no
    comparison per pair.  The
    members go in groups of at most GROUP_WORDS words of tables (and as
    many of gathers); after each group, the columns with no row left
    drop out.  The bits left are the block's pairs that no dense member
    separates; they are sorted by (i, j) and sifted by the other members
    (`_overlapping`), which keeps their order.

    Every pair of a block has a smaller i than every pair of a later
    block, so the first block with a survivor holds the smallest
    unseparated pair, and it is that block's first survivor.  Memory:
    the columns take m * words words, the tables and their gathers at
    most GROUP_WORDS each (or one member's, if that is more), and the
    survivors at most BLOCK_ROWS * m pairs, whatever the pair count.
    """
    if fam.ground_set != g.vertices:
        raise ValueError("family ground set does not match graph vertices")
    edges = g.edge_positions
    m = edges.shape[0]
    scan = _scan_order(len(fam))
    dense, rest = scan[:DENSE_MEMBERS], scan[DENSE_MEMBERS:]
    lo, hi = _edge_intervals(fam, edges, rest)
    words = -(-min(BLOCK_ROWS, max(m, 1)) // 64)
    on_edge = np.zeros(len(fam.ground_set), bool)
    on_edge[edges.ravel()] = True
    points = np.count_nonzero(on_edge)
    group = max(1, min(len(dense), GROUP_WORDS // (2 * words * max(points, m, 1))))
    ends, listed, keys = _endpoint_places(fam, edges, on_edge, dense, group)
    below = _below(words)
    row = np.arange(BLOCK_ROWS)[:, None]
    row_word, row_bit = row // 64, np.uint64(1) << (row % 64).astype(np.uint64)
    rows_of = np.zeros((points, words), np.uint64)
    tables = np.empty(2 * group * points * words, np.uint64)
    for start in range(0, m - 1, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, m)
        rows = stop - start
        block = ends[start:stop]
        np.bitwise_or.at(rows_of.reshape(-1), block * words + row_word[:rows], row_bit[:rows])
        # alive[c]: the rows i < j = cols[c] that share no vertex with j
        cols = np.arange(start + 1, m)
        alive = np.take(rows_of, ends[start + 1:, 0], axis=0)
        alive |= np.take(rows_of, ends[start + 1:, 1], axis=0)
        np.invert(alive, out=alive)
        alive[:rows - 1] &= below[1:rows]
        alive[rows - 1:] &= below[rows]
        for k0 in range(0, len(dense), group):
            key = keys[2 * k0:2 * (k0 + group)]
            size = len(key) // 2
            table = _rank_tables(rows_of, listed[k0:k0 + size],
                                 tables[:2 * size * points * words].reshape(size, 2, points, words))
            # until a column drops out, the columns are the edges start + 1..m - 1
            key = key[:, start + 1:] if len(cols) == m - start - 1 else np.take(key, cols, axis=1)
            alive &= np.bitwise_and.reduce(np.take(table.reshape(-1, words), key, axis=0), axis=0)
            live = alive.any(axis=1)
            if not live.all():
                alive, cols = alive[live], cols[live]
        rows_of[block] = 0
        ii, jj = _overlapping(lo, hi, *_bit_pairs(alive, start, cols, m))
        if ii.size:
            return SeparationWitness(False, _to_ids(fam, edges, ii[0], jj[0]))
    return SeparationWitness(True)


def verify_pairwise_suitable_sampled(
    fam: PermutationFamily, g: Graph, samples: int, seed: int
) -> SeparationWitness:
    """`verify_pairwise_suitable(fam, g)`; `samples` and `seed` are ignored.

    No command runs this.  The name stays only for the benchmark's table
    of traced functions, until ROADMAP item 5 deletes it.
    """
    return verify_pairwise_suitable(fam, g)


def verify_k_suitable(fam: PermutationFamily, k: int) -> bool:
    """Dushnik k-suitability: every element of every k-set is some member's last.

    `k` larger than the ground set is vacuously true.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(fam.ground_set)
    if k == 1 or k > n:
        return True
    subsets = combinations(range(n), k)
    while (block := np.array(list(islice(subsets, 1 << 14)), dtype=np.int64)).size:
        # last[i, s]: which element of subset s member i puts last
        last = fam.rank_matrix[:, block].argmax(axis=2)
        if not all((last == j).any(axis=0).all() for j in range(k)):
            return False
    return True


def family_to_json(
    fam: PermutationFamily, *, generator: str = "unspecified", extra: dict | None = None,
) -> str:
    """Serialize a family (with provenance) to canonical JSON text: the
    parts of `family_json_parts`, joined."""
    return "".join(family_json_parts(fam, generator=generator, extra=extra))


def family_json_parts(
    fam: PermutationFamily, *, generator: str = "unspecified", extra: dict | None = None,
) -> Iterator[str]:
    """The canonical JSON text of a family, in parts to write one by one.

    The text is `json.dumps` of the document with sorted keys and no
    spaces: the fields that sort before `permutations`, the id lists,
    then the fields after them.  `extra` (string keys) adds fields and
    may set `seed`, which is null otherwise; it may not set `n`,
    `ground_set` or `permutations` (ValueError), which the family
    holds.  The ground set and the id lists are joined from one decimal
    string per id, made once; the id lists member by member, in parts
    of about JSON_PART_CHARS characters, so a writer holds one part at
    a time and not the whole text; a smaller document is one part.
    """
    extra = extra or {}
    for key in ("n", "ground_set", "permutations"):
        if key in extra:
            raise ValueError(f"extra may not set the family's own {key!r}")
    doc = {"n": len(fam.ground_set), "seed": None, "generator": generator, **extra}
    ids = list(map(str, fam.ground_set))  # for the ground set and the id lists
    head = (
        _fields_json({key: value for key, value in doc.items() if key < "ground_set"}),
        '"ground_set":[' + ",".join(ids) + "]",
        _fields_json({key: value for key, value in doc.items() if "ground_set" < key < "permutations"}),
    )
    yield "{" + ",".join(filter(None, head)) + ',"permutations":'
    if len(fam):
        yield from _rows_json(np.array(ids, dtype=object), fam.orders)
    else:
        yield "[]"
    # `seed` always sorts here, so the tail is never empty
    yield "," + _fields_json({key: value for key, value in doc.items() if key > "permutations"}) + "}\n"


_FIELDS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _fields_json(fields: dict) -> str:
    """The members of `json.dumps(fields)` with sorted keys and no
    spaces, without the braces; empty for no fields."""
    return _FIELDS_ENCODER.encode(fields)[1:-1]


def _rows_json(ids: np.ndarray, orders: np.ndarray) -> Iterator[str]:
    """`[[id,...],...]` for the members, one part per JSON_PART_CHARS
    characters or so of ids."""
    lead, part, size = "[[", [], 0
    for row in orders:
        if size >= JSON_PART_CHARS:
            yield lead + "],[".join(part)
            lead, part, size = "],[", [], 0
        part.append(",".join(ids[row].tolist()))
        size += len(part[-1])
    yield lead + "],[".join(part) + "]]"


def family_from_json(text: str) -> tuple[PermutationFamily, dict]:
    """Parse a serialized family; returns the family and the document's
    other fields (all but `ground_set` and `permutations`, which the
    family holds).

    A compact document goes through `_family_arrays`: ASCII text without
    a backslash, the `"permutations":` key once, followed by
    `[[id,...],...]` without spaces, each id without a leading zero and
    below ID_TABLE_SPAN * n.  numpy checks and parses that list straight
    into one id array, and `json.loads` reads only the rest: on the
    whole text it would build a Python int per id and a list per member,
    the larger part of the cost.  Every other document, and any the
    reader doubts, goes through `_family_from_lists` (`json.loads` of
    the whole text).  Both give the same family and fields, and the same
    errors.
    """
    return _family_arrays(text) or _family_from_lists(text)


def _family_from_lists(text: str) -> tuple[PermutationFamily, dict]:
    """`family_from_json` for any document, through the JSON lists."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("family document is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("permutations"), list):
        raise ValueError("family document must be an object with a permutations list")
    fam = PermutationFamily.build(doc.get("ground_set"), doc["permutations"])
    if type(doc.get("n")) is not int or doc["n"] != len(fam.ground_set):
        raise ValueError("family document is inconsistent: n != |ground_set|")
    return fam, {key: value for key, value in doc.items() if key not in ("ground_set", "permutations")}


def _family_arrays(text: str) -> tuple[PermutationFamily, dict] | None:
    """The family and the other fields of a compact family document;
    None for any other document.

    The text must be ASCII without a backslash, so every `"` delimits a
    string, and must hold the string `"permutations"` once: as the key
    token `"permutations":`, followed by a list of id lists in the
    grammar of `_id_rows`, up to the first `]]`.  That list is replaced
    by `null` and the rest goes through `json.loads`, which checks the
    outer document and returns the ground set and the other fields.  Its
    top level must hold the null as `permutations`; no other
    `permutations` key exists (one spelled `"permutations" :` among
    them), so the id lists are the document's, and `json.loads` takes
    the last of any other repeated key, as the JSON path does.  Nested
    objects are plain field values.  The reader also doubts a
    ground set that is not a strictly increasing list of n >= 1
    non-negative ints (bools excluded), members whose length is not n,
    an `n` field other than the int n, and an id at or above ID_TABLE_SPAN * n
    (`np.fromstring` saturates longer ids at 2^63 - 1, so these are
    doubted too): for all of these `_family_from_lists` gives the result
    or the error.  Ids map to positions through one table of
    ID_TABLE_SPAN * n cells, -1 (refused by the constructor) where an id
    is not in the ground set.
    """
    if not text.isascii() or "\\" in text:
        return None
    data = text.encode()
    key = b'"permutations":'
    at = data.find(key)
    stop = data.find(b"]]", at)
    if at < 0 or stop < 0 or data.count(b'"permutations"') != 1:
        return None
    start, stop = at + len(key), stop + 2
    try:
        fields = json.loads(b"null".join((data[:start], data[stop:])))
    except (ValueError, RecursionError):
        return None
    members = data[start:stop]
    del data  # the member list is the one copy of the text kept
    if not isinstance(fields, dict) or fields.pop("permutations", 0) is not None:
        return None
    ids = _id_rows(members)
    ground = fields.pop("ground_set", None)
    if ids is None or not isinstance(ground, list):
        return None
    n = len(ground)
    if type(fields.get("n")) is not int or fields["n"] != n or ids.shape[1] != n \
            or not all(type(v) is int for v in ground) or ground[0] < 0 \
            or any(a >= b for a, b in zip(ground, ground[1:])) \
            or max(ground[-1], ids.max()) >= ID_TABLE_SPAN * n:
        return None
    table = np.full(ID_TABLE_SPAN * n, -1, np.int64)
    table[ground] = np.arange(n)
    return PermutationFamily(tuple(ground), table[ids]), fields


def _id_rows(span: bytes) -> np.ndarray | None:
    """`span` as an (r, k) int64 array if it is a JSON list of r >= 1
    lists of k >= 1 ids each, without spaces, every id a run of digits
    without a leading zero (or 0 alone); None for any other text.

    Checked on the bytes: the brackets, as "[[", "],[" between rows and
    "]]"; every other byte a digit or a comma; an id between every two
    separators (digit runs = commas + 1, as "],[" holds one comma); no
    run that starts with 0 and goes on; and as many commas in each row.
    At most three byte masks are alive at a time, and the commas of each
    row are counted by binary search over their positions:
    `np.add.reduceat` over a mask would cast it whole to int64.
    """
    raw = np.frombuffer(span, np.uint8)
    size = raw.size
    opens, closes = np.flatnonzero(raw == ord("[")), np.flatnonzero(raw == ord("]"))
    # row i opens at opens[i + 1] and closes at closes[i]
    if len(opens) != len(closes) or len(opens) < 2 or opens[1] != 1 or closes[-2] != size - 2 \
            or not np.array_equal(opens[2:], closes[:-2] + 2) or (raw[closes[:-2] + 1] != ord(",")).any():
        return None
    commas = np.flatnonzero(raw == ord(","))
    inside = np.searchsorted(commas, closes[:-1]) - np.searchsorted(commas, opens[1:])  # k - 1 per row
    digit = (raw - ord("0")) < 10  # uint8: the other bytes wrap above 9
    first = digit[1:] > digit[:-1]  # first digit of an id, at raw[i + 1]
    lead = raw[1:-1] == ord("0")  # ... that is a 0 followed by a digit
    lead &= first[:-1]
    lead &= digit[2:]
    if np.count_nonzero(digit) + commas.size + 2 * len(opens) != size \
            or np.count_nonzero(first) != commas.size + 1 or lead.any() or (inside != inside[0]).any():
        return None
    del digit, first, lead
    ids = np.fromstring(span.translate(None, b"[]"), np.int64, sep=",")
    return ids.reshape(len(inside), inside[0] + 1)
