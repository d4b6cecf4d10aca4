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
row blocks of BLOCK_ROWS against every later edge.  The first
DENSE_MEMBERS members thin a (block, m) overlap matrix on packed lanes
(SIMD within a register, `_lane_words`): a lane has b = n.bit_length()
+ 1 bits, a member's two overlap tests take two lanes, and q = 64 // (2b)
members share one uint64 word, so one subtraction per word tests q
members on an edge pair.  q is 4 for 64 <= n < 128 (more below), 3
below 512, 2 below 2^15 and 1 below 2^31, the largest n the check
handles.  The pairs left that share no vertex are sifted by the other
members one at a time.  It holds O(BLOCK_ROWS * m) memory whatever the
pair count, and stops at the first block with an unseparated pair.

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

# Row-block height, dense-prefix length and packed tile width of the
# exhaustive check; two uint64 tiles of 128 x 512 stay in cache.
BLOCK_ROWS = 128
DENSE_MEMBERS = 8
TILE_COLS = 512
# _LATER[a, c]: c > a; keeps the pairs j > i where a block meets its own columns
_LATER = np.arange(BLOCK_ROWS)[:, None] < np.arange(BLOCK_ROWS)
_LATER.flags.writeable = False
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


def _scan_order(r: int) -> np.ndarray:
    """0..r-1 in bit-reversed order: sorted by their binary digits, padded
    to the width of r - 1 and read backwards."""
    width = max(r - 1, 0).bit_length()
    return np.array(sorted(range(r), key=lambda i: f"{i:0{width}b}"[::-1]), dtype=np.int64)


def _edge_intervals(fam: PermutationFamily, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, m) arrays of each edge's lower and upper rank in each member,
    rows in `_scan_order`, in the narrowest unsigned type that holds n
    (comparisons run wider per vector step)."""
    ranks = fam.rank_matrix[_scan_order(len(fam))].astype(np.min_scalar_type(len(fam.ground_set)))
    first, second = ranks[:, edges[:, 0]], ranks[:, edges[:, 1]]
    lo = np.minimum(first, second)
    return lo, np.maximum(first, second, out=first)


def _disjoint(ends: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Mask of the edge index pairs (ii, jj) that share no vertex; `ends`
    is the (2, m) edge array with contiguous rows, `edges.T.copy()`."""
    u, v = ends
    a, b, c, d = u[ii], v[ii], u[jj], v[jj]
    return (a != c) & (a != d) & (b != c) & (b != d)


def _overlapping(lo: np.ndarray, hi: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """The edge index pairs (ii, jj), in their order, whose rank intervals
    overlap in every row of lo/hi: no member separates them."""
    for lo_k, hi_k in zip(lo, hi):
        if not ii.size:
            break
        keep = (hi_k[ii] >= lo_k[jj]) & (hi_k[jj] >= lo_k[ii])
        ii, jj = ii[keep], jj[keep]
    return ii, jj


@cache
def _lane_layout(b: int, dense: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.uint64]:
    """What `_lane_words` needs for lanes of b bits and `dense` members,
    with q = 64 // (2b): the q slot weights 2^(2b * s), the constant
    parts of the left and right words as (words, 1) columns, and the
    guard mask."""
    q = 64 // (2 * b)
    words = max(-(-dense // q), 1)
    guard = 1 << (b - 1)
    c = guard - 1
    weights = np.array([1 << 2 * b * s for s in range(q)], np.uint64)
    left, right = [0] * words, [0] * words
    for k in range(words * q):
        word, shift = k // q, 2 * b * (k % q)
        if k < dense:
            left[word] += (guard + ((c + guard) << b)) << shift
            right[word] += c << b << shift
        else:  # padding: lo = 0, hi = C
            left[word] += (c + guard) * (1 + (1 << b)) << shift
    guards = sum((guard | guard << b) << 2 * b * s for s in range(q))
    layout = weights, np.array(left, np.uint64)[:, None], np.array(right, np.uint64)[:, None]
    for part in layout:
        part.flags.writeable = False
    return *layout, np.uint64(guards)


def _lane_words(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """The first DENSE_MEMBERS rows of lo/hi packed into uint64 lanes:
    (words, m) arrays `left` and `right`, at least one word, and the mask
    of the guard bits.

    A lane has b = n.bit_length() + 1 bits, guard bit G = 2^(b-1) and
    C = G - 1 >= n; each member takes two lanes, q = 64 // (2b) members a
    word (so n < 2^31).  Edge i's left lanes are (hi_i | G, (C - lo_i) | G),
    edge j's right lanes (lo_j, C - hi_j), so each lane of left_i - right_j
    is G + hi_i - lo_j or G + hi_j - lo_i, in [1, 2G - 1]: no borrow
    crosses a lane, and the guard bit is set iff that side overlaps.  The
    AND of the words keeps every guard bit iff no packed member separates
    i and j.  Padding lanes (lo = 0, hi = C) overlap every edge.

    Member k's two left lanes hold hi_k + G + ((C + G - lo_k) << b),
    shifted by 2b * (k % q), and its right lanes lo_k + ((C - hi_k) << b).
    So with HI and LO the members' hi and lo summed at those shifts (the
    rows padded with zeros to words * q, and each word's q rows
    contracted with `_lane_layout`'s slot weights), left = HI - (LO << b)
    plus a constant per word, and right = LO - (HI << b) plus another;
    uint64 arithmetic wraps, and the results are exact.
    """
    b = n.bit_length() + 1
    dense = min(DENSE_MEMBERS, len(lo))
    weights, left_const, right_const, guards = _lane_layout(b, dense)
    words, q = len(left_const), len(weights)
    packed = np.zeros((2, words * q, lo.shape[1]), np.uint64)
    packed[0, :dense], packed[1, :dense] = hi[:dense], lo[:dense]
    hi_sum, lo_sum = np.einsum("q,swqm->swm", weights, packed.reshape(2, words, q, -1))
    left = hi_sum - (lo_sum << np.uint64(b))
    left += left_const
    right = lo_sum - (hi_sum << np.uint64(b))
    right += right_const
    return left, right, guards


def _to_ids(fam: PermutationFamily, edges: np.ndarray, i: int, j: int) -> tuple[Edge, Edge]:
    """An edge index pair back to the vertex-id edge pair."""
    ground = fam.ground_set
    (a, b), (c, d) = edges[[i, j]].tolist()
    return (ground[a], ground[b]), (ground[c], ground[d])


def verify_pairwise_suitable(fam: PermutationFamily, g: Graph) -> SeparationWitness:
    """Exhaustive check; returns the lexicographically smallest counterexample.

    Blocks and `np.flatnonzero` both run in (i, j) order, and sifting
    keeps that order, so the first survivor found is the smallest pair.
    """
    if fam.ground_set != g.vertices:
        raise ValueError("family ground set does not match graph vertices")
    edges = g.edge_positions
    ends = edges.T.copy()
    lo, hi = _edge_intervals(fam, edges)
    left, right, guards = _lane_words(lo, hi, len(fam.ground_set))
    dense = min(DENSE_MEMBERS, len(fam))
    m = edges.shape[0]
    # one tile of packed differences, at most BLOCK_ROWS x TILE_COLS, reused for every tile
    tile = np.empty(min(BLOCK_ROWS, m) * min(TILE_COLS, m), np.uint64)
    part = np.empty_like(tile)
    alive = np.empty(min(BLOCK_ROWS, m) * m, bool)
    for start in range(0, m - 1, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, m)
        rows, cols = stop - start, m - start
        # block[a, c]: j = start + c > i = start + a, and no dense member separates i and j
        block = alive[:rows * cols].reshape(rows, cols)
        for c in range(0, cols, TILE_COLS):
            width = min(TILE_COLS, cols - c)
            acc, diff = (buf[:rows * width].reshape(rows, width) for buf in (tile, part))
            j = slice(start + c, start + c + width)
            np.subtract(left[0, start:stop, None], right[0, j], out=acc)
            for w in range(1, len(left)):
                np.subtract(left[w, start:stop, None], right[w, j], out=diff)
                acc &= diff
            acc &= guards
            np.equal(acc, guards, out=block[:, c:c + width])
        block[:, :rows] &= _LATER[:rows, :rows]
        ii, jj = np.divmod(np.flatnonzero(block), cols)
        ii += start
        jj += start
        keep = _disjoint(ends, ii, jj)
        ii, jj = _overlapping(lo[dense:], hi[dense:], ii[keep], jj[keep])
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
