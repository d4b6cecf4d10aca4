"""Builders for 3-suitable permutation families, and their certificate.

A family is 3-suitable when for every 3-set and every designated element
some member places the other two entirely before it.  Ground sets of at
most six elements get a minimum family from a table; larger ones get a
lexicographic family whose size grows as log log n (Spencer 1971,
"Minimal scrambling sets of simple orders").  It is a lex-xor base:
member i sorts the positions j by j ^ flip_i, and the t x L matrix of
flip bits is kept with the family, because 3-suitability follows from
two properties of that matrix alone (`certify_3_suitable`).  Its
columns are Kleitman and Spencer's, the most that t rows allow with
every two columns showing all four bit patterns, so no flip matrix the
certificate accepts for n positions has fewer rows.  The builder does
not run the certificate itself: the check of the family built on a base
does (`starcover.certify_star_cover`, or the exhaustive pair check of
the subdivision and lower-bound families).

The table holds minimum witnesses over 4 and 6 positions.  Deleting
positions keeps a family 3-suitable, so their restrictions to the first
n positions serve n = 3, 4 and n = 5, 6.  They are minimum: each element
of a 3-set comes last in some member, so n >= 3 needs three, and no
three members are 3-suitable at n = 5 (an exhaustive check in the
tests).  Below n = 3 the family is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .families import PermutationFamily, verify_k_suitable

# Minimum 3-suitable families; n = 3..EXACT_LIMIT takes the narrowest one at least n wide.
_MINIMUM = (
    ((0, 1, 2, 3), (0, 3, 2, 1), (1, 3, 2, 0)),
    ((0, 1, 2, 3, 4, 5), (0, 1, 2, 5, 4, 3), (0, 3, 4, 5, 2, 1), (1, 3, 5, 4, 2, 0)),
)
EXACT_LIMIT = len(_MINIMUM[-1][0])


@dataclass(frozen=True)
class Suitable3Result:
    """A 3-suitable family and how it was made.

    `flips` is the (t, L) boolean flip-bit matrix of a lex-xor base
    (column p is bit L - 1 - p of a position), None for any other base.
    """

    family: PermutationFamily
    generator: str
    flips: np.ndarray | None = field(default=None, compare=False)


def lex_xor_orders(flips: np.ndarray, n: int) -> np.ndarray:
    """Rows of positions 0..n-1, member i sorted by j ^ flip_i, where
    flip_i is row i of the (t, L) bit matrix `flips` read as an integer,
    column 0 most significant (L <= 62)."""
    return np.argsort(np.arange(n) ^ _masks(flips)[:, None], axis=1)


def _masks(flips: np.ndarray) -> np.ndarray:
    """Each row of a flip matrix as an integer, column 0 most significant."""
    return flips.astype(np.int64) @ (1 << np.arange(flips.shape[1] - 1, -1, -1, dtype=np.int64))


def _kleitman_spencer_flips(n: int) -> np.ndarray:
    """Kleitman and Spencer's t x L flip matrix for positions 0..n-1
    (Kleitman & Spencer 1973, "Families of k-independent sets").

    t is the smallest value with 2^L >= n, L = C(t-1, h), h = ceil(t/2).
    Column p gets the set S_p, where S_p runs over the h-subsets of
    {0..t-2}, and member i's bit p is set iff i is not in S_p.  Any two
    columns p != q show all four bit patterns: (0, 0) at a member of
    S_p & S_q, which is not empty because 2h > t - 1; (1, 1) at member
    t-1, which no S_p contains; (0, 1) and (1, 0) because distinct sets
    of equal size are incomparable, so S_p - S_q and S_q - S_p are
    non-empty.  Every column takes both values: 0 on S_p and 1 at t-1.
    """
    t = 2
    while 2 ** math.comb(t - 1, (t + 1) // 2) < n:
        t += 1
    layer = list(combinations(range(t - 1), (t + 1) // 2))
    return np.array([[i not in subset for subset in layer] for i in range(t)],
                    dtype=bool).reshape(t, len(layer))


def certify_3_suitable(base: Suitable3Result) -> None:
    """Raise AssertionError, naming the failed premise, unless
    `base.family` is 3-suitable.

    A lex-xor base is checked in O(t*L^2 + t*n) against these premises:
    every flip column takes both values; every two columns show all four
    patterns (a binary covering array of strength 2); 2^L >= n; and row
    i lists the positions in strictly increasing j ^ flip_i.  They imply
    3-suitability: for distinct positions a, x, y let p and q be the
    first bits where a differs from x and from y.  Member i puts a after
    x iff bit p of a ^ flip_i is 1, that is iff flip_i has the opposite
    of a's bit at p, and likewise for y at q.  If p != q, strength 2
    gives a member with the wanted bits at both p and q; if p = q, one
    bit is wanted, and the column takes both values.  Any other base
    must have at most EXACT_LIMIT elements (at most 20 triples) and goes
    through `verify_k_suitable`.
    """
    fam, flips = base.family, base.flips
    n = len(fam.ground_set)
    if flips is None:
        if n > EXACT_LIMIT:
            raise AssertionError(f"base: {n} elements and no flip matrix to certify them by")
        if not verify_k_suitable(fam, 3):
            raise AssertionError("base: the exact base is not 3-suitable")
        return
    t, width = flips.shape
    if t != len(fam) or flips.dtype != bool or 2 ** width < n or width > 62:
        raise AssertionError("base: the flip matrix is not t x L bits with 2^L >= n and L <= 62")
    if not (flips.any(axis=0) & ~flips.all(axis=0)).all():
        raise AssertionError("base: a flip column takes only one value")
    ones = flips.astype(np.int64)
    for x, y in ((ones, ones), (ones, 1 - ones), (1 - ones, 1 - ones)):
        seen = x.T @ y  # members with the pattern at columns (p, q); (0, 1) is (1, 0) transposed
        np.fill_diagonal(seen, 1)
        if not seen.all():
            raise AssertionError("base: two flip columns miss one of the four bit patterns")
    if not (np.diff(fam.orders ^ _masks(flips)[:, None], axis=1) > 0).all():
        raise AssertionError("base: a member does not list the positions by increasing j ^ flip")


def build_3_suitable_for(ids) -> Suitable3Result:
    """3-suitable family over an arbitrary id universe.

    Members order the ids by position in the sorted universe; the result
    depends only on how many ids there are.
    """
    ids = tuple(sorted(set(ids)))
    n = len(ids)
    if n <= EXACT_LIMIT:
        return Suitable3Result(PermutationFamily(ids, _minimum_orders(n)), "exact")
    flips = _kleitman_spencer_flips(n)
    return Suitable3Result(PermutationFamily(ids, lex_xor_orders(flips, n)), "kleitman-spencer", flips)


def _minimum_orders(n: int) -> np.ndarray:
    """Rows of the narrowest table family of width >= n, cut to 0..n-1."""
    if n < 3:
        return np.zeros((0, n), dtype=np.int64)
    rows = np.array(next(table for table in _MINIMUM if len(table[0]) >= n))
    # every row keeps exactly n positions, in its own order
    return rows[rows < n].reshape(len(rows), n)
