"""Builders for 3-suitable permutation families.

A family is 3-suitable when for every 3-set and every designated element
some member places the other two entirely before it.  Ground sets of at
most six elements get an exact minimum family; larger ones get Spencer's
lexicographic family (Spencer 1971, "Minimal scrambling sets of simple
orders"), whose size grows as log log n.

The exact minimum comes from the one exact engine,
`posets._dimension_dfs`, on the empty order over 0..n-1.  Each 3-set
{a, x, y} and designated a is one requirement with the single
alternative ((x, y), (a,)), "x and y before a".  The search starts at
`first_t = 3` members and stops at `limit = n`, which always suffices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .families import PermutationFamily, verify_k_suitable
from .posets import _dimension_dfs, _topo_indices

# Up to this many elements every result is re-checked by verify_k_suitable,
# which walks all C(n, 3) triples.
VERIFY_LIMIT = 75
# Largest ground set exact_min_3_suitable solves.
EXACT_LIMIT = 6
# Node cap of its search; n = 6 takes under 200 nodes.
EXACT_BUDGET = 100_000


@dataclass(frozen=True)
class Suitable3Result:
    family: PermutationFamily
    generator: str


def _spencer_orders(n: int) -> np.ndarray:
    """Spencer's t-member 3-suitable family over positions 0..n-1.

    t is the smallest value with 2^C(t-2, h) >= n, h = (t-2) // 2.  Bit p
    of a position (p = 0 most significant) gets the set S_p = {0} | B_p,
    where B_p runs over the h-subsets of {1..t-2}.  Member i sorts the
    positions j by j ^ flip_i, where bit p of flip_i is set iff i is not
    in S_p: of two positions first differing at bit p, the one with a 1
    there comes later iff i is in S_p.

    For distinct a, x, y let p and q be the first bits where a differs
    from x and from y.  Member i puts a above x iff i lies in S_p or in
    its complement (which one depends on a's bit p), and likewise for y
    at q.  The two sets always meet: every S_p contains 0, no S_p
    contains t-1, and distinct S_p, S_q are incomparable (Sperner), so
    S_p - S_q and S_q - S_p are non-empty.
    """
    t = 2
    while 2 ** math.comb(t - 2, (t - 2) // 2) < n:
        t += 1
    layer = list(combinations(range(1, t - 1), (t - 2) // 2))
    width = len(layer)
    flips = [
        sum(1 << (width - 1 - p) for p, subset in enumerate(layer) if i != 0 and i not in subset)
        for i in range(t)
    ]
    return np.argsort(np.arange(n)[None, :] ^ np.array(flips)[:, None], axis=1)


def build_3_suitable(n: int) -> Suitable3Result:
    """3-suitable family over [n] = {1..n}."""
    return build_3_suitable_for(tuple(range(1, n + 1)))


def build_3_suitable_for(ids) -> Suitable3Result:
    """3-suitable family over an arbitrary id universe.

    Members order the ids by position in the sorted universe; the result
    depends only on how many ids there are.
    """
    ids = tuple(sorted(set(ids)))
    n = len(ids)
    if n <= EXACT_LIMIT:
        # the witness is over 1..n, so its rows are already positions
        orders = exact_min_3_suitable(n)[1].orders
        generator = "exact"
    else:
        orders = _spencer_orders(n)
        generator = "spencer"
    fam = PermutationFamily(ids, orders)
    if n <= VERIFY_LIMIT and not verify_k_suitable(fam, 3):
        raise AssertionError("3-suitable construction failed verification")
    return Suitable3Result(fam, generator)


@functools.cache
def exact_min_3_suitable(n: int):
    """Exact N(n,3) with a witness family, for n <= EXACT_LIMIT.

    Memoised by n (the result is immutable): repeated calls in one
    process, from the library, the tests or a benchmark loop, skip the
    search; a one-shot command line run still searches once.

    `posets._dimension_dfs` runs on the empty order over 0..n-1 with
    one single-alternative requirement (((x, y), (a,)),), "x and y
    before a", per 3-set {a, x, y} and designated a.  A member puts
    only one element of a 3-set last, so t starts at `first_t = 3`;
    n members with distinct last elements always suffice, so `limit`
    is n and the search always ends in a family.  The witness members
    are the smallest-first extensions of the relations found, sorted.
    """
    if n > EXACT_LIMIT:
        raise ValueError(f"exact 3-suitable search is limited to n <= {EXACT_LIMIT}")
    ids = tuple(range(1, n + 1))
    if n < 3:
        return 0, PermutationFamily.build(ids, ())
    requirements = [
        ((tuple(v for v in triple if v != a), (a,)),)
        for triple in combinations(range(n), 3)
        for a in triple
    ]
    t, relations, _ = _dimension_dfs([0] * n, requirements, 3, n, EXACT_BUDGET)
    members = sorted([ids[i] for i in _topo_indices(up, n)] for up in relations)
    return t, PermutationFamily.build(ids, members)
