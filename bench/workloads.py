"""Seeded inputs for the four benchmark workloads.

`build(workload, seed, workdir)` writes every input file into `workdir`
and returns the op list of one pass: each op is the argument vector of
one `sepdim` command plus what the checks need to know about it.  The
same seed gives byte-identical files and the same ops; only the shapes
(sizes, k, id spread) are fixed here, the graphs themselves come from
the seed.  Nothing here imports `sepdim`.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

import reference as ref

# (n, k) per starcover op: 42 inputs.  Ids are drawn from range(ID_SPREAD * n).
# The 3-suitable base switches from covers to xor masks above n = 75, and
# verification switches from exhaustive to sampled above n = 300.  Every
# op time is a median over several passes (see run.py), so the inputs are many
# and short; the one sampled-verify op costs as much as twenty others.
STARCOVER_SHAPES = (
    [(n, 2 + i % 2) for i, n in enumerate(range(16, 32, 2))]        # cover base, exhaustive verify
    + [(n, 2 + i % 2) for i, n in enumerate(range(76, 201, 4))]     # xor-mask base, exhaustive verify
    + [(300, 2)]                                                    # last exhaustive size
    + [(320, 2)]                                                    # xor-mask base, sampled verify
)
ID_SPREAD = 10

# n of the 3-degenerate graphs whose families `verify` checks; m = 3n - 6,
# so m runs from 594 to 1995.  Each family is checked whole and cut to half:
# 40 ops.  Random orders are added until the family is suitable (about
# 30-40 for m = 2000) and at least VERIFY_MEMBERS, so the member count,
# and with it the work per op, does not depend on the luck of the draw.
VERIFY_SIZES = list(range(200, 290, 5)) + [350, 667]
VERIFY_MEMBERS = 48

# n of the 3-degenerate graphs for `bound-subdivision` (m = 3n - 6), plus
# one 9-vertex tree (8 edges) small enough for the exact realizer search:
# 40 ops.  G^{1/2} has 4n - 6 vertices, below the 300 where the program
# switches to sampled verification.
SUBDIVISION_SIZES = [10 + (24 * i) // 38 for i in range(39)]
SUBDIVISION_TREE = 9


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _clique(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _biclique(a, b):
    return [(u, v) for u in range(a) for v in range(a, a + b)]


# Fixed graph shapes for `exact`: n <= 7 reaches the mask engine, n = 8..10
# the prefix engine.  The seed picks each shape's ids from range(1, 10 n + 1)
# but keeps their order, because the prefix engine's cost depends on the
# vertex order (see CHANGES.md); so every seed does the same search.
EXACT_SHAPES = {
    "c4": (4, _cycle(4)),
    "k4": (4, _clique(4)),
    "p4": (4, _path(4)),
    "k13": (4, _biclique(1, 3)),
    "paw": (4, _cycle(3) + [(0, 3)]),
    "diamond": (4, _clique(4)[:-1]),
    "p5": (5, _path(5)),
    "c5": (5, _cycle(5)),
    "k23": (5, _biclique(2, 3)),
    "k5": (5, _clique(5)),
    "house": (5, _cycle(5) + [(1, 4)]),
    "bull": (5, _cycle(3) + [(0, 3), (1, 4)]),
    "p6": (6, _path(6)),
    "c6": (6, _cycle(6)),
    "k33": (6, _biclique(3, 3)),
    "prism": (6, _cycle(3) + [(3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "k15": (6, _biclique(1, 5)),
    "k24": (6, _biclique(2, 4)),
    "octahedron": (6, [e for e in _clique(6) if e not in ((0, 1), (2, 3), (4, 5))]),
    "wheel5": (6, _cycle(5) + [(i, 5) for i in range(5)]),
    "k6": (6, _clique(6)),
    "p7": (7, _path(7)),
    "c7": (7, _cycle(7)),
    "wheel6": (7, _cycle(6) + [(i, 6) for i in range(6)]),
    "k25": (7, _biclique(2, 5)),
    "k34": (7, _biclique(3, 4)),
    "p8": (8, _path(8)),
    "c8": (8, _cycle(8)),
    "ladder4": (8, _path(4) + [(u + 4, v + 4) for u, v in _path(4)] + [(i, i + 4) for i in range(4)]),
    "k17": (8, _biclique(1, 7)),
    "p9": (9, _path(9)),
    "c9": (9, _cycle(9)),
    "spider9": (9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]),
    "p10": (10, _path(10)),
    "c10": (10, _cycle(10)),
    "k19": (10, _biclique(1, 9)),
}
# Literature values of the separation dimension checked on top of the brute force.
LITERATURE = {"c4": 2, "k4": 3}
CANONICAL_SIZES = [5, 6, 7]
HARNESS_N = 3


def k_degenerate(n: int, k: int, rng: random.Random, spread: int = 1):
    """Vertex i joins min(i, k) random earlier vertices, so the degeneracy is
    exactly k (n > k); ids are a sample of range(spread * n)."""
    ids = rng.sample(range(spread * n), n) if spread > 1 else list(range(n))
    edges = set()
    for i in range(1, n):
        for j in rng.sample(range(i), min(k, i)):
            edges.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    return sorted(ids), sorted(edges)


def random_tree(n: int, rng: random.Random):
    return list(range(n)), sorted((rng.randrange(i), i) for i in range(1, n))


def relabel(n: int, edges, rng: random.Random):
    """The shape on n vertices under a seeded, order-keeping map onto ids in
    range(1, 10 n + 1)."""
    ids = sorted(rng.sample(range(1, 10 * n + 1), n))
    return sorted(ids), sorted((min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in edges)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _graph_op(workdir, name, vertices, edges, command, extra=(), **info):
    graph = _write(os.path.join(workdir, f"{name}.txt"), ref.edge_list_text(vertices, edges))
    argv = [command, graph, *extra, "--format", "structured"]
    return {"name": name, "kind": command, "argv": argv, "graph": graph,
            "n": len(vertices), "m": len(edges), **info}


def _starcover(seed, workdir):
    ops = []
    for i, (n, k) in enumerate(STARCOVER_SHAPES):
        vertices, edges = k_degenerate(n, k, random.Random(seed * 1000 + i), ID_SPREAD)
        name = f"sc{i:02d}-n{n}-k{k}"
        out = os.path.join(workdir, f"{name}.family.json")
        ops.append(_graph_op(workdir, name, vertices, edges, "bound-degenerate",
                             ["--out", out], out=out, k=k))
    return ops


def _verify(seed, workdir):
    ops = []
    for i, n in enumerate(VERIFY_SIZES):
        vertices, edges = k_degenerate(n, 3, random.Random(seed * 1000 + i))
        orders = ref.suitable_random_family(vertices, edges, np.random.default_rng([seed, i]),
                                            size=VERIFY_MEMBERS)
        for part, members in (("full", orders), ("half", orders[: len(orders) // 2])):
            name = f"vf{i:02d}-n{n}-{part}"
            doc = {"n": len(vertices), "ground_set": vertices, "permutations": members,
                   "seed": seed, "generator": "bench-random"}
            family = _write(os.path.join(workdir, f"{name}.family.json"),
                            json.dumps(doc, separators=(",", ":")) + "\n")
            ops.append(_graph_op(workdir, name, vertices, edges, "verify", [family], family=family))
    return ops


def _subdivision(seed, workdir):
    graphs = [k_degenerate(n, 3, random.Random(seed * 1000 + i)) for i, n in enumerate(SUBDIVISION_SIZES)]
    graphs.append(random_tree(SUBDIVISION_TREE, random.Random(seed * 1000 + len(graphs))))
    ops = []
    for i, (vertices, edges) in enumerate(graphs):
        name = f"sd{i:02d}-n{len(vertices)}"
        out = os.path.join(workdir, f"{name}.family.json")
        ops.append(_graph_op(workdir, name, vertices, edges, "bound-subdivision",
                             ["--out", out], out=out))
    return ops


def _exact(seed, workdir):
    ops = []
    for i, (name, (n, edges)) in enumerate(EXACT_SHAPES.items()):
        v, e = relabel(n, edges, random.Random(seed * 1000 + i))
        info = {"literature": LITERATURE[name]} if name in LITERATURE else {}
        ops.append(_graph_op(workdir, f"ex-{name}", v, e, "exact", **info))
    for n in CANONICAL_SIZES:
        ops.append({"name": f"cd-n{n}", "kind": "canonical-dim", "n": n,
                    "argv": ["canonical-dim", str(n), "--format", "structured"]})
    ops.append({"name": f"lh-n{HARNESS_N}", "kind": "lower-harness", "n": HARNESS_N,
                "argv": ["lower-harness", str(HARNESS_N), "--format", "structured"]})
    return ops


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of `workload` for `seed` into `workdir`; return one pass of ops."""
    os.makedirs(workdir, exist_ok=True)
    return {"starcover": _starcover, "verify": _verify,
            "subdivision": _subdivision, "exact": _exact}[workload](seed, workdir)
