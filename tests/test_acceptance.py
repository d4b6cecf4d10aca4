"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time

from sepdim.exact import exact_separation_dimension
from sepdim.families import (
    PermutationFamily,
    verify_k_suitable,
    verify_pairwise_suitable,
)
from sepdim.graphs import Graph, check_star_forest, degeneracy_order, star_forest_decomposition
from sepdim.lowerbound import (
    common_monotone_subset,
    extraction_floor,
    lower_bound_harness,
)
from sepdim.posets import (
    canonical_interval_order,
    exact_poset_dimension,
    is_linear_extension,
    is_realizer,
)
from sepdim.starcover import certify_star_cover, degenerate_family, random_k_degenerate_graph
from sepdim.subdivided import colored_subdivision_family
from sepdim.suitable3 import build_3_suitable_for


def _report(name: str, failures: list, started: float) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] {name} ({time.time() - started:.1f}s)")
    assert not failures, f"{name}: {failures[:5]}"


def complete(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle(n):
    return Graph.from_edges([(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def test_criterion_1_degenerate_pipeline():
    """Star-cover families verify and meet the 2*s*r <= 4*k*r size formula."""
    started = time.time()
    failures = []
    for k in (1, 2, 3):
        for n in (10, 100, 1000):
            for trial in range(20):
                seed = 10_000 * k + 100 * n + trial
                g = random_k_degenerate_graph(n, k, seed=seed)
                per_graph = time.time()
                result = degenerate_family(g)
                size = len(result.family)
                expected = 2 * result.forest_count * result.base_size
                bound = 4 * k * result.base_size
                if size != expected or size > bound:
                    failures.append((k, n, trial, "size", size, expected, bound))
                    continue
                try:
                    certify_star_cover(g, result)
                except AssertionError as exc:
                    failures.append((k, n, trial, "certificate", str(exc)))
                witness = verify_pairwise_suitable(result.family, g)
                if not witness.ok:
                    failures.append((k, n, trial, "verify", witness.counterexample))
                if time.time() - per_graph > 60:
                    failures.append((k, n, trial, "runtime"))
    _report("criterion 1: degenerate-cover pipeline", failures, started)


def test_criterion_2_exact_ground_truth():
    """Frozen small values and subgraph monotonicity of the exact solver."""
    started = time.time()
    failures = []
    golden = [(complete(3), 0), (path(4), 1), (cycle(4), 2), (complete(4), 3), (complete(5), 3)]
    for g, expected in golden:
        result = exact_separation_dimension(g, limit=5)
        if result.dimension != expected:
            failures.append(("golden", g.num_vertices, g.num_edges, result.dimension, expected))
        elif result.witness is not None and not verify_pairwise_suitable(result.witness, g).ok:
            failures.append(("witness", expected))
    # exhaustive single-permutation refutation for C4
    from itertools import permutations as iperm
    from sepdim.families import separates, disjoint_edge_pairs

    c4 = cycle(4)
    pairs = list(disjoint_edge_pairs(c4))
    if any(
        all(separates(order, e, f) for e, f in pairs)
        for order in iperm(c4.vertices)
    ):
        failures.append(("c4 single-permutation refutation",))
    # monotonicity over single-deletion subgraphs of 50 random graphs
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        edges = {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(2, n * (n - 1) // 2))
        }
        g = Graph.build(range(1, n + 1), edges)
        pi = exact_separation_dimension(g, limit=5).dimension
        subgraphs = [
            Graph.build(set(g.vertices) - {v}, [e for e in g.edges if v not in e])
            for v in g.vertices
        ]
        subgraphs += [Graph.build(g.vertices, set(g.edges) - {e}) for e in g.edges]
        for sub in subgraphs:
            if exact_separation_dimension(sub, limit=5).dimension > pi:
                failures.append(("monotone", seed))
                break
    _report("criterion 2: exact separation dimension", failures, started)


def test_criterion_3_canonical_interval_order():
    """dim(C_n) for n=2..7 against the log-log bound and brute-force oracles."""
    started = time.time()
    failures = []
    import math

    expected_dims = {2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3}
    for n in range(2, 8):
        p = canonical_interval_order(n)
        res = exact_poset_dimension(p, limit=4)
        if res.dimension != expected_dims[n]:
            failures.append(("dim", n, res.dimension))
            continue
        if not is_realizer(res.realizer, p):
            failures.append(("realizer", n))
        if n >= 3:
            bound = math.log2(math.log2(n - 1)) if n - 1 > 1 else 0.0
            if res.dimension < bound:
                failures.append(("loglog bound", n, res.dimension, bound))
    # independent brute force for the two smallest orders
    from itertools import combinations_with_replacement, permutations as iperm

    for n, expected in ((2, 1), (3, 2)):
        p = canonical_interval_order(n)
        exts = [o for o in iperm(p.elements) if is_linear_extension(o, p)]
        brute = None
        for t in range(1, 4):
            if any(
                is_realizer(tuple(combo), p)
                for combo in combinations_with_replacement(exts, t)
            ):
                brute = t
                break
        if brute != expected:
            failures.append(("brute", n, brute))
    _report("criterion 3: canonical interval order", failures, started)


def test_criterion_4_subdivision_pipeline():
    """Lifted families for 100 random subdivided graphs verify with the
    stated size and height bounds; C4 gives exactly 3."""
    started = time.time()
    failures = []
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        edges = {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(1, 2 * n))
        }
        g = Graph.build(range(1, n + 1), edges)
        try:
            result = colored_subdivision_family(g)
        except AssertionError as exc:
            failures.append((seed, "pipeline", str(exc)))
            continue
        if g.edges and len(result.family) != result.realizer_size + 2:
            failures.append((seed, "size"))
        if result.interval_height > result.num_classes - 1:
            failures.append((seed, "height"))
        witness = verify_pairwise_suitable(result.family, result.subdivided)
        if not witness.ok:
            failures.append((seed, "verify", witness.counterexample))
    c4 = colored_subdivision_family(cycle(4))
    if len(c4.family) != 3:
        failures.append(("c4 size", len(c4.family)))
    _report("criterion 4: subdivision pipeline", failures, started)


def test_criterion_5_lower_bound_harness():
    """Exact-optimal families on K_3^{1/2} and K_4^{1/2} drive the full
    extraction: floor met, suitability preserved, realizer accepted."""
    started = time.time()
    failures = []
    for n in (3, 4):
        rep = lower_bound_harness(n)
        if not rep.exact or rep.pi is None:
            failures.append((n, "exact stage"))
            continue
        floor = extraction_floor(n, rep.pi)
        if rep.floor != floor:
            failures.append((n, "floor", rep.floor, floor))
        if rep.normalized is None or rep.realizer is None:
            failures.append((n, "extraction missing"))
            continue
        p = len(rep.subset.vertices)
        if not is_realizer(rep.realizer, canonical_interval_order(p)):
            failures.append((n, "realizer invalid"))
        dim = exact_poset_dimension(canonical_interval_order(p), limit=4).dimension
        if rep.pi < dim:
            failures.append((n, "bound", rep.pi, dim))
        if rep.canonical_dimension != dim:
            failures.append((n, "report bound fields"))
    _report("criterion 5: lower-bound harness", failures, started)


def test_criterion_6_erdos_szekeres():
    """200 seeded permutation pairs of [m^2+1] share a monotone (m+1)-set."""
    started = time.time()
    failures = []
    for m in (3, 4, 5):
        size = m * m + 1
        for trial in range(200):
            rng = random.Random(m * 100_000 + trial)
            a = list(range(size))
            b = list(range(size))
            rng.shuffle(a)
            rng.shuffle(b)
            fam = PermutationFamily.build(range(size), [a, b])
            res = common_monotone_subset(fam, range(size))
            if len(res.vertices) < m + 1:
                failures.append((m, trial, len(res.vertices)))
    _report("criterion 6: Erdos-Szekeres extraction", failures, started)


def test_criterion_7_structural_decompositions():
    """Star forest partitions on 100 graphs; 3-suitable families verify."""
    started = time.time()
    failures = []
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 200)
        edges = {
            tuple(sorted(rng.sample(range(n), 2)))
            for _ in range(rng.randint(0, 2 * n))
        }
        g = Graph.build(range(n), edges)
        d = degeneracy_order(g)
        forests = star_forest_decomposition(g, d)
        if len(forests) > 2 * d.k:
            failures.append((seed, "count", len(forests), d.k))
        # each leaf's edge to its root, as a pair of positions
        covered = [
            (min(v, r), max(v, r)) for f in forests for v, r in enumerate(f.tolist()) if v != r
        ]
        edges = set(map(tuple, g.edge_positions.tolist()))
        if len(covered) != len(set(covered)) or set(covered) != edges:
            failures.append((seed, "partition"))
        for f in forests:
            try:
                check_star_forest(g, f)
            except ValueError as exc:
                failures.append((seed, "structure", str(exc)))
                break
    for n in (2, 3, 4, 5, 8, 16, 32, 48, 64):
        res = build_3_suitable_for(range(1, n + 1))
        if not verify_k_suitable(res.family, 3):
            failures.append(("3-suitable", n))
    # N(n,3) for n = 1..6, the sizes of the minimum table
    for n, size in enumerate((0, 0, 3, 3, 4, 4), start=1):
        built = len(build_3_suitable_for(range(1, n + 1)).family)
        if built != size:
            failures.append(("N(n,3) golden", n, built))
    _report("criterion 7: structural decompositions", failures, started)
