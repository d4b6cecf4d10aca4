"""Checks of every op's output against the reference computations.

`check_op` re-derives what each command's report and files must say from
the input files alone, with `reference` (no `sepdim`), and returns a list
of problems (empty when the output is correct).
"""

from __future__ import annotations

import json

import reference as ref


def family_members(op: dict, doc: dict) -> int:
    """Members of the family (or realizer) an op's report describes."""
    if op["kind"] == "exact":
        dim = doc.get("separation_dimension")
        return dim if isinstance(dim, int) else 0
    if op["kind"] == "canonical-dim":
        return doc["dimension"]
    return doc["family_size"]


def output_files(op: dict) -> list[str]:
    """Files an op writes besides its report."""
    if op["kind"] == "bound-degenerate":
        return [op["out"]]
    if op["kind"] == "bound-subdivision":
        return [op["out"], op["out"] + ".subdivision.json", op["out"] + ".subdivided.txt"]
    return []


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph(op):
    return ref.parse_edge_list(_read(op["graph"]))


def _family_orders(path: str, ground) -> tuple[dict, list]:
    doc = json.loads(_read(path))
    if doc["ground_set"] != list(ground) or doc["n"] != len(ground):
        raise ValueError("family ground set differs from the graph's vertices")
    return doc, doc["permutations"]


def _verdict(counterexample) -> str:
    if counterexample is None:
        return "ok"
    (a, b), (c, d) = counterexample
    return f"counterexample {a}-{b} | {c}-{d}"


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _bound_degenerate(op, doc, problems):
    vertices, edges = _graph(op)
    k = ref.degeneracy(vertices, edges)
    _expect(problems, "vertices", doc["vertices"], len(vertices))
    _expect(problems, "edges", doc["edges"], len(edges))
    _expect(problems, "degeneracy", doc["degeneracy"], k)
    s, r, size = doc["star_forests"], doc["base_family_size"], doc["family_size"]
    _expect(problems, "family_size", size, 2 * s * r)
    _expect(problems, "size_bound_4kr", doc["size_bound_4kr"], 4 * k * r)
    if s > 2 * k or size > 4 * k * r:
        problems.append(f"{size} members from {s} star forests exceed 4kr = {4 * k * r}")
    fam, orders = _family_orders(op["out"], vertices)
    _expect(problems, "family file members", len(orders), size)
    for key in ("star_forests", "base_family_size", "degeneracy"):
        _expect(problems, f"family file {key}", fam[key], doc[key])
    _expect(problems, "verdict", doc["verdict"], "ok")
    _expect(problems, "exhaustive check", _verdict(ref.first_unseparated(vertices, edges, orders)), "ok")


def _bound_subdivision(op, doc, problems):
    vertices, edges = _graph(op)
    sub_vertices, sub_edges, mids = ref.subdivide(vertices, edges)
    _expect(problems, "vertices", doc["vertices"], len(vertices))
    _expect(problems, "edges", doc["edges"], len(edges))
    _expect(problems, "subdivided_vertices", doc["subdivided_vertices"], len(sub_vertices))
    mapping = json.loads(_read(op["out"] + ".subdivision.json"))
    _expect(problems, "subdivision map", mapping,
            {"original_vertices": vertices, "mids": [[u, v, m] for (u, v), m in mids]})
    _expect(problems, "subdivided graph", ref.parse_edge_list(_read(op["out"] + ".subdivided.txt")),
            (sub_vertices, sub_edges))
    classes, height = doc["color_classes"], doc["interval_height"]
    if edges and not 2 <= classes <= ref.degeneracy(vertices, edges) + 1:
        problems.append(f"{classes} color classes outside [2, degeneracy + 1]")
    if height > classes - 1:
        problems.append(f"interval height {height} exceeds color classes - 1 = {classes - 1}")
    _fam, orders = _family_orders(op["out"], sub_vertices)
    _expect(problems, "family_size", doc["family_size"], doc["realizer_size"] + 2)
    _expect(problems, "family file members", len(orders), doc["family_size"])
    _expect(problems, "verdict", doc["verdict"], "ok")
    _expect(problems, "exhaustive check",
            _verdict(ref.first_unseparated(sub_vertices, sub_edges, orders)), "ok")


def _verify(op, doc, rc, problems):
    vertices, edges = _graph(op)
    _fam, orders = _family_orders(op["family"], vertices)
    want = _verdict(ref.first_unseparated(vertices, edges, orders))
    _expect(problems, "family_size", doc["family_size"], len(orders))
    _expect(problems, "verdict", doc["verdict"], want)
    _expect(problems, "exit code", rc, 0 if want == "ok" else 1)


def _exact(op, doc, problems):
    vertices, edges = _graph(op)
    dim = doc["separation_dimension"]
    if not isinstance(dim, int):
        problems.append(f"no dimension within the limit: {dim!r}")
        return
    witness = [[int(v) for v in doc[f"witness_{i}"].split()] for i in range(dim)]
    if f"witness_{dim}" in doc:
        problems.append("more witness members than the dimension")
    _expect(problems, "witness check", _verdict(ref.first_unseparated(vertices, edges, witness)), "ok")
    if len(vertices) <= 7:
        _expect(problems, "brute-force dimension", dim, ref.separation_dimension(vertices, edges))
    if "literature" in op:
        _expect(problems, "literature dimension", dim, op["literature"])
    if not isinstance(doc["nodes"], int) or doc["nodes"] < 0:
        problems.append(f"bad node count {doc['nodes']!r}")


def _canonical_dim(op, doc, problems):
    n = op["n"]
    intervals = ref.canonical_intervals(n)
    _expect(problems, "elements", doc["elements"], len(intervals))
    _expect(problems, "dimension", doc["dimension"], ref.CANONICAL_DIMENSION[n])
    extensions = [ref.parse_extension(doc[f"extension_{i}"]) for i in range(doc["dimension"])]
    if not ref.is_interval_realizer(intervals, extensions):
        problems.append("extensions do not realize the canonical interval order")


def _lower_harness(op, doc, problems):
    n = op["n"]
    clique = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    sub_vertices, sub_edges, _ = ref.subdivide(list(range(1, n + 1)), clique)
    pi = ref.separation_dimension(sub_vertices, sub_edges)
    _expect(problems, "mode", doc["mode"], "exact")
    _expect(problems, "separation_dimension", doc["separation_dimension"], pi)
    _expect(problems, "family_size", doc["family_size"], pi)
    subset = [int(v) for v in doc["subset"].split()]
    _expect(problems, "subset_size", doc["subset_size"], len(subset))
    if not set(subset) <= set(range(1, n + 1)):
        problems.append(f"subset {subset} is not made of original vertices")
    _expect(problems, "canonical_dimension", doc["canonical_dimension"],
            ref.CANONICAL_DIMENSION[len(subset)])
    for key in ("realizer_valid", "bound_holds", "floor_met"):
        _expect(problems, key, doc[key], True)


def check_op(op: dict, rc: int, report: str) -> list[str]:
    """Problems with one op's exit code, report and files; empty when correct."""
    problems: list[str] = []
    doc = json.loads(report)
    if op["kind"] == "verify":
        _verify(op, doc, rc, problems)
        return problems
    _expect(problems, "exit code", rc, 0)
    {"bound-degenerate": _bound_degenerate, "bound-subdivision": _bound_subdivision,
     "exact": _exact, "canonical-dim": _canonical_dim,
     "lower-harness": _lower_harness}[op["kind"]](op, doc, problems)
    return problems


def check_coloring(vertices, edges, coloring: dict, classes: int) -> list[str]:
    """Problems with a coloring captured from the traced pipeline."""
    problems = []
    if not ref.is_proper_coloring(vertices, edges, coloring):
        problems.append("greedy coloring is not proper")
    _expect(problems, "color classes", len(set(coloring.values())), classes)
    return problems
