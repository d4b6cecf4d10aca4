"""Batch command line: constructions, verification, exact solvers, reports.

Exit codes: 0 success / verified Ok, 1 verification counterexample,
2 input error, 3 budget or size-guard exceeded or memory exhausted, 4
internal error (a self-check of a construction failed, or any other
unexpected exception; one `internal error:` line on stderr).  Each
`cmd_*` fills the report `main` hands it and returns an exit code;
`main` then writes the report to stdout and one `elapsed:` line to
stderr.  An exception becomes one error line on stderr and no
report.  Reports are byte identical across runs with the same inputs;
wall-clock time goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from .exact import (
    DEFAULT_BUDGET,
    SEARCH_VERTEX_MAX,
    SearchBudgetExceeded,
    exact_separation_dimension,
)
from .families import (
    family_from_json,
    family_json_parts,
    verify_pairwise_suitable,
)
from .graphs import load_graph, serialize_graph, subdivision_mids
from .lowerbound import canonical_dimension_lower_bound, lower_bound_harness
from .posets import (
    canonical_interval_order,
    exact_poset_dimension,
)
from .starcover import certify_star_cover, degenerate_family
from .subdivided import colored_subdivision_family

OK, COUNTEREXAMPLE, INPUT_ERROR, BUDGET, INTERNAL_ERROR = 0, 1, 2, 3, 4
CANONICAL_DIM_GUARD = 8
LOWER_HARNESS_GUARD = 64


class Report:
    """Flat, deterministic key/value report."""

    def __init__(self, command: str):
        self.items: list[tuple[str, object]] = [("command", command)]

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            return json.dumps(dict(self.items), sort_keys=True, separators=(",", ":")) + "\n"
        return "".join(f"{k}: {v}\n" for k, v in self.items)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read(path: str, report: Report, key: str) -> str:
    """The UTF-8 text of `path`; its digest goes into the report under `key`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    report.add(key, _digest(raw))
    return raw.decode("utf-8")


def _write(path: str, parts, report: Report, key: str) -> None:
    """Write the text `parts` to `path`, one by one, and name the file in
    the report under `key`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)
    report.add(key, path)


def _witness_str(witness) -> str:
    if witness.ok:
        return "ok"
    e, f = witness.counterexample
    return f"counterexample {e[0]}-{e[1]} | {f[0]}-{f[1]}"


def cmd_bound_degenerate(args, report: Report) -> int:
    g = load_graph(_read(args.graph, report, "input_digest"))
    result = degenerate_family(g)
    certify_star_cover(g, result)
    report.add("vertices", g.num_vertices)
    report.add("edges", g.num_edges)
    report.add("degeneracy", result.degeneracy)
    report.add("star_forests", result.forest_count)
    report.add("base_family_size", result.base_size)
    report.add("base_generator", result.base.generator)
    report.add("family_size", len(result.family))
    report.add("size_bound_4kr", 4 * result.degeneracy * result.base_size)
    report.add("verification", "certificate")
    report.add("verdict", "ok")
    if args.out:
        parts = family_json_parts(
            result.family, generator="star-cover",
            extra={
                "star_forests": result.forest_count,
                "base_family_size": result.base_size,
                "degeneracy": result.degeneracy,
            },
        )
        _write(args.out, parts, report, "family_file")
    return OK


def cmd_bound_subdivision(args, report: Report) -> int:
    g = load_graph(_read(args.graph, report, "input_digest"))
    result = colored_subdivision_family(g)
    witness = verify_pairwise_suitable(result.family, result.subdivided)
    report.add("vertices", g.num_vertices)
    report.add("edges", g.num_edges)
    report.add("subdivided_vertices", result.subdivided.num_vertices)
    report.add("color_classes", result.num_classes)
    report.add("interval_height", result.interval_height)
    # |F|, the lifted members; readers of the report (the benchmark
    # checks among them) expect family_size == realizer_size + 2
    report.add("realizer_size", result.realizer_size)
    report.add("base_generator", result.base.generator)
    report.add("family_size", len(result.family))
    c = result.num_classes
    if c >= 3:
        report.add("bound_loglog_classes", f"{math.log2(math.log2(c - 1)) + 2:.4f}")
    report.add("verification", "exhaustive")
    report.add("verdict", _witness_str(witness))
    if args.out:
        parts = family_json_parts(
            result.family, generator="subdivision-lift",
            extra={"realizer_size": result.realizer_size},
        )
        _write(args.out, parts, report, "family_file")
        mapping = {
            "original_vertices": list(g.vertices),
            "mids": [[u, v, m] for (u, v), m in zip(g.edges, subdivision_mids(g))],
        }
        _write(args.out + ".subdivision.json",
               [json.dumps(mapping, sort_keys=True, separators=(",", ":")) + "\n"],
               report, "subdivision_file")
        _write(args.out + ".subdivided.txt", [serialize_graph(result.subdivided)],
               report, "subdivided_graph_file")
    return OK if witness.ok else COUNTEREXAMPLE


def cmd_exact(args, report: Report) -> int:
    g = load_graph(_read(args.graph, report, "input_digest"))
    result = exact_separation_dimension(g, limit=args.limit, budget=args.budget)
    report.add("limit", args.limit)
    if result.dimension is None:
        report.add("separation_dimension", "exceeded")
    else:
        report.add("separation_dimension", result.dimension)
        for i, order in enumerate(result.witness.id_orders()):
            report.add(f"witness_{i}", " ".join(map(str, order)))
    report.add("nodes", result.nodes)
    return OK


def cmd_verify(args, report: Report) -> int:
    g = load_graph(_read(args.graph, report, "input_digest"))
    fam, _fields = family_from_json(_read(args.family, report, "family_digest"))
    witness = verify_pairwise_suitable(fam, g)
    report.add("family_size", len(fam))
    report.add("verdict", _witness_str(witness))
    return OK if witness.ok else COUNTEREXAMPLE


def cmd_canonical_dim(args, report: Report) -> int:
    n = args.n
    if n > CANONICAL_DIM_GUARD:
        raise SearchBudgetExceeded(
            f"canonical-dim is desk-scale only (n <= {CANONICAL_DIM_GUARD})"
        )
    order = canonical_interval_order(n)
    result = exact_poset_dimension(order, limit=args.limit, budget=args.budget)
    report.add("input_digest", _digest(str(n).encode()))
    report.add("n", n)
    report.add("elements", len(order))
    if result.dimension is None:
        report.add("dimension", "exceeded")
    else:
        report.add("dimension", result.dimension)
        for i, ext in enumerate(result.realizer):
            report.add(f"extension_{i}", " ".join(f"({a},{b})" for a, b in ext))
    report.add("lower_bound_loglog", canonical_dimension_lower_bound(n))
    return OK


def cmd_lower_harness(args, report: Report) -> int:
    n = args.n
    if n > LOWER_HARNESS_GUARD:
        raise SearchBudgetExceeded(
            f"lower-harness is desk-scale only (n <= {LOWER_HARNESS_GUARD})"
        )
    rep = lower_bound_harness(n, budget=args.budget)
    report.add("input_digest", _digest(str(n).encode()))
    report.add("n", n)
    report.add("mode", "exact" if rep.exact else "construction-only")
    if rep.pi is not None:
        report.add("separation_dimension", rep.pi)
    if rep.family is not None:
        report.add("family_size", len(rep.family))
    if rep.subset is not None:
        report.add("subset_size", len(rep.subset.vertices))
        report.add("subset", " ".join(map(str, rep.subset.vertices)))
        report.add("floor", rep.floor)
        # lower_bound_harness raises when the floor or the bound fails
        report.add("floor_met", True)
        report.add("realizer_valid", rep.realizer is not None)
        if rep.canonical_dimension is not None:
            report.add("canonical_dimension", rep.canonical_dimension)
        report.add("canonical_lower_bound", rep.canonical_lower_bound)
        report.add("bound_holds", True)
    if not rep.exact:
        print(f"exact stage skipped: K_{n}^(1/2) has more than {SEARCH_VERTEX_MAX} vertices",
              file=sys.stderr)
        return BUDGET
    return OK


def _budget(text: str) -> int:
    """A `--budget` value.  argparse refuses anything but an integer
    >= 0 with exit 2, before any file is read or any search runs."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdim",
        description="Pairwise-suitable permutation families and separation dimension.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def options(p, budget=False):
        if budget:
            p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                           help="node-expansion cap for exact searches")
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("bound-degenerate", help="star-forest family for a k-degenerate graph")
    p.add_argument("graph")
    p.add_argument("--out", help="write the family file here")
    options(p)
    p.set_defaults(func=cmd_bound_degenerate)

    p = sub.add_parser("bound-subdivision", help="family for the fully subdivided graph, lifted from a "
                       "3-suitable family over the colour classes")
    p.add_argument("graph")
    p.add_argument("--out", help="write the family file here")
    options(p)
    p.set_defaults(func=cmd_bound_subdivision)

    p = sub.add_parser("exact", help="exact separation dimension (desk scale)")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=4)
    options(p, budget=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="verify a family file against a graph")
    p.add_argument("graph")
    p.add_argument("family")
    options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("canonical-dim", help="exact dimension of the canonical interval order")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=4)
    options(p, budget=True)
    p.set_defaults(func=cmd_canonical_dim)

    p = sub.add_parser("lower-harness", help="subdivided-clique lower-bound extraction")
    p.add_argument("n", type=int)
    options(p, budget=True)
    p.set_defaults(func=cmd_lower_harness)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report, started = Report(args.cmd), time.monotonic()
    try:
        code = args.func(args, report)
        sys.stdout.write(report.render(args.format))
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
        return code
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return BUDGET
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
