"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces each traced public function of `sepdim` by a
wrapper in every `sepdim` module namespace that refers to it (and
replaces traced methods on their classes), so the pipeline's own name
lookups reach the wrapper.  `uninstall()` puts the originals back.  A
wrapper records one span per call: its metric name, start, end and the
enclosing span.  A span's self time is its duration minus the time of
the spans nested directly in it; the op time no span covers is
`cli.self_s`.  Counters are read from the arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import reference as ref

MIB = 1 << 20


def _graph_size(t, result, args):
    t.add("graphs.vertices", result.num_vertices)
    t.add("graphs.edges", result.num_edges)


def _degeneracy(t, result, args):
    t.maximum("graphs.degeneracy", result.k)


def _star_forests(t, result, args):
    t.add("starcover.star_forests", len(result))


def _coloring(t, result, args):
    g = args[0]
    t.colorings.append((g.vertices, g.edges, dict(result)))


def _base_size(t, result, args):
    t.add("suitable3.base_size", len(result.family))


def _sigma_call(t, result, args):
    t.add("starcover.construct_sigma_calls", 1)


def _rank_matrix(t, result, args):
    t.add("families.rank_matrix_mb", result.nbytes / MIB)


def _pairs_exhaustive(t, result, args):
    pairs = ref.count_disjoint_pairs(args[1].edges)
    t.add("families.pairs_checked", pairs)
    if t.inside("families.verify_sampled_s"):
        t.sample_fell_back = True  # the sampled check ran this exhaustive one instead
    else:
        t.add("families.pairs_total", pairs)


def _pairs_sampled(t, result, args):
    t.add("families.pairs_total", ref.count_disjoint_pairs(args[1].edges))
    if not t.sample_fell_back:
        t.add("families.pairs_checked", args[2])
    t.sample_fell_back = False


def _intervals(t, result, args):
    t.add("posets.intervals", len(result))


def _height(t, result, args):
    t.maximum("posets.interval_height", result)


def _realizer(t, result, args):
    t.add("posets.realizer_size", len(result))


def _poset_dimension(t, result, args):
    if result.realizer is not None:
        t.add("posets.realizer_size", len(result.realizer))
    t.add("posets.dimension_nodes", result.nodes)


def _search_nodes(t, result, args):
    t.add("exact.nodes", result.nodes)


# (metric, module, attribute, counter).  One metric may gather several
# functions; a dotted attribute is a method or property of a class.
TARGETS = [
    ("graphs.load_graph_s", "sepdim.graphs", "load_graph", _graph_size),
    ("graphs.degeneracy_order_s", "sepdim.graphs", "degeneracy_order", _degeneracy),
    ("graphs.star_forest_decomposition_s", "sepdim.graphs", "star_forest_decomposition", _star_forests),
    ("graphs.greedy_coloring_s", "sepdim.graphs", "greedy_coloring", _coloring),
    ("graphs.subdivide_s", "sepdim.graphs", "subdivide", None),
    ("suitable3.build_3_suitable_s", "sepdim.suitable3", "build_3_suitable_for", _base_size),
    ("starcover.degenerate_family_s", "sepdim.starcover", "degenerate_family", None),
    ("starcover.construct_sigma_s", "sepdim.starcover", "construct_sigma", _sigma_call),
    ("families.family_build_s", "sepdim.families", "PermutationFamily.build", None),
    ("families.rank_matrix_s", "sepdim.families", "PermutationFamily.rank_matrix", _rank_matrix),
    ("families.verify_exhaustive_s", "sepdim.families", "verify_pairwise_suitable", _pairs_exhaustive),
    ("families.verify_sampled_s", "sepdim.families", "verify_pairwise_suitable_sampled", _pairs_sampled),
    ("families.family_to_json_s", "sepdim.families", "family_to_json", None),
    ("families.family_from_json_s", "sepdim.families", "family_from_json", None),
    ("posets.interval_order_s", "sepdim.posets", "interval_order_from", _intervals),
    ("posets.poset_closure_s", "sepdim.posets", "Poset.build", None),
    ("posets.height_s", "sepdim.posets", "height", _height),
    ("posets.realizer_s", "sepdim.posets", "realizer_heuristic", _realizer),
    ("posets.realizer_s", "sepdim.posets", "exact_poset_dimension", _poset_dimension),
    ("posets.is_realizer_s", "sepdim.posets", "is_realizer", None),
    ("subdivided.subdivision_family_s", "sepdim.subdivided", "subdivision_family", None),
    ("subdivided.colored_subdivision_family_s", "sepdim.subdivided", "colored_subdivision_family", None),
    ("exact.search_s", "sepdim.exact", "exact_separation_dimension", _search_nodes),
]

TIME_METRICS = sorted({metric for metric, *_ in TARGETS}) + ["cli.self_s"]
COUNT_METRICS = {
    "graphs.vertices": "count", "graphs.edges": "count", "graphs.degeneracy": "count",
    "suitable3.base_size": "count",
    "starcover.construct_sigma_calls": "count", "starcover.star_forests": "count",
    "families.pairs_total": "count", "families.pairs_checked": "count",
    "families.rank_matrix_mb": "MiB",
    "posets.intervals": "count", "posets.interval_height": "count",
    "posets.realizer_size": "count", "posets.dimension_nodes": "count",
    "exact.nodes": "count",
}


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent id (-1: none)
        self.ops: list[dict] = []
        self._op: dict | None = None
        self.colorings: list = []
        self.sample_fell_back = False
        self.exact_inclusive_s = 0.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "sepdim" or name.startswith("sepdim.")]
        for metric, module, attr, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, staticmethod):
                    new = staticmethod(self._wrap(metric, original.__func__, counter))
                else:  # cached_property
                    new = functools.cached_property(self._wrap(metric, original.func, counter))
                    new.__set_name__(cls, member)
                self._patch(cls, member, new)
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, self._wrap(metric, original, counter))

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, metric, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            frame = [metric, [], len(tracer.spans)]  # name, child durations, span id
            tracer.spans.append(None)  # filled in on return; keeps span ids in call order
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, start, end, parent)
            if counter is not None:
                book = time.perf_counter()
                counter(tracer, result, args)
                tracer._exclude(time.perf_counter() - book)
            return result

        return wrapper

    def _close(self, frame, start, end, parent) -> None:
        metric, children, span_id = frame
        duration = end - start
        self.spans[span_id] = (metric, start, end, parent)
        self._op["self"][metric] += duration - sum(children)
        if self._stack:
            self._stack[-1][1].append(duration)
        else:
            self._op["covered_s"] += duration
        if metric == "exact.search_s" and not self.inside(metric):
            self.exact_inclusive_s += duration

    def _exclude(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of every layer's time."""
        if self._stack:
            self._stack[-1][1].append(seconds)
        else:
            self._op["overhead_s"] += seconds

    def inside(self, metric: str) -> bool:
        """Whether a span of `metric` is open around the current call."""
        return any(f[0] == metric for f in self._stack)

    def add(self, name: str, value) -> None:
        self._op["counts"][name] += value

    def maximum(self, name: str, value) -> None:
        counts = self._op["counts"]
        counts[name] = max(counts[name], value)

    def begin_op(self, name: str) -> None:
        self._op = {"name": name, "self": defaultdict(float), "counts": defaultdict(float),
                    "covered_s": 0.0, "overhead_s": 0.0}
        self.colorings = []

    def end_op(self, op_seconds: float) -> None:
        op = self._op
        op["cli_self_s"] = op_seconds - op["covered_s"] - op["overhead_s"]
        self.ops.append(op)
        self._op = None

    # -- results ---------------------------------------------------------------

    def per_layer(self) -> dict[str, dict]:
        """Every per-layer metric, as a mean per traced op."""
        n = len(self.ops)
        out = {}
        for metric in TIME_METRICS:
            if metric == "cli.self_s":
                total = sum(op["cli_self_s"] for op in self.ops)
            else:
                total = sum(op["self"].get(metric, 0.0) for op in self.ops)
            out[metric] = {"value": total / n, "unit": "s"}
        for metric, unit in COUNT_METRICS.items():
            out[metric] = {"value": sum(op["counts"].get(metric, 0) for op in self.ops) / n,
                           "unit": unit}
        nodes = sum(op["counts"].get("exact.nodes", 0) for op in self.ops)
        rate = nodes / self.exact_inclusive_s if self.exact_inclusive_s else 0.0
        out["exact.nodes_per_s"] = {"value": rate, "unit": "1/s"}
        return out
