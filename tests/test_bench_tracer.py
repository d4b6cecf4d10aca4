"""The benchmark's tracer (bench/layers.py) against the package: every
name it wraps must exist with the kind it expects, and uninstalling must
put every original back.  A renamed, deleted or re-kinded wrapped name
fails here instead of in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import sepdim.cli  # noqa: F401  (loads every sepdim module the tracer patches)
from sepdim.graphs import Graph

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _namespaces(layers):
    """Every namespace the tracer may patch: the sepdim modules, and the
    classes that own its dotted targets."""
    spaces = [m for name, m in sys.modules.items() if name == "sepdim" or name.startswith("sepdim.")]
    for _, module, attr, _ in layers.TARGETS:
        if "." in attr:
            spaces.append(getattr(sys.modules[module], attr.split(".")[0]))
    return spaces


def test_install_wraps_every_target_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spaces = _namespaces(layers)
    before = [dict(vars(space)) for space in spaces]
    tracer = layers.Tracer()
    try:
        tracer.install()
        for _, module, attr, _ in layers.TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, member = attr.split(".")
                owner, attr = getattr(owner, cls_name), member
            assert vars(owner)[attr] is not before[spaces.index(owner)][attr], attr
        # a traced call reaches the wrapper and its counter
        tracer.begin_op("probe")
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        order = sys.modules["sepdim.posets"].interval_order_from(g, (1, 2, 3))
        tracer.end_op(0.0)
        assert tracer.ops[0]["counts"]["posets.intervals"] == len(order) == 3
    finally:
        tracer.uninstall()
    for space, old in zip(spaces, before):
        now = vars(space)
        assert now.keys() == old.keys(), space
        changed = [name for name in old if now[name] is not old[name]]
        assert not changed, (space, changed)
