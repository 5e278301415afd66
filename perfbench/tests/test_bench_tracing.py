"""The tracer: self-time arithmetic, counters, and putting functions back."""

from __future__ import annotations

import types

import pytest

import rep
from tracing import Target, Tracer, percentile


class TickClock:
    """Each reading is one unit later than the previous one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    ns = types.SimpleNamespace()
    ns.leaf = lambda: None
    ns.mid = lambda: (ns.leaf(), ns.leaf())
    ns.top = lambda: (ns.mid(), ns.leaf())
    targets = [Target(ns, "top", "top"), Target(ns, "mid", "mid"), Target(ns, "leaf", "leaf")]
    with Tracer(targets, clock=TickClock()) as tr:
        ns.top()
    # Clock readings: top 1..10; mid 2..7 holding leaves 3..4 and 5..6; a
    # third leaf 8..9 directly under top.
    stats = tr.stats()
    assert [stats[k]["calls"] for k in ("top", "mid", "leaf")] == [1, 1, 3]
    assert stats["leaf"]["s"] == 3.0 and stats["leaf"]["self_s"] == 3.0
    assert stats["mid"]["s"] == 5.0 and stats["mid"]["self_s"] == 3.0
    assert stats["top"]["s"] == 9.0 and stats["top"]["self_s"] == 3.0
    # Self times of all spans add up to the root span's duration.
    assert sum(tr.self_times()) == tr.root_time() == 9.0
    assert tr.parents == [-1, 0, 1, 1, 0]


def test_counter_hook_sees_result_and_parent():
    ns = types.SimpleNamespace(inner=lambda x: x * 2)
    ns.outer = lambda x: ns.inner(x) + 1
    seen = []

    def hook(result, counters, parent):
        seen.append((result, parent))
        counters["sum"] = counters.get("sum", 0) + result

    targets = [Target(ns, "outer", "outer"), Target(ns, "inner", "inner", hook)]
    with Tracer(targets) as tr:
        assert ns.outer(5) == 11
        assert ns.inner(1) == 2
    assert seen == [(10, "outer"), (2, None)]
    assert tr.counters == {"sum": 12}


def test_wrapped_functions_are_restored():
    from mislab import cli, engine, graphs, search

    before = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod in (engine, graphs, search, cli)
        for attr in ("has_clique", "count_k_mis", "exhaustive_m", "canonical_form")
        if hasattr(mod, attr)
    }
    from_edges = graphs.Graph.__dict__["from_edges"]
    with Tracer(rep._targets()) as tr:
        assert engine.has_clique is not before[("mislab.engine", "has_clique")]
        assert engine.has_clique is graphs.has_clique
        g = graphs.Graph.from_edges(3, [(0, 1), (1, 2)])
        assert engine.count_k_mis(g, 2) == 1
    assert {k: getattr(__import__(k[0], fromlist=["x"]), k[1]) for k in before} == before
    assert graphs.Graph.__dict__["from_edges"] is from_edges
    labels = [tr.labels[i] for i in tr.names]
    assert labels == ["graphs.Graph.from_edges", "engine.count_k_mis"]


def test_restored_after_an_exception():
    from mislab import engine

    original = engine.count_k_mis
    with pytest.raises(ValueError):
        with Tracer(rep._targets()) as tr:
            engine.count_k_mis(engine.Graph.empty(2), 5)
    assert engine.count_k_mis is original
    assert tr.ends[0] >= tr.starts[0] > 0


def test_layer_metrics_cover_every_declared_name():
    from mislab import engine, graphs

    with Tracer(rep._targets()) as tr:
        engine.count_all_mis(graphs.Graph.cycle(5))
    metrics = rep.layer_metrics(tr, wall=1.0)
    assert set(metrics) == set(rep.layer_units())
    assert metrics["engine.count_all_mis.calls"] == 1
    assert metrics["engine.mis_found"] == 5


def test_percentile_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 0.5) == 50.0
    assert percentile(xs, 0.99) == 99.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0
