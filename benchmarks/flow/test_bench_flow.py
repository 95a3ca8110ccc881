"""Tests of the flow benchmark's own machinery, on tiny designs.

    PYTHONPATH=src python -m pytest benchmarks/flow -q
"""

import copy
import time

import numpy as np
import pytest

import bench_flow
import checks
import compare
import tracing
from repro.core.flow import FlowOptions
from repro.netlist import build_library, registered_cloud
from repro.orchestrate import resilience
from repro.tech import get_node

LIB = build_library(get_node("28nm"))


@pytest.fixture(scope="module")
def traced():
    """A tiny default flow run under the Tracer."""
    design = registered_cloud(8, 16, 300, LIB, seed=1)
    original = resilience.run
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        result = resilience.run(design, LIB, FlowOptions(cts=True))
        t1 = time.perf_counter()
    assert resilience.run is original
    tracer.spans.append(tracing.TraceSpan("op", t0, t1))
    return result, tracing.span_tree(tracer.spans), tracer, t1 - t0


def test_checks_accept_flow_outputs(traced):
    result = traced[0]
    assert checks.placement_legal(result.placement) == []
    assert checks.routing_connected(result.placement, result.routing) == []
    assert checks.delay_matches_scalar(result, LIB) == []


def test_overlapping_placement_rejected(traced):
    placement = copy.copy(traced[0].placement)
    placement.positions = dict(placement.positions)
    a, b = sorted(placement.positions)[:2]
    placement.positions[b] = placement.positions[a]
    assert any("overlaps" in p for p in checks.placement_legal(placement))


def test_broken_route_path_rejected(traced):
    result = traced[0]
    routing = copy.copy(result.routing)
    routing.paths = dict(routing.paths)
    net, segs = next((n, s) for n, s in routing.paths.items()
                     if any(len(p) >= 3 for p in s))
    segs = [np.asarray(p) for p in segs]
    i = next(k for k, p in enumerate(segs) if len(p) >= 3)
    segs[i] = np.delete(segs[i], 1, axis=0)      # a gap in the walk
    routing.paths[net] = segs
    problems = checks.routing_connected(result.placement, routing)
    assert any("4-connected" in p for p in problems)


def _results(samples):
    return {"workloads": {"w": {"metrics": {
        "flow_s": bench_flow.stats(samples)}}}}


def test_compare_flags_slowdown():
    spec = {"end_to_end": [{"name": "flow_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    [same] = compare.compare(_results(base), _results(base), spec)
    [slow] = compare.compare(_results(base),
                             _results([1.2 * s for s in base]), spec)
    [noisy] = compare.compare(_results(base),
                              _results([1.0, 1.5, 0.7, 1.3, 0.9]),
                              spec)
    assert same["verdict"] == "pass"
    assert slow["verdict"] == "FAIL"
    assert slow["worse"] == pytest.approx(0.2)
    assert noisy["verdict"] == "unresolved"


def test_layer_spans_nest_inside_stage_spans(traced):
    _, spans, tracer, op_s = traced
    layers = ("synthesis", "place", "route", "timing", "power")

    def ancestors(span):
        while span.parent is not None:
            span = spans[span.parent]
            yield span.name

    checked = 0
    for span in spans:
        if span.name.split(".")[0] in layers \
                and span.name != "place.total_hpwl":   # FlowResult's own
            assert any(a.startswith("stage.") for a in ancestors(span)), \
                span.name
            checked += 1
        if span.name.startswith("stage."):
            assert spans[span.parent].name == "orchestrate.run"
    assert checked >= 8
    assert {"place.solve", "route.expand"} <= {s.name for s in spans}

    metrics = tracing.layer_metrics(spans, tracer.counters, op_s)
    staged = sum(v for k, v in metrics.items() if k.startswith("stage."))
    assert staged + metrics["orchestrate.unattributed_s"] == \
        pytest.approx(op_s)
    assert all(s.self_s >= -1e-6 for s in spans)
