"""Tests for the batched router and the engine-selection registry.

Covers the PR-8 satellites: engine registry semantics (strict lookup,
FlowOptions construction-time validation), RoutingResult schema parity
across engines, hypothesis-driven both-engine parity (legal routes, overflow
no worse than maze, wirelength within 2%), bit-reproducibility of the
batched engine, and flow-level cache-key sensitivity to the
``routing_engine`` knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowOptions
from repro.engines import (
    UnknownEngineError,
    default_engine,
    engine_names,
    get_engine,
)
from repro.netlist import build_library, logic_cloud
from repro.orchestrate import ResultCache, TelemetrySink, run
from repro.place import global_place
from repro.route import ROUTE_SCHEMA_VERSION, route_placement
from repro.tech import get_node

LIB = build_library(get_node("28nm"))


def small_placement(gates=150, seed=0, utilization=0.35):
    nl = logic_cloud(8, 8, gates, LIB, seed=seed, locality=0.9)
    return global_place(nl, seed=seed, utilization=utilization)


def legal(result):
    """Every path is a chain of adjacent gcells inside the grid."""
    g = result.grid
    for segs in result.paths.values():
        for p in segs:
            arr = np.asarray(p)
            assert (arr[:, 0] >= 0).all() and (arr[:, 0] < g.nx).all()
            assert (arr[:, 1] >= 0).all() and (arr[:, 1] < g.ny).all()
            step = np.abs(np.diff(arr, axis=0)).sum(axis=1)
            assert (step == 1).all(), "non-adjacent hop in path"
    # The grid's committed usage agrees with the paths.
    edges = sum(len(p) - 1 for segs in result.paths.values()
                for p in segs)
    assert result.grid.wirelength() == edges == result.wirelength


# ----------------------------------------------------------------------
# Engine registry


class TestRegistry:
    def test_stages_and_defaults(self):
        assert "batched" in engine_names("routing")
        assert "maze" in engine_names("routing")
        assert "line_search" in engine_names("routing")
        assert default_engine("routing") == "batched"
        assert default_engine("placement") == "analytic"

    def test_unknown_engine_is_value_error_with_hint(self):
        with pytest.raises(UnknownEngineError, match="batched"):
            get_engine("routing", "bathced")
        assert issubclass(UnknownEngineError, ValueError)

    def test_flow_options_reject_typo_early(self):
        with pytest.raises(ValueError, match="routing_engine"):
            FlowOptions(routing_engine="mase")
        with pytest.raises(ValueError, match="place_engine"):
            FlowOptions(place_engine="analitic")

    def test_flow_options_validate_knob_values(self):
        with pytest.raises(ValueError, match="gcell_um"):
            FlowOptions(gcell_um=-1.0)
        with pytest.raises(ValueError, match="routing_layers"):
            FlowOptions(routing_layers=1)
        with pytest.raises(ValueError, match="utilization"):
            FlowOptions(utilization=0.0)


# ----------------------------------------------------------------------
# RoutingResult schema parity


class TestResultSchema:
    @pytest.mark.parametrize("engine", ["batched", "maze",
                                        "line_search"])
    def test_schema_fields(self, engine):
        res = route_placement(small_placement(), engine=engine,
                              gcell_um=2.0, max_iterations=2)
        assert res.schema_version == ROUTE_SCHEMA_VERSION
        assert res.engine == engine
        assert len(res.net_names) == len(res.paths)
        assert res.net_wirelength.dtype == np.int64
        assert res.net_overflow.dtype == np.int64
        assert int(res.net_wirelength.sum()) == res.wirelength
        assert res.summary().startswith(f"{engine}: wl=")
        legal(res)

    def test_batched_reports_phase_timings(self):
        res = route_placement(small_placement(), engine="batched",
                              gcell_um=2.0)
        assert "route_expand" in res.phase_ms
        assert "route_commit" in res.phase_ms
        assert "route_decompose" in res.phase_ms


# ----------------------------------------------------------------------
# Both-engine parity


route_params = st.tuples(
    st.integers(min_value=60, max_value=220),     # gates
    st.integers(min_value=0, max_value=10_000),   # seed
)


class TestParity:
    @given(route_params)
    @settings(max_examples=8, deadline=None)
    def test_batched_matches_maze(self, params):
        gates, seed = params
        pl = small_placement(gates=gates, seed=seed)
        maze = route_placement(pl, engine="maze", gcell_um=2.0,
                               max_iterations=3, seed=seed)
        bat = route_placement(pl, engine="batched", gcell_um=2.0,
                              max_iterations=3, seed=seed)
        legal(maze)
        legal(bat)
        assert not bat.failed
        assert bat.overflow <= maze.overflow
        # 2% wirelength parity, with an absolute floor so the gate is
        # meaningful on tiny designs where 2% rounds to zero edges.
        assert bat.wirelength <= maze.wirelength * 1.02 + 2

    def test_bit_reproducible(self):
        pl = small_placement(gates=200, seed=3)
        a = route_placement(pl, engine="batched", gcell_um=2.0, seed=5)
        b = route_placement(pl, engine="batched", gcell_um=2.0, seed=5)
        assert a.wirelength == b.wirelength
        assert a.overflow == b.overflow
        assert a.paths.keys() == b.paths.keys()
        for net in a.paths:
            assert len(a.paths[net]) == len(b.paths[net])
            for p, q in zip(a.paths[net], b.paths[net]):
                np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(a.net_wirelength,
                                      b.net_wirelength)


# ----------------------------------------------------------------------
# Flow integration: engine knob and cache-key sensitivity


FLOW_OPTS = dict(utilization=0.4, routing_iterations=2, gcell_um=2.0,
                 spreading_passes=1, detailed_passes=0)


def flow_design():
    return logic_cloud(8, 8, 120, LIB, seed=11, locality=0.9)


class TestFlowIntegration:
    @pytest.mark.parametrize("engine", ["batched", "maze"])
    def test_flow_runs_with_engine(self, engine):
        result = run(flow_design(), LIB,
                     FlowOptions(routing_engine=engine, **FLOW_OPTS))
        assert result.status == "ok"
        assert result.routing.engine == engine
        assert result.routed_wirelength > 0

    def test_cache_key_includes_engine(self):
        cache = ResultCache()

        def routing_span(engine):
            sink = TelemetrySink()
            run(flow_design(), LIB,
                FlowOptions(routing_engine=engine, **FLOW_OPTS),
                cache=cache, telemetry=sink)
            return next(s for s in sink.spans
                        if s.stage == "routing")

        assert routing_span("maze").cache != "hit"
        # Same options again: the routing stage must come from cache.
        assert routing_span("maze").cache == "hit"
        # Switching engines must miss — the knob is in the stage key.
        assert routing_span("batched").cache != "hit"
        assert routing_span("batched").cache == "hit"
