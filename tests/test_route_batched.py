"""Tests for the batched router and routing-engine selection.

Covers engine selection (``route_placement``'s strict engine names,
FlowOptions construction-time validation), RoutingResult schema parity
across engines, hypothesis-driven both-engine parity (legal routes,
overflow no worse than maze, wirelength within 2%) plus the same
parity on a 4,800-gate tiled SoC, bit-reproducibility of the batched
engine within a run and against pinned digests, its maze fallback, an
op-count guard on its route store, and that the flow's routing stage
is the batched engine.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowOptions
from repro.netlist import build_library, logic_cloud, registered_cloud
from repro.netlist.generators import hierarchical_soc
from repro.netlist.hierarchy import flatten
from repro.orchestrate import run
from repro.place import Placement, global_place
from repro.route import ROUTE_SCHEMA_VERSION, batched, route_placement
from repro.tech import get_node

LIB = build_library(get_node("28nm"))


def small_placement(gates=150, seed=0, utilization=0.35):
    nl = logic_cloud(8, 8, gates, LIB, seed=seed, locality=0.9)
    return global_place(nl, seed=seed, utilization=utilization)


def tiled_placement(nl):
    """Serpentine-in-tile placement of a flattened hierarchical SoC.

    Each block gets a square tile of a die at 0.2 utilization and fills
    it in unit-height rows of alternating direction; the I/O pads go
    round the die edge.  A regular, local floorplan that costs nothing
    to build.
    """
    gates = list(nl.gates.values())
    die = (sum(g.cell.area_um2 for g in gates) / 0.2) ** 0.5
    blocks: dict = {}
    for g in gates:
        parts = g.name.split("_", 2)
        key = parts[1] if len(parts) > 2 and parts[0] == "u" else "top"
        blocks.setdefault(key, []).append(g.name)
    tiles = int(np.ceil(len(blocks) ** 0.5))
    tile = die / tiles
    rows = max(1, int(tile))
    positions = {}
    for bi, (_, members) in enumerate(sorted(blocks.items())):
        ty, tx = divmod(bi, tiles)
        per_row = max(1, -(-len(members) // rows))
        pitch = tile / per_row
        for i, name in enumerate(members):
            r, c = divmod(i, per_row)
            if r % 2:
                c = per_row - 1 - c
            positions[name] = (tx * tile + (c + 0.5) * pitch,
                               ty * tile + (r + 0.5))
    io = sorted(set(nl.primary_inputs) | set(nl.primary_outputs))
    pads = {}
    for j, net in enumerate(io):
        side, u = divmod(j / len(io) * 4, 1)
        u *= die
        pads[net] = [(u, 0.0), (die, u), (die - u, die),
                     (0.0, die - u)][int(side)]
    return Placement(netlist=nl, die_w_um=die, die_h_um=die,
                     positions=positions, pad_positions=pads,
                     row_height_um=1.0)


def legal(result):
    """Every path is a chain of adjacent gcells inside the grid, and
    the grid's usage is exactly the edges of the paths."""
    g = result.grid
    h_use = np.zeros_like(g.h_usage)
    v_use = np.zeros_like(g.v_usage)
    for segs in result.paths.values():
        for p in segs:
            arr = np.asarray(p)
            assert (arr[:, 0] >= 0).all() and (arr[:, 0] < g.nx).all()
            assert (arr[:, 1] >= 0).all() and (arr[:, 1] < g.ny).all()
            step = np.abs(np.diff(arr, axis=0)).sum(axis=1)
            assert (step == 1).all(), "non-adjacent hop in path"
            x, y = arr[:, 0], arr[:, 1]
            horiz = y[1:] == y[:-1]
            np.add.at(h_use, (y[1:][horiz],
                              np.minimum(x[1:], x[:-1])[horiz]), 1)
            np.add.at(v_use, (np.minimum(y[1:], y[:-1])[~horiz],
                              x[1:][~horiz]), 1)
    # The grid's committed usage agrees with the paths edge for edge.
    np.testing.assert_array_equal(g.h_usage, h_use)
    np.testing.assert_array_equal(g.v_usage, v_use)
    edges = sum(len(p) - 1 for segs in result.paths.values()
                for p in segs)
    assert result.grid.wirelength() == edges == result.wirelength


def route_digest(result):
    """SHA-256 over everything a RoutingResult reports, in a fixed
    order: paths by sorted net, per-net arrays, final usage and
    history, and the scalar totals."""
    h = hashlib.sha256()
    for net in sorted(result.paths):
        h.update(net.encode())
        for p in result.paths[net]:
            cells = np.asarray(p, dtype="<i8")
            h.update(len(cells).to_bytes(8, "little"))
            h.update(cells.tobytes())
    g = result.grid
    for arr, dtype in ((result.net_wirelength, "<i8"),
                       (result.net_overflow, "<i8"),
                       (g.h_usage, "<i8"), (g.v_usage, "<i8"),
                       (g.h_history, "<f8"), (g.v_history, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(repr((result.wirelength, result.overflow,
                   result.iterations, sorted(result.failed))).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Engine selection


class TestRegistry:
    def test_unknown_engine_is_value_error_with_hint(self):
        with pytest.raises(ValueError,
                           match="'batched', 'maze' or 'line_search'"):
            route_placement(small_placement(), engine="bathced")

    def test_flow_options_reject_typo_early(self):
        with pytest.raises(TypeError, match="routing_engine"):
            FlowOptions(routing_engine="mase")
        with pytest.raises(TypeError, match="place_engine"):
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

    def test_tiled_soc_matches_maze(self):
        # 4,800 gates in 12 tiles: both engines end at zero overflow
        # and 15,032 gcells of wirelength.
        nl = flatten(hierarchical_soc(12, 400, LIB, seed=7, bus_width=8))
        pl = tiled_placement(nl)
        knobs = dict(layers=8, gcell_um=2.0, max_iterations=4, seed=0)
        maze = route_placement(pl, engine="maze", **knobs)
        bat = route_placement(pl, engine="batched", **knobs)
        assert not bat.failed
        assert bat.overflow <= maze.overflow * 1.02
        assert bat.wirelength <= maze.wirelength * 1.02
        twin = route_placement(pl, engine="batched", **knobs)
        assert route_digest(twin) == route_digest(bat)

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
# Batched router: bit-identity across commits, maze fallback, op counts


@pytest.fixture(scope="module")
def congested():
    """A small design whose routing at gcell 2 um stays overflowed
    through every negotiation round (so every negotiation helper
    runs), at about 0.1 s per route."""
    return global_place(registered_cloud(16, 48, 1500, LIB, seed=1),
                        seed=0, utilization=0.7)


def route_congested(placement, seed=0, iterations=4):
    return route_placement(placement, engine="batched", gcell_um=2.0,
                           max_iterations=iterations, seed=seed)


class TestBatchedRouter:
    @pytest.mark.parametrize("seed, iterations, overflow, digest", [
        (0, 4, 1444, "439c1a9e584509f42c24f14c63644e5bf"
         "7fdce5a54af76a2dacaf87af688f0f4"),
        (1, 6, 1442, "cf165a59938e1975e50c5e9fdab58d83e"
         "1851c049806ba328ee8bf43b8bf1fb5"),
    ], ids=["seed0-4it", "seed1-6it"])
    def test_pinned_digest(self, congested, seed, iterations, overflow,
                           digest):
        # Pinned results: any change to what the router returns — a
        # path, a per-net number, a usage or history cell — fails here.
        res = route_congested(congested, seed, iterations)
        assert (res.overflow, res.iterations) == (overflow, iterations)
        legal(res)
        assert route_digest(res) == digest

    def test_maze_fallback(self, congested, monkeypatch):
        # Every real window descends, so force the fallback: mark every
        # third backtrace row failed and route those rows with the maze.
        backtrace = batched._backtrace
        maze = batched.maze_route
        fallbacks = []

        def failing(*args):
            px, py, done, ok = backtrace(*args)
            ok[::3] = False
            return px, py, done, ok

        def counted(*args, **kwargs):
            fallbacks.append(args[1:3])
            return maze(*args, **kwargs)

        monkeypatch.setattr(batched, "_backtrace", failing)
        monkeypatch.setattr(batched, "maze_route", counted)
        res = route_congested(congested)
        assert fallbacks
        assert not res.failed
        legal(res)
        assert int(res.net_wirelength.sum()) == res.wirelength

    @pytest.mark.parametrize("table_size", [0, 1, 50, 400])
    def test_members_matches_isin(self, table_size):
        rng = np.random.default_rng(table_size)
        table = rng.integers(0, 300, table_size)
        keys = rng.integers(-5, 305, 200)
        np.testing.assert_array_equal(batched._members(keys, table),
                                      np.isin(keys, table))

    def test_route_store_read_once_per_step(self, congested,
                                            monkeypatch):
        # The stored routes' edges are regenerated a fixed number of
        # times per negotiation round (one read per relocation pass,
        # the excess ranking, the excess rip-up), plus one for the
        # emitted per-net overflow — never once per rip-up chunk.
        read = batched._BatchedRouter._route_edges
        calls = []

        def counted(self, ids):
            calls.append(ids.size)
            return read(self, ids)

        monkeypatch.setattr(batched._BatchedRouter, "_route_edges",
                            counted)
        res = route_congested(congested)
        rounds = res.iterations - 1
        assert rounds == 3
        assert 0 < len(calls) <= 6 * rounds + 1


# ----------------------------------------------------------------------
# Flow integration


FLOW_OPTS = dict(utilization=0.4, routing_iterations=2, gcell_um=2.0,
                 spreading_passes=1, detailed_passes=0)


def flow_design():
    return logic_cloud(8, 8, 120, LIB, seed=11, locality=0.9)


class TestFlowIntegration:
    def test_flow_routes_with_batched_engine(self):
        # Fine gcells, so the grid is not clamped to its 2x2 minimum on
        # this ~6 um die and every routing knob shows in the digest.
        options = FlowOptions(**{**FLOW_OPTS, "gcell_um": 0.5})
        result = run(flow_design(), LIB, options)
        assert result.status == "ok"
        assert result.routing.engine == "batched"
        assert result.routing.grid.nx > 8
        direct = route_placement(result.placement, engine="batched",
                                 gcell_um=0.5, max_iterations=2)
        assert route_digest(result.routing) == route_digest(direct)
