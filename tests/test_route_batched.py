"""Tests for the batched router and routing-engine selection.

Covers engine selection (``route_placement``'s strict engine names,
FlowOptions construction-time validation), RoutingResult schema parity
across engines, hypothesis-driven both-engine parity (legal routes,
overflow no worse than maze, wirelength within 2%) plus the same
parity on a 4,800-gate tiled SoC, bit-reproducibility of the batched
engine within a run and against pinned digests, its negotiation stop
rule, its maze fallback, an op-count guard on its route store, its
kernels against verbatim copies of the ones they replaced, and that
the flow's routing stage is the batched engine.
"""

import hashlib
from types import SimpleNamespace
from typing import Any

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
from repro.route.grid import RoutingGrid
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
    """A small design whose routing at gcell 2 um stays overflowed, so
    a negotiation round runs every negotiation helper, at about 0.1 s
    per route.  Its rounds do not pay (1,407 overflow after the first
    pass at seed 0, 1,409 after one round), so negotiation stops after
    one round."""
    return global_place(registered_cloud(16, 48, 1500, LIB, seed=1),
                        seed=0, utilization=0.7)


@pytest.fixture(scope="module")
def paying():
    """A small design whose negotiation rounds keep paying at gcell
    2 um: overflow goes 365 -> 354 -> 349 -> 349 at seed 0, so a cap of
    four passes runs three rounds and the design stays overflowed."""
    return global_place(logic_cloud(16, 16, 800, LIB, seed=2,
                                    locality=0.9),
                        seed=0, utilization=0.7)


def route_congested(placement, seed=0, iterations=4):
    return route_placement(placement, engine="batched", gcell_um=2.0,
                           max_iterations=iterations, seed=seed)


class TestBatchedRouter:
    @pytest.mark.parametrize(
        "design, seed, cap, overflow, iterations, digest", [
            ("congested", 0, 4, 1409, 2, "b6c8afe1e149bb4e2197c9a46c5c6901"
             "b63d35d55cb0eee6771727722b5e4cdc"),
            ("congested", 1, 6, 1398, 2, "fe02b38ff71756d5b72e00ebdace5928"
             "abdc005d9a25c99b159fd2648a557834"),
            # Three paying rounds, so every schedule entry runs.
            ("paying", 0, 4, 349, 4, "072bda4d47ec7ea5c0b4ad62dd1f4e5f"
             "e707e9df7f05b97f7d8d5a43f7990ec0"),
        ], ids=["seed0-4it", "seed1-6it", "paying-seed0-4it"])
    def test_pinned_digest(self, request, design, seed, cap, overflow,
                           iterations, digest):
        # Pinned results: any change to what the router returns — a
        # path, a per-net number, a usage or history cell — fails here.
        res = route_congested(request.getfixturevalue(design), seed, cap)
        assert (res.overflow, res.iterations) == (overflow, iterations)
        legal(res)
        assert route_digest(res) == digest

    def test_negotiation_stops_when_a_round_stops_paying(self, congested,
                                                         paying):
        # The first round raises the congested design's overflow, so
        # negotiation stops after it whatever the cap.
        four = route_congested(congested, iterations=4)
        ten = route_congested(congested, iterations=10)
        assert four.iterations == ten.iterations == 2
        assert route_digest(four) == route_digest(ten)
        # Both rounds that pay run when the cap allows them.
        res = route_congested(paying, iterations=3)
        assert res.iterations == 3
        assert res.overflow == 349

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

    def test_route_store_read_once_per_step(self, paying, monkeypatch):
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
        res = route_congested(paying)
        rounds = res.iterations - 1
        assert rounds == 3
        assert 0 < len(calls) <= 6 * rounds + 1


# ----------------------------------------------------------------------
# Kernel references: the expander, backtrace and usage update the router
# ran before its batch-innermost rewrite, verbatim, against the rewrites


FloatArray = IntArray = Any
_SWEEP_LIMIT = batched._SWEEP_LIMIT


def ref_expand_chunk(h_cost: FloatArray, v_cost: FloatArray,
                     x0: IntArray, y0: IntArray, w: int, h: int,
                     sxw: IntArray, syw: IntArray) -> tuple:
    """Shortest-path distances for K same-shape windows at once.

    Returns ``(dist, hw, vw)`` — the (K, H, W) distance field from
    each window's source plus the gathered edge-cost slabs (reused by
    the backtrace).
    """
    k = x0.shape[0]
    ys = (y0[:, None] + np.arange(h))[:, :, None]     # (K, H, 1)
    xs = (x0[:, None] + np.arange(w))[:, None, :]     # (K, 1, W)
    hw = h_cost[ys, xs[:, :, :w - 1]]                 # (K, H, W-1)
    vw = v_cost[ys[:, :h - 1, :], xs]                 # (K, H-1, W)
    full = np.full((k, h, w), np.inf)
    full[np.arange(k), syw, sxw] = 0.0
    sh_full = np.concatenate(
        [np.zeros((k, h, 1)), np.cumsum(hw, axis=2)], axis=2)
    sv_full = np.concatenate(
        [np.zeros((k, 1, w)), np.cumsum(vw, axis=1)], axis=1)
    # Sweep only the windows that are still changing: converged ones
    # are scattered back into ``full`` and dropped from the batch, so
    # a few straggler windows stop costing whole-batch sweeps.
    act = np.arange(k)
    dist, sh, sv = full, sh_full, sv_full
    for _ in range(_SWEEP_LIMIT):
        prev = dist.copy()
        t = dist - sh                                  # rightward
        np.minimum.accumulate(t, axis=2, out=t)
        np.minimum(dist, t + sh, out=dist)
        t = np.flip(np.minimum.accumulate(              # leftward
            np.flip(dist + sh, axis=2), axis=2), axis=2)
        np.minimum(dist, t - sh, out=dist)
        t = dist - sv                                  # downward (+y)
        np.minimum.accumulate(t, axis=1, out=t)
        np.minimum(dist, t + sv, out=dist)
        t = np.flip(np.minimum.accumulate(              # upward (-y)
            np.flip(dist + sv, axis=1), axis=1), axis=1)
        np.minimum(dist, t - sv, out=dist)
        # Tolerant check: prefix-sum arithmetic can keep flipping the
        # last ulp forever; improvements below 1e-9 are far smaller
        # than any real cost difference (>= 0.1) and cannot change a
        # backtrace, so treat them as converged.
        changed = (dist < prev - 1e-9).any(axis=(1, 2))
        n_changed = int(changed.sum())
        if n_changed == 0:
            break
        if n_changed <= act.size // 2:
            settled = ~changed
            full[act[settled]] = dist[settled]
            act = act[changed]
            dist = dist[changed]
            sh = sh[changed]
            sv = sv[changed]
    if dist is not full:
        full[act] = dist
    return full, hw, vw


def ref_backtrace(dist: FloatArray, hw: FloatArray, vw: FloatArray,
                  sxw: IntArray, syw: IntArray, dxw: IntArray,
                  dyw: IntArray, rng: Any) -> tuple:
    """Walk dst -> src by greedy strict descent, whole batch at once.

    Below capacity the negotiated cost is flat, so many staircase
    paths tie exactly; a deterministic tie-break would send every
    segment of a batch down the same canonical corridor and stack
    usage far past capacity before the next cost refresh could react.
    Instead, ties break on a per-segment, per-step ~1e-4 perturbation
    drawn from ``rng`` — tied neighbors all lie on shortest paths, so
    this diffuses the batch across the whole equal-cost corridor
    ensemble (the batched analogue of the sequential engines filling
    corridors one segment at a time) while the strict-descent check
    keeps every walk a true shortest path.

    Returns ``(px, py, done, ok)``: step-stacked window coordinates
    (K, S+1), per-segment final step index, and a success mask (a
    window that did not converge cannot descend and falls back to the
    sequential maze router).
    """
    k, h, w = dist.shape
    rows = np.arange(k)
    cx, cy = dxw.astype(np.int64), dyw.astype(np.int64)
    steps_x, steps_y = [cx.copy()], [cy.copy()]
    active = (cx != sxw) | (cy != syw)
    ok = np.ones(k, dtype=bool)
    done = np.zeros(k, dtype=np.int64)
    moves_x = np.asarray([-1, 1, 0, 0])
    moves_y = np.asarray([0, 0, -1, 1])
    cap = h * w
    step = 0
    while active.any() and step < cap:
        step += 1
        cur_d = dist[rows, cy, cx]
        cand = np.full((4, k), np.inf)
        m = cx > 0
        cand[0, m] = (dist[rows[m], cy[m], cx[m] - 1]
                      + hw[rows[m], cy[m], cx[m] - 1])
        m = cx < w - 1
        cand[1, m] = (dist[rows[m], cy[m], cx[m] + 1]
                      + hw[rows[m], cy[m], cx[m]])
        m = cy > 0
        cand[2, m] = (dist[rows[m], cy[m] - 1, cx[m]]
                      + vw[rows[m], cy[m] - 1, cx[m]])
        m = cy < h - 1
        cand[3, m] = (dist[rows[m], cy[m] + 1, cx[m]]
                      + vw[rows[m], cy[m], cx[m]])
        cand += rng.random((4, k)) * 1e-4
        choice = np.argmin(cand, axis=0)
        nx_ = np.clip(cx + moves_x[choice], 0, w - 1)
        ny_ = np.clip(cy + moves_y[choice], 0, h - 1)
        good = active & (dist[rows, ny_, nx_] < cur_d)
        ok &= ~(active & ~good)
        cx = np.where(good, nx_, cx)
        cy = np.where(good, ny_, cy)
        steps_x.append(cx.copy())
        steps_y.append(cy.copy())
        done = np.where(good, step, done)
        active = good & ((cx != sxw) | (cy != syw))
    ok &= ~active  # hit the step cap while still walking
    return np.stack(steps_x, axis=1), np.stack(steps_y, axis=1), \
        done, ok


def ref_shift_usage(grid, h, v, delta):
    """The ``np.add.at`` usage update the router ran before ``bincount``."""
    np.add.at(grid.h_usage.ravel(), h, delta)
    np.add.at(grid.v_usage.ravel(), v, delta)


def random_costs(nx, ny, seed, free=0.0):
    """Seeded edge-cost planes of an nx-by-ny grid, uniform in [1, 4),
    with a ``free`` share of the edges at cost zero."""
    rng = np.random.default_rng(seed)
    h_cost = 1.0 + 3.0 * rng.random((ny, nx - 1))
    v_cost = 1.0 + 3.0 * rng.random((ny - 1, nx))
    h_cost[rng.random(h_cost.shape) < free] = 0.0
    v_cost[rng.random(v_cost.shape) < free] = 0.0
    return h_cost, v_cost


def random_windows(nx, ny, w, h, k, seed):
    """``k`` seeded w-by-h windows inside the grid, each with a source
    and a destination: ``(x0, y0, (sxw, syw), (dxw, dyw))``."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, nx - w + 1, k)
    y0 = rng.integers(0, ny - h + 1, k)
    src = (rng.integers(0, w, k), rng.integers(0, h, k))
    dst = (rng.integers(0, w, k), rng.integers(0, h, k))
    return x0, y0, src, dst


def compare_kernels(h_cost, v_cost, x0, y0, w, h, src, dst, seed=0):
    """Run both expanders, then both backtraces from equal generators:
    every output must be equal.  Returns the reference distance field
    and ``ok`` mask."""
    ref = ref_expand_chunk(h_cost, v_cost, x0, y0, w, h, *src)
    new = batched._expand_chunk(h_cost, v_cost, x0, y0, w, h, *src)
    dist, costs = new
    assert dist.shape == (h + 2, w + 2, x0.size)
    assert costs.shape == (2, *dist.shape)
    hw, vw = costs
    for got, want in zip((dist[1:-1, 1:-1], hw[1:-1, 1:w], vw[1:h, 1:-1]),
                         ref):
        assert np.array_equal(got.transpose(2, 0, 1), want)
    # The padding: +inf round the distances, zero where no edge is.
    pad = np.ones((h + 2, w + 2), dtype=bool)
    pad[1:-1, 1:-1] = False
    assert np.isposinf(dist[pad]).all()
    for plane, inner in ((hw, (slice(1, -1), slice(1, w))),
                         (vw, (slice(1, h), slice(1, -1)))):
        pad = np.ones((h + 2, w + 2), dtype=bool)
        pad[inner] = False
        assert not plane[pad].any()
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    want = ref_backtrace(*ref, *src, *dst, rng_ref)
    got = batched._backtrace(*new, *src, *dst, rng_new)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    # Both walks drew the same random numbers.
    assert rng_new.random() == rng_ref.random()
    return ref[0], want[3]


class TestKernelReferences:
    @pytest.mark.parametrize("h, w", [(8, 8), (16, 24), (24, 16),
                                      (62, 24)])
    @pytest.mark.parametrize("k", [1, 256])
    def test_expand_and_backtrace_match_reference(self, h, w, k):
        h_cost, v_cost = random_costs(80, 70, seed=h * w + k)
        x0, y0, src, dst = random_windows(80, 70, w, h, k, seed=k)
        compare_kernels(h_cost, v_cost, x0, y0, w, h, src, dst, seed=k)

    def test_dropped_windows_match_reference(self, monkeypatch):
        # Columns 0-15 cost 1 everywhere.  Columns 16-31 are a
        # serpentine: every row boundary is a wall (cost 1,000) but for
        # a gap at its right end under even rows and at its left end
        # under odd ones.  A uniform window settles in its first round;
        # a serpentine window walled off from its top-left source gains
        # one row per round.  So from the second round 4 of the 16
        # windows still change, and the 12 settled ones leave the
        # batch through the drop path.  The batch stays innermost in
        # memory after the drop.
        cummin = batched._cummin
        batches = []

        def recorded(a, axis, reverse):
            batches.append(a.shape[2])
            assert a.flags.c_contiguous
            cummin(a, axis, reverse)

        monkeypatch.setattr(batched, "_cummin", recorded)
        h_cost = np.ones((16, 31))
        v_cost = np.ones((15, 32))
        v_cost[:, 16:] = 1000.0
        v_cost[0::2, 31] = 1.0
        v_cost[1::2, 16] = 1.0
        rng = np.random.default_rng(3)
        snake = np.arange(16) < 4
        x0 = np.where(snake, 16, 0)
        y0 = np.zeros(16, dtype=np.int64)
        src = (np.where(snake, 0, rng.integers(0, 16, 16)),
               np.where(snake, 0, rng.integers(0, 16, 16)))
        dst = (rng.integers(0, 16, 16), rng.integers(0, 16, 16))
        dist, ok = compare_kernels(h_cost, v_cost, x0, y0, 16, 16, src,
                                   dst, seed=3)
        # The far end of the serpentine: 16 rows of 15 edges plus 15
        # gaps, reached only after one round per row.
        assert (dist[snake, 15, 0] == 255.0).all()
        assert ok.all()
        assert batches[0] == 16 and batches[-1] == 4

    def test_failed_descents_match_reference(self):
        # A third of the edges are free, so a walker can tie with a
        # neighbor and fail the strict descent: those rows come back
        # not ok, and the router sends them to the maze fallback.
        h_cost, v_cost = random_costs(40, 40, seed=5, free=0.35)
        x0, y0, src, dst = random_windows(40, 40, 16, 16, 256, seed=5)
        _, ok = compare_kernels(h_cost, v_cost, x0, y0, 16, 16, src, dst,
                                seed=5)
        assert ok.any() and not ok.all()

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_cummin_matches_accumulate(self, axis, reverse):
        rng = np.random.default_rng(2 * axis + reverse)
        a = rng.normal(size=(9, 7, 5))
        a[rng.random(a.shape) < 0.2] = np.inf
        if reverse:
            want = np.flip(np.minimum.accumulate(np.flip(a, axis),
                                                 axis=axis), axis)
        else:
            want = np.minimum.accumulate(a, axis=axis)
        batched._cummin(a, axis, reverse)
        assert np.array_equal(a, want)

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("size", [0, 7, 500])
    def test_shift_usage_matches_add_at(self, delta, size):
        # 500 draws over 99 edges per axis repeat many edges.
        rng = np.random.default_rng(2 * size + (delta > 0))
        got, want = (RoutingGrid(12, 9, h_capacity=4, v_capacity=3)
                     for _ in range(2))
        h_use = rng.integers(0, 9, got.h_usage.shape)
        v_use = rng.integers(0, 9, got.v_usage.shape)
        for g in (got, want):
            g.h_usage[...] = h_use
            g.v_usage[...] = v_use
        h = rng.integers(0, got.h_usage.size, size)
        v = rng.integers(0, got.v_usage.size, size)
        batched._BatchedRouter._shift_usage(SimpleNamespace(grid=got), h,
                                            v, delta)
        ref_shift_usage(want, h, v, delta)
        for a, b in ((got.h_usage, want.h_usage),
                     (got.v_usage, want.v_usage)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Flow integration


FLOW_OPTS = dict(utilization=0.4, routing_iterations=2, gcell_um=2.0,
                 detailed_passes=0)


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
