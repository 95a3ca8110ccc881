"""Tests for repro.place.analytic: the vectorized CSR-native placer.

Covers the perf-tentpole acceptance claims: both engines produce legal
placements (cells on rows, no overlaps, inside the die) over random
circuits and raise when the die's rows cannot hold the cells, seeded
runs are bit-reproducible, the analytic engine's HPWL is no worse than
1.02x the baseline and agrees with it on the sign of post-placement
WNS, and placement never rehydrates an object ``Netlist`` from the
packed form it works on.  Also the star-model regression (big nets hub
on their driving gate) and the kernels' one call shape each.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowOptions, FlowStatus
from repro.netlist import (
    PackedNetlist,
    build_library,
    logic_cloud,
    registered_cloud,
)
from repro.orchestrate import StageError, run
from repro.place import (
    Placement,
    analytic_place,
    detailed_place,
    global_place,
    star_pairs,
)
from repro.place.timing_driven import timing_driven_place
from repro.route import batched_route
from repro.tech import get_node
from repro.timing import (
    IncrementalTimingAnalyzer,
    TimingAnalyzer,
    WireModel,
)

LIB = build_library(get_node("28nm"))


@pytest.fixture(scope="module")
def cloud():
    return logic_cloud(16, 16, 400, LIB, seed=1, locality=0.9)


@pytest.fixture(scope="module")
def reg():
    return registered_cloud(8, 24, 300, LIB, seed=7)


def assert_on_rows(placement: Placement) -> dict:
    """Inside the die and on row centers; returns cells grouped by row."""
    placement.validate()
    row_h = placement.row_height_um
    rows: dict[int, list] = {}
    for name, (x, y) in placement.positions.items():
        r = (y - row_h / 2) / row_h
        assert abs(r - round(r)) < 1e-6, f"{name} off-row at y={y}"
        gate = placement.netlist.gates[name]
        width = max(gate.cell.area_um2 / row_h, 0.05)
        rows.setdefault(int(round(r)), []).append(
            (x - width / 2, x + width / 2, name))
    return rows


def assert_legal(placement: Placement) -> None:
    """Cells on row centers, inside the die, no overlaps within rows.

    The full predicate; the baseline ``detailed_place`` can violate
    the overlap clause by swapping unequal-width cells in place, so it
    only applies to the baseline at its legalized (pre-detailed)
    state.  The analytic engine's detailed sweep re-spaces swapped
    cells and must satisfy it always.
    """
    for cells in assert_on_rows(placement).values():
        cells.sort()
        for (_, ra, na), (lb, _, nb) in zip(cells, cells[1:]):
            assert lb >= ra - 1e-6, f"{na} overlaps {nb}"


# ----------------------------------------------------------------------
# Star-model regression (satellite): hub on the driver, not the
# alphabetically-first member.


class TestStarPairs:
    def test_hub_is_driver(self):
        pairs = star_pairs([3, 5, 9, 12], driver=9)
        assert pairs == [(9, 3), (9, 5), (9, 12)]

    def test_driverless_net_falls_back_to_first(self):
        # PI-driven nets have no gate driver.
        pairs = star_pairs([4, 7, 8], driver=None)
        assert pairs == [(4, 7), (4, 8)]

    def test_foreign_driver_falls_back(self):
        # A driver index not in the member list (defensive) hubs on
        # the first member rather than introducing a phantom node.
        pairs = star_pairs([2, 6], driver=99)
        assert pairs == [(2, 6)]

    def test_global_place_handles_big_fanout(self):
        # >10 fanout takes the star path; the driver must stay near
        # its fanout cloud rather than drifting to the die center.
        nl = logic_cloud(4, 4, 60, LIB, seed=2, locality=0.2)
        fan = [g for g in nl.gates.values()][:12]
        driver = fan[0]
        for g in fan[1:]:
            nl.rewire_pin(g.name, list(g.pins)[0], driver.output)
        pl = global_place(nl, seed=0)
        dx, dy = pl.positions[driver.name]
        sinks = np.array([pl.positions[g.name] for g in fan[1:]])
        cx, cy = sinks.mean(axis=0)
        diag = (pl.die_w_um**2 + pl.die_h_um**2) ** 0.5
        assert ((dx - cx) ** 2 + (dy - cy) ** 2) ** 0.5 < 0.5 * diag


# ----------------------------------------------------------------------
# Electrostatic field orientation regression: a density stripe must
# push cells away from itself, not along itself.  Legalization hides a
# transposed field from the legality tests, so pin the axis convention
# of the (Ex, Ey) pair directly.


class TestPoissonField:
    DIE = 100.0

    def _field(self, density, xs, ys):
        from repro.place.analytic import _field_at, _poisson_field
        ex, ey = _poisson_field(density)
        return _field_at(ex, ey, np.asarray(xs, dtype=float),
                         np.asarray(ys, dtype=float),
                         self.DIE, self.DIE)

    def test_vertical_stripe_pushes_along_x(self):
        density = np.zeros((32, 32))
        density[:, 14:18] = 10.0      # dense at mid-x, all y
        gx, gy = self._field(density, [30.0, 70.0], [50.0, 50.0])
        assert gx[0] < 0 < gx[1], "cells must move away from the stripe"
        assert np.abs(gy).max() < 0.05 * np.abs(gx).max()

    def test_horizontal_stripe_pushes_along_y(self):
        density = np.zeros((32, 32))
        density[14:18, :] = 10.0      # dense at mid-y, all x
        gx, gy = self._field(density, [50.0, 50.0], [30.0, 70.0])
        assert gy[0] < 0 < gy[1], "cells must move away from the stripe"
        assert np.abs(gx).max() < 0.05 * np.abs(gy).max()


# ----------------------------------------------------------------------
# The CG solve reports non-convergence instead of a best effort.


class TestCgSolve:
    N = 8

    def _chain(self):
        """An anchored 8-cell chain: one CG step cannot solve it."""
        from scipy import sparse
        n = self.N
        main = np.full(n, 2.0)
        main[[0, -1]] = 1.0
        off = -np.ones(n - 1)
        lap = sparse.diags([off, main + 0.01, off], [-1, 0, 1],
                           format="csr")
        b = np.zeros(n)
        b[0] = 1.0
        return lap, lap.diagonal(), b

    def test_converged_solve_returns_the_solution(self):
        from repro.place.analytic import _cg_solve
        lap, diag, b = self._chain()
        x, iterations = _cg_solve(lap, diag, b, np.zeros(self.N))
        assert np.linalg.norm(b - lap @ x) <= 1e-7 * np.linalg.norm(b)
        assert 1 < iterations <= self.N

    def test_non_convergence_raises(self):
        from repro.place.analytic import _cg_solve
        lap, diag, b = self._chain()
        with pytest.raises(RuntimeError,
                           match=r"info=1, maxiter=1, relative residual"):
            _cg_solve(lap, diag, b, np.zeros(self.N), maxiter=1)


    def test_local_design_places(self):
        # Fully local fanins: the anchored re-solves need ~100 CG
        # iterations here, past a fixed cap of 100, so their cap
        # follows the first solve's count.
        design = logic_cloud(64, 64, 5000, LIB, seed=0, locality=1.0)
        assert_legal(analytic_place(design, utilization=0.4,
                                    max_iterations=24))


# ----------------------------------------------------------------------
# Legality of both engines.


class TestLegality:
    def test_analytic_object_form_is_legal(self, cloud):
        pl = analytic_place(cloud, seed=0)
        assert isinstance(pl, Placement)
        assert len(pl.positions) == cloud.num_instances()
        assert_legal(pl)

    @given(st.integers(0, 10_000), st.integers(30, 150))
    @settings(max_examples=8, deadline=None)
    def test_both_engines_legal_on_random_circuits(self, seed, gates):
        nl = registered_cloud(6, 10, gates, LIB, seed=seed)
        assert_legal(analytic_place(nl, seed=seed))
        assert_legal(global_place(nl, seed=seed))

    def test_sequential_design_legal(self, reg):
        assert_legal(analytic_place(reg, seed=3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_that_overfill_the_die_raise(self, seed):
        # The int(die_h / row_h) rows hold up to one row less than the
        # die area the utilization sized: from 0.95 on, some row of
        # these clouds is wider than the die.  Both placers used to
        # return such a placement (cells outside the die, or
        # overlapping), and the flow reported it as OK.
        for place in (analytic_place, global_place):
            nl = registered_cloud(8, 24, 600, LIB, seed=seed)
            assert_legal(place(nl, utilization=0.9, seed=seed))
            for utilization in (0.95, 1.0):
                with pytest.raises(ValueError,
                                   match="lower the utilization"):
                    place(nl, utilization=utilization, seed=seed)
        with pytest.raises(StageError) as info:
            run(registered_cloud(8, 24, 600, LIB, seed=seed), LIB,
                FlowOptions(utilization=0.95, cts=True, seed=seed))
        assert info.value.stage == "placement"
        assert isinstance(info.value.__cause__, ValueError)


# ----------------------------------------------------------------------
# Determinism: equal seeds give bit-identical placements.


class TestDeterminism:
    def test_object_form_bit_reproducible(self, cloud):
        a = analytic_place(cloud, seed=5)
        b = analytic_place(cloud, seed=5)
        assert a.positions == b.positions

    def test_seed_changes_placement(self, cloud):
        a = analytic_place(cloud, seed=0)
        b = analytic_place(cloud, seed=1)
        assert a.positions != b.positions


# ----------------------------------------------------------------------
# QoR: analytic HPWL within 2% of (usually better than) the baseline,
# with a legal result and the same sign-off verdict.


def signoff_wns(nl, placement, period_ps):
    """Post-placement WNS with this placement's wire lengths."""
    wm = WireModel.for_node(LIB.node, placement.net_lengths())
    return TimingAnalyzer(nl, wm, period_ps).analyze().wns_ps


class TestQor:
    @pytest.mark.parametrize("design, utilization", [
        pytest.param(lambda: logic_cloud(16, 16, 400, LIB, seed=1,
                                         locality=0.9), 0.7, id="1-400"),
        pytest.param(lambda: logic_cloud(16, 16, 200, LIB, seed=11,
                                         locality=0.9), 0.7, id="11-200"),
        # 1,548 cells on a sparse die: 0.92x the baseline's HPWL.
        pytest.param(lambda: registered_cloud(16, 48, 1500, LIB, seed=7),
                     0.35, id="7-1500"),
    ])
    def test_hpwl_not_worse_than_baseline(self, design, utilization):
        nl = design()
        base = global_place(nl, seed=0, utilization=utilization)
        detailed_place(base, passes=2, seed=0)
        new = analytic_place(nl, seed=0, utilization=utilization)
        assert new.total_hpwl() <= base.total_hpwl() * 1.02
        assert_legal(new)
        # Both placements agree on sign-off: the sign of WNS at a clock
        # 25% below the pre-placement critical delay.
        period = 0.75 * TimingAnalyzer(
            nl, WireModel.for_node(LIB.node)).analyze().critical_delay_ps
        assert (signoff_wns(nl, new, period) >= 0) == \
            (signoff_wns(nl, base, period) >= 0)


# ----------------------------------------------------------------------
# Placement works on the packed arrays and never rehydrates an object
# netlist from them (acceptance).


class TestNoRehydration:
    def test_place_never_calls_to_netlist(self, cloud, monkeypatch):
        def boom(self, library):
            raise AssertionError("to_netlist() on the hot path")

        monkeypatch.setattr(PackedNetlist, "to_netlist", boom)
        pl = analytic_place(cloud, seed=0)
        assert isinstance(pl, Placement)
        assert pl.netlist is cloud
        assert_legal(pl)


# ----------------------------------------------------------------------
# One call shape per kernel: an object Netlist in, one result type out,
# and only the keywords some caller outside the tests sets.


def keyword_names(fn) -> list:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY]


class TestCallShapes:
    def test_kept_call_shapes(self):
        assert keyword_names(analytic_place) == [
            "utilization", "net_weights", "seed", "detailed_passes",
            "max_iterations", "telemetry"]
        assert keyword_names(global_place) == [
            "utilization", "spreading_passes", "spread_blend", "seed"]
        assert keyword_names(batched_route) == [
            "layers", "gcell_um", "max_iterations", "seed", "telemetry"]
        assert list(inspect.signature(
            IncrementalTimingAnalyzer.update).parameters) == ["self"]
        import repro.place as place
        import repro.place.analytic as analytic
        import repro.place.placement as placement
        for owner, name in (
                (place, "PackedPlacement"),
                (analytic, "PackedPlacement"),
                (place, "half_perimeter_wirelength"),
                (placement, "half_perimeter_wirelength"),
                (PackedNetlist, "save"),
                (PackedNetlist, "load"),
                (PackedNetlist, "iter_gate_pins"),
                (IncrementalTimingAnalyzer, "repropagate")):
            assert not hasattr(owner, name), name

    def test_cell_missing_from_library_raises(self):
        # No silent unit footprint: a cell the library lacks has no
        # area to place with.
        nl = registered_cloud(4, 4, 30, LIB, seed=0)
        stranger = dataclasses.replace(LIB["INV_X1_rvt"],
                                       name="INV_STRANGER")
        nl.add_output(nl.add_gate(stranger, [nl.primary_inputs[0]])
                      .output)
        with pytest.raises(KeyError, match="INV_STRANGER"):
            analytic_place(nl, seed=0)


# ----------------------------------------------------------------------
# The placer behind orchestrate flows and timing-driven placement.


class TestEngineKnob:
    def test_flow_default_engine_is_analytic(self, reg):
        result = run(reg, LIB, FlowOptions(utilization=0.6))
        assert result.status is FlowStatus.OK
        assert_legal(result.placement)
        direct = analytic_place(reg, utilization=0.6, seed=0,
                                max_iterations=24, detailed_passes=2)
        assert result.placement.positions == direct.positions

    def test_unknown_engine_rejected(self, reg):
        from repro.place import place_flat
        with pytest.raises(TypeError, match="place_engine"):
            FlowOptions(place_engine="annealing")
        with pytest.raises(TypeError, match="engine"):
            timing_driven_place(reg, engine="quadratic")
        with pytest.raises(TypeError, match="engine"):
            place_flat(None, engine="quadratic")

    def test_timing_driven_is_legal(self, reg):
        assert_legal(timing_driven_place(reg, utilization=0.5, seed=0))

    def test_net_weights_contract_weighted_nets(self, cloud):
        unweighted = analytic_place(cloud, seed=0)
        lengths = unweighted.net_lengths()
        hot = sorted(lengths, key=lengths.get, reverse=True)[:10]
        weighted = analytic_place(
            cloud, seed=0, net_weights={n: 8.0 for n in hot})
        before = sum(lengths[n] for n in hot)
        after_lengths = weighted.net_lengths()
        after = sum(after_lengths[n] for n in hot)
        assert after < before
