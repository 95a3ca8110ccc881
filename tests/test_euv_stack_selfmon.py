"""Tests for EUV economics, 3-D stack thermal, and flow self-monitoring."""

import pytest

from repro.core import FlowOptions
from repro.learn import RunDatabase
from repro.litho.euv_economics import (
    compare_euv,
    euv_insertion_node,
    still_needs_opc,
)
from repro.netlist import build_library, logic_cloud
from repro.orchestrate import run
from repro.smartsys import COMPONENT_CATALOG
from repro.smartsys.stack_thermal import (
    best_stacking_order,
    stack_temperatures,
)
from repro.tech import get_node


def pick(name):
    return next(c for c in COMPONENT_CATALOG if c.name == name)


class TestEuvEconomics:
    def test_euv_loses_to_double_patterning(self):
        cmp = compare_euv("20nm")
        assert not cmp.euv_wins  # LELE is cheaper than an EUV pass

    def test_euv_wins_against_deep_multipatterning(self):
        cmp = compare_euv("7nm")
        assert cmp.euv_wins     # SAQP (4.2x) loses to EUV (3.0x)
        assert compare_euv("5nm").euv_wins

    def test_insertion_node_matches_history(self):
        # Industry inserted EUV around 7 nm; the cost model agrees.
        assert euv_insertion_node() in ("7nm", "10nm")

    def test_cheaper_euv_moves_insertion_earlier(self):
        early = euv_insertion_node(euv_cost_multiplier=2.0)
        late = euv_insertion_node(euv_cost_multiplier=4.0)
        assert get_node(early).drawn_nm >= get_node(late).drawn_nm

    def test_computational_litho_survives_euv(self):
        # Sawicki: OPC continues "even after the eventual introduction
        # of EUV" — the smallest nodes still need it.
        assert still_needs_opc("5nm")
        assert not still_needs_opc("90nm")


class TestStackThermal:
    def _dies(self):
        return [pick("mcu_m4_28"), pick("dsp_vec"), pick("accel_hi"),
                pick("adc_sar12")]

    def test_deeper_die_hotter(self):
        report = stack_temperatures(self._dies())
        order = report.order
        temps = [report.temperatures_c[n] for n in order]
        assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))

    def test_peak_above_ambient(self):
        report = stack_temperatures(self._dies(), ambient_c=40.0)
        assert report.peak_c > 40.0

    def test_duty_cycle_cools_the_stack(self):
        hot = stack_temperatures(self._dies(), duty_cycle=1.0)
        cool = stack_temperatures(self._dies(), duty_cycle=0.1)
        assert cool.peak_c < hot.peak_c

    def test_best_order_puts_hot_dies_near_sink(self):
        order, report = best_stacking_order(self._dies(), limit_c=200.0)
        # The hottest consumer should not sit at the bottom.
        powers = {c.name: c.active_mw for c in self._dies()}
        hottest = max(powers, key=powers.get)
        assert order.index(hottest) < len(order) - 1

    def test_best_order_beats_worst(self):
        dies = self._dies()
        _, best = best_stacking_order(dies, limit_c=500.0)
        # Reverse of the best order should be no better.
        worst = stack_temperatures(dies, list(reversed(best.order)))
        assert best.peak_c <= worst.peak_c + 1e-9

    def test_impossible_limit_raises(self):
        with pytest.raises(ValueError, match="no stacking order"):
            best_stacking_order(self._dies(), ambient_c=100.0,
                                limit_c=85.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            stack_temperatures(self._dies(), ["mcu_m4_28"])
        with pytest.raises(ValueError):
            stack_temperatures([pick("coin_cell")])


class TestFlowSelfMonitoring:
    def test_implement_logs_to_run_db(self):
        lib = build_library(get_node("28nm"))
        db = RunDatabase()
        nl = logic_cloud(8, 8, 100, lib, seed=1)
        run(nl, lib, FlowOptions.basic(), run_db=db)
        assert len(db) == 1
        record = db.records[0]
        assert record.qor["hpwl_um"] > 0
        assert record.knobs["era"] == "2006"
        assert "flow" in record.tags

    def test_logged_features_enable_warm_start(self):
        lib = build_library(get_node("28nm"))
        db = RunDatabase()
        for seed in (1, 2):
            nl = logic_cloud(8, 8, 100, lib, seed=seed)
            run(nl, lib, FlowOptions.basic(), run_db=db)
        nl = logic_cloud(8, 8, 100, lib, seed=3)
        from repro.learn import design_features
        best = db.best_knobs(design_features(nl), "hpwl_um")
        assert best is not None
        assert "detailed_passes" in best
