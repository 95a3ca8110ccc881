"""Tests for power analysis, techniques, intent, grid, and dark silicon."""

import numpy as np
import pytest

from repro.netlist import build_library, registered_cloud
from repro.netlist.generators import logic_cloud
from repro.power import (
    ActivityEstimator,
    DarkSiliconModel,
    PowerGrid,
    PowerDomain,
    PowerIntent,
    dark_silicon_fraction,
    insert_decaps,
    power_report,
    technique_ladder,
)
from repro.power.grid import power_density_map, spread_hotspots
from repro.power.intent import scores_of_domains_intent
from repro.power.techniques import (
    apply_clock_gating,
    apply_dvfs,
    apply_power_gating,
)
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib65():
    return build_library(get_node("65nm"), vt_flavors=("rvt", "hvt"))


@pytest.fixture(scope="module")
def design(lib65):
    return registered_cloud(8, 32, 250, lib65, seed=1)


class TestActivity:
    def test_rates_in_unit_interval(self, design):
        rates = ActivityEstimator(design, patterns=64).estimate()
        assert rates
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_input_activity_zero_means_no_toggles(self, lib65):
        nl = logic_cloud(8, 4, 60, lib65, seed=2)
        rates = ActivityEstimator(nl, input_activity=0.0,
                                  patterns=64).estimate()
        assert all(r == 0.0 for r in rates.values())

    def test_higher_input_activity_more_toggles(self, lib65):
        nl = logic_cloud(8, 4, 60, lib65, seed=2)
        low = ActivityEstimator(nl, input_activity=0.1,
                                patterns=256).estimate()
        high = ActivityEstimator(nl, input_activity=0.9,
                                 patterns=256).estimate()
        assert sum(high.values()) > sum(low.values())

    def test_bad_activity_rejected(self, design):
        with pytest.raises(ValueError):
            ActivityEstimator(design, input_activity=1.5)

    @pytest.mark.parametrize("patterns", [0, -4])
    def test_no_patterns_rejected(self, design, patterns):
        with pytest.raises(ValueError):
            ActivityEstimator(design, patterns=patterns)
        with pytest.raises(ValueError):   # was total_uw = nan
            power_report(design, patterns=patterns)


class TestPowerReport:
    def test_components_positive(self, design):
        rep = power_report(design, freq_ghz=0.5)
        assert rep.dynamic_uw > 0
        assert rep.leakage_uw > 0
        assert rep.clock_uw > 0
        assert rep.total_uw == pytest.approx(
            rep.dynamic_uw + rep.leakage_uw + rep.clock_uw)

    def test_dynamic_scales_with_frequency(self, design):
        r1 = power_report(design, freq_ghz=0.5, seed=3)
        r2 = power_report(design, freq_ghz=1.0, seed=3)
        assert r2.dynamic_uw == pytest.approx(2 * r1.dynamic_uw, rel=0.01)
        assert r2.leakage_uw == pytest.approx(r1.leakage_uw)

    def test_vdd_scaling_quadratic_on_dynamic(self, design, lib65):
        nominal = lib65.node.vdd
        r1 = power_report(design, freq_ghz=0.5, vdd=nominal, seed=3)
        r2 = power_report(design, freq_ghz=0.5, vdd=nominal / 2, seed=3)
        assert r2.dynamic_uw == pytest.approx(r1.dynamic_uw / 4, rel=0.01)

    def test_clock_gating_reduces_clock_power(self, design):
        r0 = power_report(design, freq_ghz=0.5, seed=3)
        r1 = power_report(design, freq_ghz=0.5, seed=3,
                          clock_gated_fraction=0.5)
        assert r1.clock_uw == pytest.approx(r0.clock_uw / 2, rel=0.01)

    def test_static_fraction_rises_at_leaky_nodes(self, lib65):
        lib180 = build_library(get_node("180nm"))
        old = logic_cloud(8, 4, 150, lib180, seed=4)
        new = logic_cloud(8, 4, 150, lib65, seed=4)
        f_old = power_report(old, freq_ghz=0.2).static_fraction
        f_new = power_report(new, freq_ghz=0.2).static_fraction
        assert f_new > f_old  # the 130 nm-era leakage explosion

    def test_summary_string(self, design):
        assert "uW" in power_report(design).summary()


class TestTechniques:
    def test_ladder_monotone_nonincreasing(self, design):
        ladder = technique_ladder(design)
        totals = [uw for _, uw in ladder.totals()]
        assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
        assert ladder.reduction_factor() >= 1.0

    def test_ladder_names(self, design):
        names = [n for n, _ in technique_ladder(design).totals()]
        assert names == ["baseline", "clock_gating", "dvfs",
                         "power_gating"]

    def test_power_gating_bounds(self):
        assert apply_power_gating(0.0) == pytest.approx(1.0, abs=0.02)
        assert apply_power_gating(1.0) < 0.1
        with pytest.raises(ValueError):
            apply_power_gating(1.5)

    def test_dvfs_lowers_voltage_when_slack(self):
        f, v = apply_dvfs(0.5, 2.0, vdd_nominal=1.0)
        assert f == 0.5
        assert v < 1.0
        f2, v2 = apply_dvfs(3.0, 2.0, vdd_nominal=1.0)
        assert (f2, v2) == (2.0, 1.0)

    def test_dvfs_respects_vmin(self):
        _, v = apply_dvfs(0.01, 10.0, vdd_nominal=1.0, vdd_min=0.6)
        assert v == 0.6

    def test_clock_gating_fraction_bounds(self, design):
        cg = apply_clock_gating(design)
        assert 0.0 <= cg["gated_fraction"] <= 1.0
        assert 0.0 < cg["effective_clock_scale"] <= 1.0


class TestPowerIntent:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            PowerDomain("bad", -1.0)
        with pytest.raises(ValueError):
            PowerDomain("bad", 1.0, switchable=True, always_on=True)

    def test_isolation_required_for_switchable_source(self):
        intent = PowerIntent()
        intent.add_domain(PowerDomain("cpu", 1.0, switchable=True))
        intent.add_domain(PowerDomain("aon", 1.0, always_on=True))
        intent.connect("cpu", "aon")
        violations = intent.check()
        assert len(violations) == 1
        assert violations[0].kind == "isolation"

    def test_level_shifter_required_for_voltage_gap(self):
        intent = PowerIntent()
        intent.add_domain(PowerDomain("hi", 1.2))
        intent.add_domain(PowerDomain("lo", 0.8))
        intent.connect("hi", "lo")
        violations = intent.check()
        assert any(v.kind == "level_shifter" for v in violations)

    def test_small_gap_needs_no_shifter(self):
        intent = PowerIntent()
        intent.add_domain(PowerDomain("a", 1.00))
        intent.add_domain(PowerDomain("b", 0.95))
        intent.connect("a", "b")
        assert intent.check() == []

    def test_auto_protect_clears_all(self):
        intent = scores_of_domains_intent(24)
        assert intent.domain_count() == 24
        assert len(intent.check()) > 0
        intent.auto_protect()
        assert intent.check() == []

    def test_duplicate_domain_rejected(self):
        intent = PowerIntent()
        intent.add_domain(PowerDomain("a", 1.0))
        with pytest.raises(ValueError):
            intent.add_domain(PowerDomain("a", 1.0))

    def test_unknown_domain_in_connect(self):
        intent = PowerIntent()
        intent.add_domain(PowerDomain("a", 1.0))
        with pytest.raises(KeyError):
            intent.connect("a", "ghost")

    def test_overhead_counts_protections(self):
        intent = scores_of_domains_intent(10)
        intent.auto_protect()
        assert intent.protection_cell_overhead() > 0


class TestPowerGrid:
    def _grid(self, watts=3e6, hot=((5, 5), (6, 6))):
        pm = power_density_map(12, 12, watts, hotspot_tiles=list(hot),
                               hotspot_multiplier=6, seed=0)
        g = PowerGrid(12, 12, vdd=0.9)
        g.set_current_from_power(pm)
        return g

    def test_solve_produces_positive_drops(self):
        report = self._grid().solve()
        assert report.worst_drop_mv > 0
        assert report.drop_mv.shape == (12, 12)

    def test_hotspots_at_hot_tiles(self):
        report = self._grid(watts=4e6).solve()
        assert report.violation_count > 0
        worst = report.worst_tile()
        assert abs(worst[0] - 5.5) <= 2 and abs(worst[1] - 5.5) <= 2

    def test_more_power_more_drop(self):
        r1 = self._grid(watts=2e6).solve()
        r2 = self._grid(watts=6e6).solve()
        assert r2.worst_drop_mv > r1.worst_drop_mv

    def test_decap_insertion_reduces_violations(self):
        g = self._grid(watts=4e6)
        before = g.solve()
        plan = insert_decaps(g, budget_ff=300000, step_ff=5000)
        after = g.solve()
        assert plan.count() > 0
        assert after.violation_count <= before.violation_count
        assert after.worst_drop_mv < before.worst_drop_mv

    def test_spreading_reduces_drop(self):
        g = self._grid(watts=5e6)
        before = g.solve()
        moves = spread_hotspots(g, iterations=100)
        after = g.solve()
        assert moves > 0
        assert after.worst_drop_mv < before.worst_drop_mv

    def test_decap_budget_respected(self):
        g = self._grid(watts=6e6)
        plan = insert_decaps(g, budget_ff=10000, step_ff=5000)
        assert plan.total_cap_ff <= 10000

    def test_shape_mismatch_rejected(self):
        g = PowerGrid(4, 4, vdd=1.0)
        with pytest.raises(ValueError):
            g.set_current_from_power(np.zeros((3, 3)))

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            PowerGrid(1, 5, vdd=1.0)


class TestDarkSilicon:
    def test_dark_fraction_grows_at_advanced_nodes(self):
        model = DarkSiliconModel(tdp_w_per_mm2=0.15, activity=0.25)
        dark = {n: model.dark_fraction(n)
                for n in ("90nm", "28nm", "10nm", "5nm")}
        assert dark["5nm"] > dark["10nm"] >= dark["28nm"]

    def test_techniques_recover_lit_area(self):
        raw = dark_silicon_fraction("10nm", tdp_w_per_mm2=0.15,
                                    activity=0.25)
        helped = dark_silicon_fraction("10nm", tdp_w_per_mm2=0.15,
                                       activity=0.25,
                                       power_technique_factor=0.25)
        assert helped < raw

    def test_lit_fraction_bounds(self):
        model = DarkSiliconModel(tdp_w_per_mm2=100.0)
        assert model.lit_fraction("180nm") == 1.0
        with pytest.raises(ValueError):
            model.lit_fraction("28nm", power_technique_factor=0)
