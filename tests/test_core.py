"""Tests for the full flow, throughput model, panel report, registry."""

import numpy as np
import pytest

from repro.core import (
    EXPERIMENTS,
    FlowOptions,
    ThroughputModel,
    calibrate_throughput,
    decade_report,
    experiment_info,
)
from repro.netlist import build_library, logic_cloud, random_aig, registered_cloud
from repro.orchestrate import run
from repro.tech import get_node


@pytest.fixture(scope="module")
def lib():
    return build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))


class TestImplementFlow:
    def test_full_flow_from_aig(self, lib):
        aig = random_aig(16, 400, 8, seed=1)
        result = run(aig, lib)
        assert result.instances > 0
        assert result.area_um2 > 0
        assert result.routed_wirelength > 0
        assert result.delay_ps > 0
        assert result.power_uw > 0
        assert set(result.stage_runtimes) == {
            "synthesis", "placement", "dft", "cts", "routing",
            "signoff"}

    def test_flow_from_mapped_netlist_skips_synthesis(self, lib):
        nl = logic_cloud(8, 8, 150, lib, seed=2)
        result = run(nl, lib)
        assert result.netlist is nl
        assert result.instances == 150

    def test_scan_option_inserts_chains(self, lib):
        nl = registered_cloud(8, 16, 120, lib, seed=3)
        opts = FlowOptions(scan=True)
        result = run(nl, lib, opts)
        assert any(g.cell.is_scan
                   for g in result.netlist.sequential_gates())

    def test_recipes_distinct(self):
        basic = FlowOptions.basic()
        advanced = FlowOptions.advanced()
        assert basic.era == "2006" and advanced.era == "2016"
        assert basic.routing_iterations < advanced.routing_iterations

    def test_summary_format(self, lib):
        nl = logic_cloud(8, 8, 100, lib, seed=4)
        assert "cells" in run(nl, lib).summary()


class TestThroughput:
    def test_calibration_fits_positive_exponent(self, lib):
        model = calibrate_throughput(lib, sizes=(100, 200, 400))
        assert model.exponent > 0.5
        assert model.coefficient > 0
        assert len(model.samples) == 3

    def test_runtime_scales_superlinearly(self):
        model = ThroughputModel(coefficient=1e-4, exponent=1.3)
        assert model.runtime_s(20000) > 2 * model.runtime_s(10000)

    def test_amdahl_speedup_saturates(self):
        model = ThroughputModel(coefficient=1e-4, exponent=1.2,
                                parallel_fraction=0.9)
        t1 = model.runtime_s(1_000_000, cores=1)
        t16 = model.runtime_s(1_000_000, cores=16)
        t1024 = model.runtime_s(1_000_000, cores=1024)
        assert t16 < t1 / 5
        assert t1024 > t1 / 11  # ceiling is 10x at 0.9

    def test_anchored_model_reproduces_panel_regime(self):
        # Rossi: 5-6M instance sub-chip, throughput approaching
        # 1M instances/day, using multicore farms.
        model = ThroughputModel.from_anchor(
            5_000_000, 50.0, 1.2, parallel_fraction=0.9)
        farm = model.instances_per_day(5_000_000, cores=64)
        assert 0.5e6 <= farm <= 1.2e6

    def test_cores_for_target(self):
        model = ThroughputModel.from_anchor(
            5_000_000, 50.0, 1.2, parallel_fraction=0.9)
        cores = model.cores_for_target(5_000_000, 0.8e6)
        assert cores > 1
        assert model.cores_for_target(5_000_000, 1e9) == -1

    def test_validation(self):
        model = ThroughputModel(coefficient=1e-4, exponent=1.2)
        with pytest.raises(ValueError):
            model.runtime_s(0)
        with pytest.raises(ValueError):
            ThroughputModel.from_anchor(0, 1.0, 1.2)


class TestPanelReport:
    def test_all_abstract_claims_hold(self):
        report = decade_report()
        failing = [c.claim_id for c in report.claims if not c.holds]
        assert report.all_hold(), f"failing claims: {failing}"

    def test_report_covers_seven_claims(self):
        assert len(decade_report().claims) == 7

    def test_markdown_renders(self):
        md = decade_report().to_markdown()
        assert md.startswith("| id |")
        assert "A1" in md and "A7" in md


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        for eid in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                    "E9", "E10", "E11", "E12", "E13", "E15"):
            info = experiment_info(eid)
            assert info.bench.startswith("benchmarks/")
            assert info.modules

    def test_lookup_case_insensitive(self):
        assert experiment_info("e3").exp_id == "E3"

    def test_unknown_raises_with_catalog(self):
        with pytest.raises(KeyError, match="E3"):
            experiment_info("E99")

    def test_bench_files_exist(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        for exp in EXPERIMENTS.values():
            assert (root / exp.bench).exists(), exp.bench
