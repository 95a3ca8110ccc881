"""Full-stack integration: every subsystem on one design, one flow.

The closest thing to a tapeout dry-run the suite has: synthesize,
place, insert scan layout-aware, synthesize the clock, route, check
multi-corner timing, verify equivalence against a reference mapping,
run BIST, decompose the routed metal, and price the die.
"""

import numpy as np
import pytest

from repro.core import FlowOptions, signoff
from repro.dft.bist import run_bist
from repro.learn import RunDatabase
from repro.mfg import die_cost
from repro.netlist import build_library, registered_cloud
from repro.orchestrate import run
from repro.route.track_assign import decompose_routed_layer
from repro.tech import get_node


@pytest.fixture(scope="module")
def full_run():
    node = get_node("28nm")
    lib = build_library(node, vt_flavors=("lvt", "rvt", "hvt"))
    design = registered_cloud(12, 32, 400, lib, seed=77)
    db = RunDatabase()
    options = FlowOptions.advanced()
    options.scan = True
    options.cts = True
    result = run(design, lib, options, run_db=db)
    return node, lib, result, db


class TestFullStack:
    def test_flow_completes_with_all_stages(self, full_run):
        _, _, result, _ = full_run
        assert result.instances > 400  # scan + design
        assert result.routed_wirelength > 0
        assert all(t >= 0 for t in result.stage_runtimes.values())

    def test_scan_inserted_and_functional(self, full_run):
        _, _, result, _ = full_run
        nl = result.netlist
        assert all(g.cell.is_scan for g in nl.sequential_gates())
        assert "scan_en" in nl.primary_inputs
        # Shift works.
        state = np.zeros((1, len(nl.sequential_gates())), dtype=bool)
        vec = np.zeros((1, len(nl.primary_inputs)), dtype=bool)
        vec[0, nl.primary_inputs.index("scan_en")] = True
        vec[0, nl.primary_inputs.index("scan_in0")] = True
        assert nl.next_state(vec, state).sum() == 1

    def test_clock_tree_built_and_bounded(self, full_run):
        _, _, result, _ = full_run
        assert result.clock_tree is not None
        assert result.clock_skew_ps < 5.0  # small die, small skew
        flops = {g.name for g in result.netlist.sequential_gates()}
        assert set(result.clock_tree.sink_delays) == flops

    def test_multi_corner_signoff_runs(self, full_run):
        _, _, result, _ = full_run
        report = signoff(result.netlist,
                         clock_period_ps=result.delay_ps * 2.0)
        assert len(report.corners) == 9
        assert report.clean

    def test_bist_on_the_implemented_design(self, full_run):
        _, _, result, _ = full_run
        bist = run_bist(result.netlist, patterns=48)
        assert bist.coverage > 0.3
        assert bist.golden_signature != 0

    def test_routed_metal_decomposes(self, full_run):
        node, _, result, _ = full_run
        stats = decompose_routed_layer(result.routing, node=node)
        assert stats["success"]

    def test_die_priced(self, full_run):
        node, _, result, _ = full_run
        area_mm2 = max(result.area_um2 * 1e-6 / 0.6, 0.01)
        cost = die_cost(node, area_mm2, volume=1_000_000)
        assert cost.total_usd > 0

    def test_self_monitoring_logged(self, full_run):
        _, _, result, db = full_run
        assert len(db) == 1
        assert db.records[0].qor["hpwl_um"] == pytest.approx(
            result.hpwl_um)
